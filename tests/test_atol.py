"""Every check that reads ``linalg.ATOL`` accepts 0.5 ATOL and rejects 2 ATOL.

Each case builds an input whose violation is exactly ``delta`` and returns
whether the check accepted it; a raised ValidationError or
BoundViolationError counts as a rejection.  A consumer with its own budget,
larger or smaller, fails one of the two factors.
"""

import itertools
import json

import numpy as np
import pytest

from enscomp import bounds, cli, extopt, linalg, protocol, reference
from enscomp.errors import BoundViolationError, ValidationError
from enscomp.states import DensityMatrix, Ensemble

import dense_oracle


def density_trace(delta, tmp_path):
    DensityMatrix(np.diag([0.5, 0.5 + delta]), (2,))


def density_hermiticity(delta, tmp_path):
    DensityMatrix(np.array([[0.5, delta], [0.0, 0.5]]), (2,))


def density_negative_eigenvalue(delta, tmp_path):
    DensityMatrix(np.diag([1.0 + delta, -delta]), (2,))


def psd_sqrt_clip(delta, tmp_path):
    # accepted rounding is clipped to an exact zero by psd_eig, which the
    # dense oracle's square root applies
    return np.array_equal(dense_oracle.psd_sqrt(np.diag([1.0, -delta])), np.diag([1.0, 0.0]))


def loader_probability_sum(delta, tmp_path):
    path = tmp_path / "ens.json"
    e = reference.orthogonal_pair()
    cli.save_ensemble(e, str(path))
    payload = json.loads(path.read_text())
    payload["probs"] = [0.5, 0.5 + delta]
    path.write_text(json.dumps(payload))
    cli.load_ensemble(str(path))


def extension_defect(delta, tmp_path):
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    ext = DensityMatrix(np.kron(np.diag([0.5 + delta / 2, 0.5 - delta / 2]),
                                np.diag([1.0, 0.0])), (2, 2))
    return extopt.verify_extension(ext, rho).ok


def purification_register_mass(delta, tmp_path):
    # a capacity-1 register drops the eigenvalue delta; called directly, since
    # the extension built from it would also fail the trace check
    extopt._purification_register(DensityMatrix(np.diag([1.0 - delta, delta]), (2,)), 1)


def bound_report(delta, tmp_path):
    # a single pure state has Holevo quantity exactly 0
    e = Ensemble([1.0], (DensityMatrix(np.diag([1.0, 0.0]), (2,)),))
    return bounds.holevo_bound_check(e, -delta).satisfied


def fidelity_range(delta, tmp_path):
    protocol.ProtocolResult(block_length=1, channel_dim=1, avg_fidelity=1.0 + delta,
                            per_sequence=(), sampled=False)


def partial_trace_alarm(delta, tmp_path):
    # the kernel computes the pre-trace F first, then the traced F, each
    # the square of a trace norm
    norms = itertools.cycle(np.sqrt([0.5, 0.5 - delta]).tolist())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_trace_norm", lambda b: next(norms))
        e = reference.orthogonal_pair()
        a = extopt.trivial_assignment(e, 1)
        protocol.extension_protocol(e, 1, a, 1, dim_cap=2, sampling="exact")


CHECKS = [
    density_trace,
    density_hermiticity,
    density_negative_eigenvalue,
    psd_sqrt_clip,
    loader_probability_sum,
    extension_defect,
    purification_register_mass,
    bound_report,
    fidelity_range,
    partial_trace_alarm,
]


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_atol_boundary(check, factor, accepted, tmp_path):
    try:
        ok = check(factor * linalg.ATOL, tmp_path) is not False
    except (ValidationError, BoundViolationError):
        ok = False
    assert ok == accepted
