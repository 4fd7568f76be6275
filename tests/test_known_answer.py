"""Known-answer ensembles with a redundant part (Koashi & Imoto, PRL 87, 017902).

rho_i = U (psi_i (x) omega) U^dag with pure psi_i, a fixed mixed omega and a
Haar-random U.  Purifying omega gives extensions of entropy chi, so the
minimal extension entropy is chi.  With two signals, Uhlmann's theorem makes
the optimal extensions' Gram matrix that of {psi_i} up to phase, so the
extension protocol must reproduce plain JS on {psi_i} exactly.
"""

import numpy as np
import pytest

from enscomp import bounds, extopt, protocol, reference, states
from enscomp.states import DensityMatrix, Ensemble

from conftest import rand_unitary

OMEGA = np.diag([0.7, 0.3])


def redundant_part_ensemble(u: np.ndarray) -> Ensemble:
    """|0> and |+> (x) OMEGA, equiprobable, rotated by the unitary u on C^4."""
    plus = np.full((2, 2), 0.5)
    psis = (np.diag([1.0, 0.0]), plus)
    return Ensemble(
        [0.5, 0.5],
        tuple(DensityMatrix(u @ np.kron(p, OMEGA) @ u.conj().T, (4,)) for p in psis),
    )


@pytest.fixture(scope="module")
def redundant_part():
    e = redundant_part_ensemble(rand_unitary(np.random.default_rng(5), 4))
    cfg = extopt.OptimizerConfig(multistarts=8, seed=1, ancilla_dim=2, purifier_dim=2)
    return e, extopt.minimize_extension_entropy(e, cfg)


def test_redundant_part_minimizer_reaches_chi(redundant_part):
    e, res = redundant_part
    chi = states.holevo_quantity(e)
    assert abs(res.best_entropy - chi) < bounds.ENVELOPE_TOL
    assert states.von_neumann_entropy(states.ensemble_density(e)) > chi + 0.8


@pytest.mark.parametrize("k", [2, 3, 4])
def test_redundant_part_extension_equals_zero_plus_js(redundant_part, k):
    # The optimal extensions keep tail eigenvalues near 1e-13, so Q >= m and
    # the pre-trace fidelity takes the pivoted-Cholesky route.  Here F equals
    # F_ext, so an overshoot of F_ext beyond 1e-9 would raise a false
    # BoundViolationError ("partial trace reduced fidelity").
    e, res = redundant_part
    cap = int(2 ** (0.8 * k))
    ep = protocol.extension_protocol(e, 1, res.best_assignment, k, dim_cap=cap, sampling="exact")
    js = protocol.js_protocol(reference.zero_plus_pair(), k, dim_cap=cap, sampling="exact")
    assert abs(ep.avg_fidelity - js.avg_fidelity) < 1e-9
    assert abs(ep.ext_avg_fidelity - js.avg_fidelity) < 1e-9
    # The paper's gap at finite n: at the same rate 0.8, plain JS on the same
    # source must also carry the redundant part and falls (0.646, 0.485 and
    # 0.370 at k = 2, 3, 4), while EP keeps the zero-plus fidelity.
    same = protocol.js_protocol(e, k, dim_cap=cap, sampling="exact")
    assert ep.avg_fidelity > 0.93
    assert same.avg_fidelity < 0.65
    assert ep.avg_fidelity - same.avg_fidelity > 0.3
