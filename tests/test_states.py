import dataclasses

import numpy as np
import pytest

from enscomp import extopt, linalg, protocol, states
from enscomp.errors import DimensionGuardError, ValidationError
from enscomp.fidelity import (
    _fix_global_phase,
    canonical_purification,
    fidelity,
    optimal_purification,
)
from enscomp.states import DensityMatrix, Ensemble

from conftest import rand_density, rand_ensemble, rand_pure_density, rand_rank_density


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.9, 0.2]), (2,))  # trace != 1
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))  # negative eigenvalue
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4) / 4, (2, 3))  # dims do not multiply


def test_density_matrix_keeps_its_spectrum(rng):
    rho, _ = rand_rank_density(rng, 4, 2)
    w, v = rho._psd_eig
    want_w, want_v = linalg.psd_eig(rho.matrix)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert not w.flags.writeable and not v.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 0.0
    # repr and == read the matrix and the factor dims only
    assert "_psd_eig" not in repr(rho)
    same = dataclasses.replace(rho)
    assert same == rho and same._psd_eig[1] is not v
    # replace builds through __post_init__, so the spectrum follows the new matrix
    other = rand_density(rng, 4).matrix
    moved = dataclasses.replace(rho, matrix=other)
    for got, want in zip(moved._psd_eig, linalg.psd_eig(other)):
        assert np.array_equal(got, want)


def test_spectrum_readers_match_uncached_route(rng):
    # each reader against its formula on a spectrum computed afresh from the matrix
    pairs = [(rand_density(rng, 4), rand_rank_density(rng, 4, 2)[0]),
             (rand_rank_density(rng, 4, 3)[0], rand_pure_density(rng, 4))]
    for a, b in pairs:
        root = linalg.psd_sqrt(a.matrix) @ linalg.psd_sqrt(b.matrix)
        want = min(max(float(np.sum(linalg.singular_values(root)) ** 2), 0.0), 1.0)
        assert fidelity(a, b) == want
        w, v = linalg.psd_eig(b.matrix)
        target = canonical_purification(b)
        assert np.array_equal(target.amplitudes, _fix_global_phase((v * np.sqrt(w)).reshape(-1)))
        f = linalg.psd_factor(*linalg.psd_eig(a.matrix))
        x, _, yh = np.linalg.svd(f.conj().T @ target.amplitudes.reshape(4, 4), full_matrices=False)
        want = _fix_global_phase((f @ x @ yh).reshape(-1))
        assert np.array_equal(optimal_purification(a, target).amplitudes, want)
        w, v = linalg.psd_eig(a.matrix)
        assert np.array_equal(extopt._purification_register(a, 4), v * np.sqrt(w))
        ts = protocol.typical_subspace(states.ensemble_density(Ensemble([0.5, 0.5], (a, b))),
                                       2, eps=0.1)
        halves = [rand_density(rng, 2), rand_rank_density(rng, 2, 1)[0]]
        for sts, anc in (((a, b), 1), (halves, 2)):
            v = ts.source_eigenvectors.conj().reshape(-1, anc, ts.source_eigenvectors.shape[1])
            for got, st in zip(protocol._amplitude_factors(ts, sts, anc), sts):
                f = linalg.psd_factor(*linalg.psd_eig(st.matrix))
                assert np.array_equal(got, np.einsum("xjs,xr->srj", v, f))


def test_ensemble_validation():
    pair = (DensityMatrix(np.diag([1.0, 0.0]), (2,)), DensityMatrix(np.diag([0.0, 1.0]), (2,)))
    with pytest.raises(ValidationError):
        Ensemble([1.0], pair)  # lengths differ
    with pytest.raises(ValidationError):
        Ensemble([1.5, -0.5], pair)  # negative probability
    with pytest.raises(ValidationError):
        Ensemble([0.5, 0.4], pair)  # sum != 1
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="probabilities"):
            Ensemble([bad, 1.0], pair)
    # a tolerated rounding negative is stored as exactly 0
    e = Ensemble([-1e-16, 1.0], pair)
    assert e.probs[0] == 0.0 and e.probs[1] == 1.0


def test_ensemble_density_cases(rng):
    rho = rand_density(rng, 3)
    single = Ensemble([1.0], (rho,))
    assert np.abs(states.ensemble_density(single).matrix - rho.matrix).max() < 1e-12

    pair = Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)), DensityMatrix(np.diag([0.0, 1.0]), (2,))),
    )
    assert np.allclose(states.ensemble_density(pair).matrix, np.eye(2) / 2)

    mix = Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.eye(2) / 2, (2,)), DensityMatrix(np.diag([1.0, 0.0]), (2,))),
    )
    assert np.allclose(states.ensemble_density(mix).matrix, np.diag([0.75, 0.25]))


def test_von_neumann_entropy_values(rng):
    assert states.von_neumann_entropy(rand_pure_density(rng, 4)) < 1e-10
    assert abs(states.von_neumann_entropy(DensityMatrix(np.eye(2) / 2, (2,))) - 1.0) < 1e-12
    binary = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)
    got = states.von_neumann_entropy(DensityMatrix(np.diag([0.9, 0.1]), (2,)))
    assert abs(got - binary) < 1e-12
    assert abs(got - 0.468996) < 1e-6


def test_pure_entropy_is_positive_zero():
    # -(1 log2 1) is -0.0, which the CLI used to print as "-0"
    for spectrum in ([1.0, 0.0], [1.0], [1.0, 1e-13]):
        s = states.entropy_of_eigenvalues(spectrum)
        assert s == 0.0 and np.copysign(1.0, s) == 1.0
    assert np.copysign(1.0, states.von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]),
                                                                     (2,)))) == 1.0


def test_entropy_additive_on_products(rng):
    rho = rand_density(rng, 2)
    sig = rand_density(rng, 3)
    prod = DensityMatrix(linalg.tensor_product(rho.matrix, sig.matrix), (2, 3))
    lhs = states.von_neumann_entropy(prod)
    rhs = states.von_neumann_entropy(rho) + states.von_neumann_entropy(sig)
    assert abs(lhs - rhs) < 1e-9


def test_holevo_quantity_values(rng):
    assert states.holevo_quantity(Ensemble([1.0], (rand_density(rng, 3),))) < 1e-12
    pair = Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)), DensityMatrix(np.diag([0.0, 1.0]), (2,))),
    )
    assert abs(states.holevo_quantity(pair) - 1.0) < 1e-12
    mix = Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.eye(2) / 2, (2,)), DensityMatrix(np.diag([1.0, 0.0]), (2,))),
    )
    expect = -0.75 * np.log2(0.75) - 0.25 * np.log2(0.25) - 0.5
    assert abs(states.holevo_quantity(mix) - expect) < 1e-12
    assert abs(expect - 0.311278) < 1e-6


def test_holevo_bounds_random(rng):
    for _ in range(20):
        e = rand_ensemble(rng, 3, 3)
        chi = states.holevo_quantity(e)
        assert chi >= -1e-9
        assert chi <= states.von_neumann_entropy(states.ensemble_density(e)) + 1e-9


def test_support_dim(rng):
    assert states.support_dim(rand_pure_density(rng, 4)) == 1
    assert states.support_dim(DensityMatrix(np.eye(2) / 2, (2,))) == 2
    d = np.diag([0.5, 0.5 - 1e-12, 1e-12, 0.0])
    assert states.support_dim(DensityMatrix(d, (4,))) == 2


def test_support_dim_entropy_bound(rng):
    for _ in range(20):
        rho = rand_density(rng, 4, rank=rng.integers(1, 5))
        s = states.von_neumann_entropy(rho)
        assert np.log2(states.support_dim(rho)) >= s - 1e-6


def test_product_ensemble(rng):
    e = rand_ensemble(rng, 2, 2)
    assert states.product_ensemble(e, 1) is e

    e2 = states.product_ensemble(e, 2)
    assert len(e2) == 4
    assert abs(e2.probs.sum() - 1.0) < 1e-10
    # lexicographic multi-index order
    assert abs(e2.probs[1] - e.probs[0] * e.probs[1]) < 1e-12
    expect = linalg.tensor_product(e.states[0].matrix, e.states[1].matrix)
    assert np.abs(e2.states[1].matrix - expect).max() < 1e-12

    rho = states.ensemble_density(e)
    rho2 = states.ensemble_density(e2)
    assert np.abs(rho2.matrix - linalg.tensor_product(rho.matrix, rho.matrix)).max() < 1e-10


def test_product_ensemble_uniform_probs():
    pair = Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)), DensityMatrix(np.diag([0.0, 1.0]), (2,))),
    )
    e2 = states.product_ensemble(pair, 2)
    assert np.allclose(e2.probs, 0.25)


def test_product_ensemble_guard(rng):
    e = rand_ensemble(rng, 4, 4)
    with pytest.raises(DimensionGuardError):
        states.product_ensemble(e, 8)
