import numpy as np
import pytest

from enscomp import extopt, linalg, states
from enscomp.errors import ValidationError
from enscomp.states import DensityMatrix, Ensemble

from conftest import rand_density, rand_ensemble


def orthogonal_pair():
    a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    return Ensemble([0.5, 0.5], (DensityMatrix(a, (4,)), DensityMatrix(b, (4,))))


def zero_plus_pair():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    return Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)),
         DensityMatrix(np.outer(plus, plus), (2,))),
    )


def test_extension_trivial_params(rng):
    rho = rand_density(rng, 2)
    ext = extopt.extension_from_params(rho, np.zeros(extopt.param_count(2, 4)), 2, 4)
    expect = linalg.tensor_product(rho.matrix, np.diag([1.0, 0.0]))
    assert np.abs(ext.matrix - expect).max() < 1e-12
    assert ext.factor_dims == (2, 2)


def test_extension_pure_when_purifier_is_one(rng):
    rho = rand_density(rng, 2)
    ext = extopt.extension_from_params(rho, np.zeros(extopt.param_count(2, 1)), 2, 1)
    assert states.von_neumann_entropy(ext) < 1e-10


def test_extension_random_params_verify(rng):
    for _ in range(10):
        rho = rand_density(rng, 2)
        n = 2 * 2
        params = rng.normal(size=2 * n * n)
        ext = extopt.extension_from_params(rho, params, 2, 2)
        assert extopt.verify_extension(ext, rho, tol=1e-9)


def test_extension_capacity_error(rng):
    rho = rand_density(rng, 4)  # full rank
    with pytest.raises(ValidationError):
        extopt.extension_from_params(
            rho, np.zeros(extopt.param_count(1, 2)), 1, 2
        )


def test_verify_extension_cases(rng):
    rho = rand_density(rng, 2)
    sig = rand_density(rng, 2)
    prod = DensityMatrix(linalg.tensor_product(rho.matrix, sig.matrix), (2, 2))
    assert extopt.verify_extension(prod, rho)

    from enscomp.fidelity import canonical_purification
    puri = canonical_purification(rho).density()
    assert extopt.verify_extension(puri, rho)

    # a 1e-3 trace-norm defect must fail at tol 1e-6
    other = rand_density(rng, 2)
    perturbed = DensityMatrix(
        linalg.tensor_product(0.999 * rho.matrix + 0.001 * other.matrix, sig.matrix),
        (2, 2),
    )
    check = extopt.verify_extension(perturbed, rho, tol=1e-6)
    assert not check and check.trace_norm_defect > 1e-4


def test_assignment_entropy_trivial_matches_source(rng):
    e = rand_ensemble(rng, 2, 2)
    triv = extopt.trivial_assignment(e, 2)
    s = extopt.assignment_entropy(e, triv)
    assert abs(s - states.von_neumann_entropy(states.ensemble_density(e))) < 1e-9


def test_assignment_entropy_pure_extension_zero(rng):
    e = Ensemble([1.0], (rand_density(rng, 2),))
    asn = extopt.trivial_assignment(e, 2, purifier_dim=1)
    assert extopt.assignment_entropy(e, asn) < 1e-10


def test_assignment_entropy_known_value():
    e = zero_plus_pair()
    triv = extopt.trivial_assignment(e, 2)
    lam = (2 + np.sqrt(2)) / 4
    expect = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
    assert abs(extopt.assignment_entropy(e, triv) - expect) < 1e-9


def test_gradient_matches_central_differences(rng):
    e = rand_ensemble(rng, 2, 2)
    a_dim, q_dim = 2, 2
    n = a_dim * q_dim
    for _ in range(5):
        params = tuple(rng.normal(size=2 * n * n) for _ in range(len(e)))
        asn = extopt.ExtensionAssignment(2, a_dim, q_dim, params)
        grad = extopt.entropy_gradient(e, asn)
        flat = np.concatenate(params)
        h = 1e-5
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                extopt.assignment_entropy(
                    e, extopt.ExtensionAssignment(2, a_dim, q_dim, tuple(np.split(up, len(e)))),
                    regularization=extopt.GRAD_REGULARIZATION,
                )
                - extopt.assignment_entropy(
                    e, extopt.ExtensionAssignment(2, a_dim, q_dim, tuple(np.split(dn, len(e)))),
                    regularization=extopt.GRAD_REGULARIZATION,
                )
            ) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


def test_gradient_zero_at_flat_landscape(rng):
    # single maximally mixed qubit with purifier 1: every isometry gives a
    # pure extension, so the entropy landscape is identically zero
    e = Ensemble([1.0], (DensityMatrix(np.eye(2) / 2, (2,)),))
    asn = extopt.trivial_assignment(e, 2, purifier_dim=1)
    assert np.linalg.norm(extopt.entropy_gradient(e, asn)) < 1e-6


def test_gradient_gauge_direction_vanishes(rng):
    # a global-phase generator direction (A = i t I) leaves W E unchanged
    e = rand_ensemble(rng, 2, 2)
    n = 2 * 2
    params = tuple(rng.normal(size=2 * n * n) for _ in range(len(e)))
    asn = extopt.ExtensionAssignment(2, 2, 2, params)
    grad = extopt.entropy_gradient(e, asn)
    direction = np.concatenate(
        [np.concatenate([np.zeros(n * n), np.eye(n).ravel()])] * len(e)
    )
    direction /= np.linalg.norm(direction)
    assert abs(grad @ direction) < 1e-8


def test_minimize_single_mixed_state(rng):
    e = Ensemble([1.0], (DensityMatrix(np.eye(2) / 2, (2,)),))
    cfg = extopt.OptimizerConfig(multistarts=4, max_iters=300, seed=11, ancilla_dim=2)
    res = extopt.minimize_extension_entropy(e, cfg)
    assert res.best_entropy <= 1e-4


def test_minimize_orthogonal_pair(rng):
    cfg = extopt.OptimizerConfig(
        multistarts=8, max_iters=500, seed=11, ancilla_dim=4, purifier_dim=2
    )
    res = extopt.minimize_extension_entropy(orthogonal_pair(), cfg)
    assert abs(res.best_entropy - 1.0) <= 1e-3


def test_minimize_pure_pair(rng):
    cfg = extopt.OptimizerConfig(multistarts=4, max_iters=300, seed=11, ancilla_dim=2)
    res = extopt.minimize_extension_entropy(zero_plus_pair(), cfg)
    lam = (2 + np.sqrt(2)) / 4
    expect = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
    assert abs(res.best_entropy - expect) <= 1e-3


def test_minimize_envelope_and_start_dominance(rng):
    for _ in range(3):
        e = rand_ensemble(rng, 2, 2)
        cfg = extopt.OptimizerConfig(
            multistarts=3, max_iters=200, seed=5, ancilla_dim=2, purifier_dim=2
        )
        res = extopt.minimize_extension_entropy(e, cfg)
        lower = states.holevo_quantity(e)
        upper = states.von_neumann_entropy(states.ensemble_density(e))
        assert lower - 1e-6 <= res.best_entropy <= upper + 1e-6
        assert all(res.best_entropy <= h.initial_entropy + 1e-8 for h in res.history)


def test_minimize_reproducible(rng):
    e = rand_ensemble(rng, 2, 2)
    cfg = extopt.OptimizerConfig(multistarts=3, max_iters=150, seed=9, ancilla_dim=2,
                                 purifier_dim=2)
    r1 = extopt.minimize_extension_entropy(e, cfg)
    r2 = extopt.minimize_extension_entropy(e, cfg)
    assert r1.best_entropy == r2.best_entropy
    assert r1.history == r2.history
    for p1, p2 in zip(r1.best_assignment.params, r2.best_assignment.params):
        assert np.array_equal(p1, p2)


def test_minimize_monotone_in_ancilla_budget(rng):
    e = orthogonal_pair()
    small = extopt.OptimizerConfig(
        multistarts=3, max_iters=300, seed=13, ancilla_dim=2, purifier_dim=2
    )
    r_small = extopt.minimize_extension_entropy(e, small)
    large = extopt.OptimizerConfig(
        multistarts=3, max_iters=300, seed=13, ancilla_dim=4, purifier_dim=2
    )
    r_large = extopt.minimize_extension_entropy(e, large)
    assert r_large.best_entropy <= r_small.best_entropy + 1e-6


def test_minimize_respects_ancilla_cap(rng):
    e = Ensemble([1.0], (rand_density(rng, 2),))
    cfg = extopt.OptimizerConfig(
        multistarts=1, max_iters=50, seed=1, ancilla_dim=64, purifier_dim=1
    )
    with pytest.warns(UserWarning):
        res = extopt.minimize_extension_entropy(e, cfg)
    assert res.best_assignment.ancilla_dim == 4  # cap = dim_q^2
