import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from enscomp import bounds, extopt, linalg, states
from enscomp.errors import BoundViolationError, DimensionGuardError, ValidationError
from enscomp.states import DensityMatrix, Ensemble

import dense_oracle
from conftest import rand_density, rand_ensemble, rand_rank_density, rand_unitary
from test_known_answer import redundant_part_ensemble


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


def mixed_triple():
    """Three full-rank qubit states with chi < S_min < S(rho): 0.239 < 0.428 < 0.949."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    blochs = ((-0.298, 0.090, -0.615), (0.666, -0.264, 0.251), (-0.059, -0.128, -0.301))
    return Ensemble([0.209, 0.380, 0.411], tuple(
        DensityMatrix(0.5 * (np.eye(2) + sum(b * p for b, p in zip(bloch, paulis))), (2,))
        for bloch in blochs))


def test_extension_trivial_params(rng):
    rho = rand_density(rng, 2)
    ext = extopt.extension_from_params(rho, np.zeros(extopt.param_count(2, 4)), 2, 4)
    expect = np.kron(rho.matrix, np.diag([1.0, 0.0]))
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
        assert extopt.verify_extension(ext, rho)


def test_extension_vanishes_on_the_kernel(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d))
        rho, u = rand_rank_density(rng, d, k)
        params = rng.normal(size=extopt.param_count(2, 2))
        ext = extopt.extension_from_params(rho, params, 2, 2)
        assert np.abs(np.kron(u[:, k:], np.eye(2)).conj().T @ ext.matrix).max() < 1e-12


def test_extension_capacity_error(rng):
    rho = rand_density(rng, 4)  # full rank
    with pytest.raises(ValidationError):
        extopt.extension_from_params(
            rho, np.zeros(extopt.param_count(1, 2)), 1, 2
        )


def test_extended_ensemble_builds_every_extension_in_one_call(monkeypatch, rng):
    e = rand_ensemble(rng, 2, 3)
    n = 2 * 2
    assignment = extopt.ExtensionAssignment(2, 2, 2, tuple(rng.normal(size=2 * n * n)
                                                          for _ in range(3)))
    calls = []
    build = extopt._extension_amplitudes

    def recording(e, regs, flat, ancilla_dim, purifier_dim):
        calls.append((regs.shape, flat.shape))
        return build(e, regs, flat, ancilla_dim, purifier_dim)

    monkeypatch.setattr(extopt, "_extension_amplitudes", recording)
    ext = extopt.extended_ensemble(e, assignment)
    assert calls == [((3, 2, 2), (3 * 2 * n * n,))]
    assert len(ext) == 3 and ext.states[0].factor_dims == (2, 2)


@pytest.mark.parametrize("entry", [extopt.extended_ensemble, extopt.assignment_entropy,
                                   extopt.entropy_gradient])
def test_mismatched_assignment_is_rejected_by_every_entry(entry):
    # the orthogonal pair (d = 4) against assignments built for |0>/|+> (d = 2),
    # and against one with a single parameter vector for its two states
    e = orthogonal_pair()
    with pytest.raises(ValidationError, match="system dim 2 != ensemble dim 4"):
        entry(e, extopt.trivial_assignment(zero_plus_pair(), 2, 2))
    one = extopt.ExtensionAssignment(4, 2, 4, (np.zeros(extopt.param_count(2, 4)),))
    with pytest.raises(ValidationError, match="1 param vectors for 2 states"):
        entry(e, one)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(d=st.integers(1, 3), ranks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n_block=st.integers(1, 2), ancilla=st.integers(1, 3), purifier=st.integers(1, 3),
       zero_prob=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_extended_ensemble_properties(d, ranks, n_block, ancilla, purifier, zero_prob, seed):
    # the one builder on blocked sources: every extension reduces to its
    # signal, the extended ensemble's entropy is the assignment entropy, and
    # extension_from_params is its one-state case
    ranks = [min(r, d) for r in ranks]
    assume(ancilla * purifier >= max(ranks) ** n_block)  # the register holds each support
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, size=len(ranks))
    if zero_prob and len(p) > 1:
        p[0] = 0.0
    e0 = Ensemble(p / p.sum(), tuple(rand_density(rng, d, rank=r) for r in ranks))
    e = states.product_ensemble(e0, n_block)
    n = ancilla * purifier
    assignment = extopt.ExtensionAssignment(
        e.dim, ancilla, purifier, tuple(rng.normal(size=2 * n * n) for _ in e.states))
    ext = extopt.extended_ensemble(e, assignment)
    for rho, rho_ext, params in zip(e.states, ext.states, assignment.params):
        assert extopt.verify_extension(rho_ext, rho)
        one = extopt.extension_from_params(rho, params, ancilla, purifier)
        assert np.array_equal(one.matrix, rho_ext.matrix)
        assert one.factor_dims == rho_ext.factor_dims == rho.factor_dims + (ancilla,)
    s_ext = states.von_neumann_entropy(states.ensemble_density(ext))
    assert abs(s_ext - extopt.assignment_entropy(e, assignment)) <= 1e-12


def test_verify_extension_cases(rng):
    rho = rand_density(rng, 2)
    sig = rand_density(rng, 2)
    prod = DensityMatrix(np.kron(rho.matrix, sig.matrix), (2, 2))
    assert extopt.verify_extension(prod, rho)

    from enscomp.fidelity import canonical_purification
    puri = canonical_purification(rho).density()
    assert extopt.verify_extension(puri, rho)

    # a 1e-3 trace-norm defect must fail
    other = rand_density(rng, 2)
    perturbed = DensityMatrix(
        np.kron(0.999 * rho.matrix + 0.001 * other.matrix, sig.matrix),
        (2, 2),
    )
    check = extopt.verify_extension(perturbed, rho)
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


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(d=st.integers(1, 3), ranks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       ancilla=st.integers(1, 3), purifier=st.integers(1, 3), zero_prob=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assignment_entropy_is_at_least_holevo(d, ranks, ancilla, purifier, zero_prob, seed):
    # S(sum_i p_i rho_i^ext) >= chi(extensions) >= chi(signals): the Holevo
    # quantity cannot grow under the partial trace over the ancilla
    ranks = [min(r, d) for r in ranks]
    assume(ancilla * purifier >= max(ranks))  # the register holds each support
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, size=len(ranks))
    if zero_prob and len(p) > 1:
        p[0] = 0.0
    e = Ensemble(p / p.sum(), tuple(rand_rank_density(rng, d, r)[0] for r in ranks))
    n = ancilla * purifier
    assignment = extopt.ExtensionAssignment(
        d, ancilla, purifier, tuple(rng.normal(scale=2.0, size=2 * n * n) for _ in e.states))
    chi = states.holevo_quantity(e)
    chi_ext = states.holevo_quantity(extopt.extended_ensemble(e, assignment))
    assert chi_ext >= chi - bounds.ENVELOPE_TOL
    assert extopt.assignment_entropy(e, assignment) >= chi_ext - bounds.ENVELOPE_TOL


def test_minimize_never_reports_a_negative_entropy():
    # every pure extension of |0> has entropy 0, though rounding can lift the
    # top eigenvalue of a start's spectrum above 1
    e = Ensemble([1.0], (DensityMatrix(np.diag([1.0, 0.0]), (2,)),))
    res = extopt.minimize_extension_entropy(e, extopt.OptimizerConfig(seed=7, purifier_dim=1))
    assert all(h.initial_entropy >= 0.0 and h.final_entropy >= 0.0 for h in res.history)
    assert res.best_entropy == 0.0 and np.copysign(1.0, res.best_entropy) == 1.0


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
            fd[i] = (_oracle_objective(e, a_dim, q_dim, up)
                     - _oracle_objective(e, a_dim, q_dim, dn)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


def _oracle_objective(e, a_dim, q_dim, flat):
    """The minimizer's objective at ``flat``, by scipy's expm (dense_oracle)."""
    asn = extopt.ExtensionAssignment(e.dim, a_dim, q_dim, tuple(np.split(flat, len(e))))
    return dense_oracle.expm_frechet_gradient(e, asn)[0]


@pytest.mark.parametrize("source", [zero_plus_pair, orthogonal_pair])
@pytest.mark.parametrize("a_dim, q_dim", [(2, 2), (4, 1), (64, 1)])
def test_objective_value_matches_oracle(rng, source, a_dim, q_dim):
    # the objective has one definition: eigenvalues clipped at 0 plus
    # GRAD_REGULARIZATION / dim, no entropy floor (system x ancilla up to 256)
    e = source()
    flat = rng.normal(size=extopt.param_count(a_dim, q_dim) * len(e))
    regs = extopt._registers(e, a_dim, q_dim)
    value, _ = extopt._entropy_and_gradient(e, regs, flat, a_dim, q_dim)
    assert abs(value - _oracle_objective(e, a_dim, q_dim, flat)) <= 1e-12


def test_gradient_matches_central_differences_at_dimension_128(rng):
    # |0>/|+> with pure extensions: the extended pair is not orthogonal, so the
    # entropy moves with the parameters (the orthogonal pair's stays at 1 bit)
    e, a_dim, q_dim = zero_plus_pair(), 64, 1
    flat = rng.normal(size=extopt.param_count(a_dim, q_dim) * len(e))
    asn = extopt.ExtensionAssignment(2, a_dim, q_dim, tuple(np.split(flat, len(e))))
    grad = extopt.entropy_gradient(e, asn)
    h, coords = 1e-5, rng.choice(flat.size, size=20, replace=False)
    fd = np.zeros(len(coords))
    for n, i in enumerate(coords):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        fd[n] = (_oracle_objective(e, a_dim, q_dim, up)
                 - _oracle_objective(e, a_dim, q_dim, dn)) / (2 * h)
    assert np.linalg.norm(grad[coords] - fd) <= 1e-5 * np.linalg.norm(fd)


def _degenerate_params(rng, n):
    """Params whose generator has each eigenvalue of multiplicity n/2, yet is not 0."""
    u = rand_unitary(rng, n)
    g = (u * (1j * np.repeat([0.7, -1.3], n // 2))) @ u.conj().T
    return np.concatenate([(g / 2).real.ravel(), (g / 2).imag.ravel()])  # A = G/2


def test_objective_and_gradient_match_scipy_expm_frechet(rng):
    cases = []
    # scale 12.5 puts the parameter norm at about 10^2
    for a_dim, q_dim, scale in ((2, 2, 1.0), (2, 4, 1.0), (4, 2, 1.0), (2, 2, 12.5),
                                (2, 4, 12.5), (2, 2, 0.0), (2, 4, 0.0)):
        n = a_dim * q_dim
        e = rand_ensemble(rng, 2, 3)
        params = tuple(scale * rng.normal(size=2 * n * n) for _ in range(3))
        cases.append((e, extopt.ExtensionAssignment(2, a_dim, q_dim, params)))
    e = rand_ensemble(rng, 2, 2)
    params = (_degenerate_params(rng, 4), _degenerate_params(rng, 4))
    cases.append((e, extopt.ExtensionAssignment(2, 2, 2, params)))
    for e, asn in cases:
        value, grad = dense_oracle.expm_frechet_gradient(e, asn)
        regs = extopt._registers(e, asn.ancilla_dim, asn.purifier_dim)
        got_value, got_grad = extopt._entropy_and_gradient(
            e, regs, np.concatenate(asn.params), asn.ancilla_dim, asn.purifier_dim
        )
        assert abs(got_value - value) <= 1e-10
        assert np.abs(got_grad - grad).max() <= 1e-10
    # the degenerate case is not a stationary point, so it tests the sinc limit
    assert np.abs(grad).max() > 1e-2


def test_isometry_matches_scipy_expm(rng):
    # K_i = B_i expm(A - A^dag)[:, :r]^T from the builder, one state of dim r
    def amplitudes(params, a_dim, q_dim, r):
        e = Ensemble([1.0], (DensityMatrix(np.eye(r) / r, (r,)),))
        b = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        _, k, _, theta = extopt._extension_amplitudes(e, b[None], params, a_dim, q_dim)
        w = dense_oracle.expm_isometry(params, a_dim * q_dim, r)
        return np.abs(k[0] - (b @ w.T).reshape(-1, q_dim)).max(), theta[0]

    for a_dim, q_dim, r, scale in ((2, 2, 2, 1.0), (2, 4, 3, 1.0), (4, 2, 8, 12.5),
                                   (2, 2, 4, 0.0)):
        params = scale * rng.normal(size=extopt.param_count(a_dim, q_dim))
        assert amplitudes(params, a_dim, q_dim, r)[0] <= 1e-12
    err, theta = amplitudes(_degenerate_params(rng, 4), 2, 2, 4)
    assert np.ptp(theta[:2]) < 1e-12 and np.ptp(theta[2:]) < 1e-12
    assert err <= 1e-12


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


@pytest.mark.parametrize("field, value", [
    ("multistarts", 0), ("multistarts", -3), ("max_iters", -1),
    ("ancilla_dim", 0), ("ancilla_dim", -1), ("purifier_dim", 0), ("purifier_dim", -2),
    ("seed", -1),
])
def test_optimizer_config_rejects_out_of_range(field, value):
    with pytest.raises(ValidationError, match=field):
        extopt.OptimizerConfig(**{field: value})


def test_two_block_optimum_per_signal_within_one_block(rng):
    # The product of two one-block extensions (ancilla a, purifier q) is a
    # two-block extension with ancilla a^2 and purifier q^2, so the two-block
    # optimum per signal can only match or beat the one-block one.  A strict
    # gain would show non-additivity; README records what these runs found.
    for _ in range(2):
        e = rand_ensemble(rng, 2, 2)
        one = extopt.minimize_extension_entropy(e, extopt.OptimizerConfig(
            multistarts=2, seed=1, ancilla_dim=2, purifier_dim=2))
        two = extopt.minimize_extension_entropy(
            states.product_ensemble(e, 2), extopt.OptimizerConfig(
                multistarts=2, max_iters=3000, seed=1, ancilla_dim=4, purifier_dim=4))
        assert two.best_entropy / 2 <= one.best_entropy + bounds.ENVELOPE_TOL


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


@pytest.mark.parametrize("name, value", [
    pytest.param("_holevo_quantity", 10.0, id="holevo_quantity-10.0"),
    ("von_neumann_entropy", -1.0),
])
def test_minimize_raises_outside_the_envelope(monkeypatch, name, value):
    # the optimum is checked by bounds.envelope_check on both sides: a lower
    # bound pushed above S(rho), then an upper bound pushed below chi
    monkeypatch.setattr(bounds, name, lambda *args: value)
    cfg = extopt.OptimizerConfig(multistarts=1, max_iters=5, ancilla_dim=2, purifier_dim=1)
    with pytest.raises(BoundViolationError, match=r"bound entropy_envelope\(.*\) violated: lhs="):
        extopt.minimize_extension_entropy(zero_plus_pair(), cfg)


def test_minimize_returns_its_envelope_report():
    cfg = extopt.OptimizerConfig(multistarts=2, seed=3, ancilla_dim=2, purifier_dim=1)
    res = extopt.minimize_extension_entropy(zero_plus_pair(), cfg)
    assert res.envelope == bounds.envelope_check(zero_plus_pair(), res.best_entropy)
    assert res.envelope.satisfied


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


def test_minimize_warns_when_best_start_stops_early():
    # a block run cut at 5 iterations stops above its optimum: the result
    # stands, with a UserWarning naming the start and the iteration cap
    e = rand_ensemble(np.random.default_rng(2024), 2, 2)
    cfg = extopt.OptimizerConfig(multistarts=2, max_iters=5, seed=3, ancilla_dim=2,
                                 purifier_dim=2)
    with pytest.warns(UserWarning, match=r"best start \d did not converge in 5 iterations "
                                         r"\(max_iters 5"):
        res = extopt.minimize_extension_entropy(states.product_ensemble(e, 2), cfg)
    assert not any(h.converged for h in res.history)
    assert all(h.iterations == 5 for h in res.history)


def test_minimize_zero_iterations_takes_no_step():
    cfg = extopt.OptimizerConfig(multistarts=3, max_iters=0, seed=7)
    res = extopt.minimize_extension_entropy(zero_plus_pair(), cfg)
    assert [h.iterations for h in res.history] == [0, 0, 0]
    assert [h.final_entropy for h in res.history] == [h.initial_entropy for h in res.history]
    # only the trivial start is stationary, so only it has converged
    assert [h.converged for h in res.history] == [True, False, False]


@pytest.mark.parametrize("source", [zero_plus_pair, orthogonal_pair])
def test_trivial_start_converges_in_zero_iterations(source):
    cfg = extopt.OptimizerConfig(multistarts=1, ancilla_dim=2, purifier_dim=2)
    start = extopt.minimize_extension_entropy(source(), cfg).history[0]
    assert start.iterations == 0 and start.converged


def test_best_start_ties_break_to_start_zero():
    # with purifier 1 every extension of the pure state |0> is pure: the starts
    # end at 0 up to rounding, five of the eight at exactly 0, start 0 among them
    e = Ensemble([1.0], (DensityMatrix(np.diag([1.0, 0.0]), (2,)),))
    res = extopt.minimize_extension_entropy(e, extopt.OptimizerConfig(seed=7, purifier_dim=1))
    finals = [h.final_entropy for h in res.history]
    assert max(finals) < 1e-15 and finals.count(0.0) > 1
    assert res.best_entropy == 0.0 and res.best_start == 0


def test_best_start_is_the_first_start_reaching_the_best_entropy():
    # on the mixed triple the trivial start 0 stays at S(rho), above the
    # optimum, and starts 1 to 3 end within 2e-9 of each other
    e = mixed_triple()
    cfg = extopt.OptimizerConfig(multistarts=4, seed=7, ancilla_dim=2, purifier_dim=2)
    res = extopt.minimize_extension_entropy(e, cfg)
    finals = [h.final_entropy for h in res.history]
    assert res.best_entropy == min(finals)
    assert res.best_start == finals.index(res.best_entropy) > 0
    assert extopt.assignment_entropy(e, res.best_assignment) == res.best_entropy


def test_minimize_converged_best_start_is_silent():
    # the best start is a random one that converges in 24 iterations
    cfg = extopt.OptimizerConfig(multistarts=2, seed=3, ancilla_dim=2, purifier_dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = extopt.minimize_extension_entropy(orthogonal_pair(), cfg)
    best = min(res.history, key=lambda h: h.final_entropy)
    assert best.start_index == 1 and best.converged


def test_lbfgs_minimizes_a_convex_quadratic_by_strong_wolfe_steps(monkeypatch):
    # f = (x - x*)^T A (x - x*) / 2 has minimum 0, so the entropy-decrease rule
    # stops once a step gains about 1e-11, within about sqrt(2e-11 / lambda_min)
    # of x*; A's eigenvalues 1e6..1e8 put that below the 1e-8 asserted below
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    a = (q * np.logspace(6, 8, 10)) @ q.T
    x_min = 100.0 * rng.normal(size=10)  # far beyond the unit first step
    evaluations = []

    def fun(x):
        evaluations.append(x)
        return float(0.5 * (x - x_min) @ a @ (x - x_min)), a @ (x - x_min)

    steps = []

    def recording_step(fun, x, f0, g0, d):
        step = wolfe_step(fun, x, f0, g0, d)
        steps.append((x, f0, g0, step))
        return step

    wolfe_step = extopt._wolfe_step
    monkeypatch.setattr(extopt, "_wolfe_step", recording_step)
    x, iterations, converged, _ = extopt._lbfgs(fun, np.zeros(10), 500)
    assert converged and iterations == len(steps)
    assert np.abs(x - x_min).max() <= 1e-8
    assert len(evaluations) > iterations + 1  # some steps needed more than one trial
    for x0, f0, g0, (x1, f1, g1) in steps:
        s = x1 - x0
        assert f1 <= f0 + extopt.WOLFE_C1 * (g0 @ s)
        assert abs(g1 @ s) <= extopt.WOLFE_C2 * abs(g0 @ s)


def test_minimize_matches_scipy_lbfgsb_oracle(monkeypatch):
    # scipy's L-BFGS-B from the same starts is the reference optimizer: the
    # numpy L-BFGS must end no higher than it, and not below chi
    rng = np.random.default_rng(16)
    cases = [orthogonal_pair(), zero_plus_pair(), mixed_triple(),
             Ensemble([1.0], (DensityMatrix(np.eye(2) / 2, (2,)),)),
             redundant_part_ensemble(rand_unitary(rng, 4)),
             redundant_part_ensemble(rand_unitary(rng, 4))]
    cases += [rand_ensemble(np.random.default_rng(seed), 2, 3) for seed in (1, 2, 3)]
    cfg = extopt.OptimizerConfig(multistarts=8, seed=102, ancilla_dim=2, purifier_dim=2)
    for e in cases:
        res = extopt.minimize_extension_entropy(e, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(extopt, "_lbfgs", dense_oracle.lbfgsb)
            ref = extopt.minimize_extension_entropy(e, cfg)
        assert res.best_entropy <= ref.best_entropy + bounds.ENVELOPE_TOL
        assert res.best_entropy >= states.holevo_quantity(e) - bounds.ENVELOPE_TOL
        assert min(res.history, key=lambda h: h.final_entropy).converged


def test_failed_line_search_converges_when_no_decrease_is_predicted():
    # the line search fails on a flat f whose gradient stays just above
    # STEP_TOLERANCE; a predicted decrease -g.d of 4e-16 is below what the
    # relative-decrease rule sees, a predicted 1e-6 is not
    for g, converged in ((2e-8, True), (1e-3, False)):
        x, iterations, ok, message = extopt._lbfgs(
            lambda x: (0.6, np.full(2, g)), np.zeros(2), 50)
        assert (iterations, ok) == (0, converged)
        assert ("ENTROPY_TOLERANCE" in message) == converged


def test_minimize_start_at_flat_optimum_converges():
    # |0>/|+> with pure extensions, seed 7: start 4 reaches the optimum
    # 0.600876037 where its line search fails on a predicted decrease of 4e-16
    cfg = extopt.OptimizerConfig(seed=7, purifier_dim=1)
    res = extopt.minimize_extension_entropy(zero_plus_pair(), cfg)
    assert res.history[4].iterations == 8
    assert abs(res.history[4].final_entropy - 0.600876037) < 1e-9
    assert all(h.converged for h in res.history)


def _d16_pair():
    return Ensemble([0.5, 0.5], (DensityMatrix(np.eye(16) / 16, (16,)),
                                 DensityMatrix(np.diag(np.arange(1.0, 17.0)) / 136, (16,))))


def test_minimizer_and_extension_guards_allocate_nothing():
    # ancilla 64 on C^16: the 2 n^2 N parameters alone are 128 GiB (minimize)
    # and 64 GiB per state (trivial assignment); both refuse before allocating
    e = _d16_pair()
    cfg = extopt.OptimizerConfig(multistarts=1, ancilla_dim=64)
    for call, what in ((lambda: extopt.minimize_extension_entropy(e, cfg), "minimizer"),
                       (lambda: extopt.trivial_assignment(e, 64), "trivial assignment")):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionGuardError, match=what):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_extended_ensemble_guard_allocates_nothing(monkeypatch):
    # pure extensions with ancilla 16 on C^16 hold two 256 x 256 matrices per
    # state; one element under the count refuses before any is built
    e = _d16_pair()
    assignment = extopt.trivial_assignment(e, 16, 1)
    counts = _guard_counts(monkeypatch)
    extopt.extended_ensemble(e, assignment)
    monkeypatch.setattr(linalg, "ELEMENT_BUDGET", counts["extended ensemble"] - 1)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionGuardError, match="extended ensemble"):
            extopt.extended_ensemble(e, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def _guard_counts(monkeypatch) -> dict:
    """Records the largest count each element guard checks, by what it counts."""
    counts = {}
    check = linalg.check_limit

    def recording(count, what, limit=None):
        if limit is None:
            key = what.removeprefix("elements of the ")
            counts[key] = max(count, counts.get(key, 0))
        check(count, what, limit)

    monkeypatch.setattr(linalg, "check_limit", recording)
    return counts


@pytest.mark.parametrize("dim, ancilla, purifier, block", [
    (4, 4, None, 3),  # default purifier: the N n^2 parameter vectors dominate
    (16, 16, 1, 2),  # pure extensions: the N (da)^2 extension products dominate
])
def test_guard_counts_bound_traced_peaks(monkeypatch, dim, ancilla, purifier, block):
    # each element guard counts at least the complex elements (16 bytes) its
    # call holds at its traced peak, with a full L-BFGS history, give or take
    # 16 KiB of Python objects
    rng = np.random.default_rng(5)
    e = Ensemble([0.5, 0.5], tuple(rand_density(rng, dim) for _ in range(2)))
    counts = _guard_counts(monkeypatch)
    cfg = extopt.OptimizerConfig(multistarts=2, max_iters=15, seed=3, ancilla_dim=ancilla,
                                 purifier_dim=purifier)
    assignment = extopt.trivial_assignment(e, ancilla, purifier)
    calls = {
        "minimizer working set": lambda: extopt.minimize_extension_entropy(e, cfg),
        "trivial assignment": lambda: extopt.trivial_assignment(e, ancilla, purifier),
        "extended ensemble": lambda: extopt.extended_ensemble(e, assignment),
        "product ensemble": lambda: states.product_ensemble(e, block),
    }
    for what, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 16 * counts[what] + 2 ** 14 >= peak, what
