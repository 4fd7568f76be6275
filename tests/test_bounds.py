import numpy as np
import pytest

from enscomp import bounds, extopt, linalg, protocol, reference, states
from enscomp.errors import BoundViolationError, ValidationError
from enscomp.states import DensityMatrix, Ensemble

from conftest import rand_density, rand_ensemble


def orthogonal_pure_pair():
    return Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)), DensityMatrix(np.diag([0.0, 1.0]), (2,))),
    )


def test_holevo_bound_check_cases(rng):
    rep = bounds.holevo_bound_check(orthogonal_pure_pair(), 1.0)
    assert rep.satisfied and abs(rep.slack) < 1e-12

    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    pair = Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)),
         DensityMatrix(np.outer(plus, plus), (2,))),
    )
    rep = bounds.holevo_bound_check(pair, 0.65)
    assert rep.satisfied
    assert abs(rep.lhs - states.von_neumann_entropy(states.ensemble_density(pair))) < 1e-9

    single = Ensemble([1.0], (rand_density(rng, 3),))
    assert bounds.holevo_bound_check(single, 0.0).satisfied

    bad = bounds.holevo_bound_check(orthogonal_pure_pair(), 0.5)
    assert not bad.satisfied and bad.slack < 0


def skew_source() -> Ensemble:
    """{0.999: |0>, 0.001: |1>}: chi = h(0.001), F = 0.999 at rate 0 for n = 1."""
    return Ensemble([0.999, 0.001], orthogonal_pure_pair().states)


@pytest.mark.parametrize("rate", [0.0, 0.25, 1.0 / 3.0, 1.7])
@pytest.mark.parametrize("signals", [1, 5, 4000])
def test_holevo_converse_at_unit_fidelity_is_the_rate(rate, signals):
    # g_D(0) = 0, so F = 1 (the default) checks chi <= R exactly, at any D
    e = reference.zero_plus_pair()
    assert bounds.holevo_bound_check(e, rate, 1.0, signals).rhs == rate
    assert bounds.holevo_bound_check(e, rate).rhs == rate


def test_holevo_converse_known_value():
    # n = 1, D = 2: T = sqrt(0.001) <= 1/2, so the rhs is 0 + 2 h(T)
    rep = bounds.holevo_bound_check(skew_source(), 0.0, 0.999)
    t = np.sqrt(0.001)
    assert rep.name == "holevo_rate" and rep.satisfied
    assert abs(rep.lhs - -(0.999 * np.log2(0.999) + 0.001 * np.log2(0.001))) < 1e-12
    assert abs(rep.rhs - -2 * (t * np.log2(t) + (1 - t) * np.log2(1 - t))) < 1e-12
    # D = 2^4000 is read as an int: T > 1 - 1/D gives log2 D per signal, and
    # a fidelity rounded past 1 reads as T = 0
    assert bounds.holevo_bound_check(skew_source(), 0.0, 0.0, 4000).rhs == 2.0
    assert bounds.holevo_bound_check(skew_source(), 0.5, 1.0 + 1e-12, 3).rhs == 0.5


def test_holevo_converse_holds_on_random_exact_runs():
    # R >= chi - 2 g_D(sqrt(1 - F)) / n is a theorem at every F: on random
    # small sources, every cap, exact JS runs and trivial-assignment EP runs
    rng = np.random.default_rng(30)
    checked = low = 0
    for _ in range(12):
        d, count = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        e = rand_ensemble(rng, d, count, pure=bool(rng.integers(2)))
        n = int(rng.integers(1, 4 if d == 2 else 3))
        rank = states.support_dim(states.ensemble_density(e))
        for cap in sorted({1, int(rng.integers(1, rank ** n + 1)), rank ** n}):
            res = protocol.js_protocol(e, n, dim_cap=cap, sampling="exact")
            rep = bounds.holevo_bound_check(e, res.rate, res.avg_fidelity, n)
            assert rep.satisfied, (d, count, n, cap, rep)
            checked, low = checked + 1, low + (res.avg_fidelity < 0.99)
        assignment = extopt.trivial_assignment(e, 2, 2)
        for k in (1, 2):
            res = protocol.extension_protocol(e, 1, assignment, k, dim_cap=max(1, cap // 2),
                                              sampling="exact")
            rep = bounds.holevo_bound_check(e, res.rate, res.avg_fidelity, res.block_length)
            assert rep.satisfied, (d, count, k, rep)
            checked, low = checked + 1, low + (res.avg_fidelity < 0.99)
    assert checked >= 50 and low >= 20  # most runs lie below the old 0.99 gate


def test_entropy_continuity_identity(rng):
    rho = rand_density(rng, 2)
    rep = bounds.entropy_continuity_check(rho, rho)
    assert rep.applicable and rep.satisfied
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_entropy_continuity_identity_sweep(rng):
    # rho - rho is exactly zero, so T = 0 and the sharp bound's rhs is exactly 0
    for d in (2, 3, 5, 8):
        for _ in range(50):
            rho = rand_density(rng, d)
            rep = bounds.entropy_continuity_check(rho, rho)
            assert rep.applicable and rep.rhs == 0.0 and rep.satisfied


def test_entropy_continuity_known_value():
    # T = 0.01 on a qubit: the rhs is h(0.01), which the pair attains
    rho = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    rho_t = DensityMatrix(np.diag([0.99, 0.01]), (2,))
    rep = bounds.entropy_continuity_check(rho, rho_t)
    assert rep.applicable and rep.satisfied
    h = -(0.99 * np.log2(0.99) + 0.01 * np.log2(0.01))
    assert abs(rep.lhs - h) < 1e-12
    assert abs(rep.rhs - h) < 1e-12


def test_entropy_continuity_orthogonal_pair_saturates():
    # T = 1 lies above 1 - 1/D, where the rhs is log2 D; it applies at every T
    a = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    b = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    rep = bounds.entropy_continuity_check(a, b)
    assert rep.applicable and rep.satisfied
    assert rep.lhs == 0.0 and abs(rep.rhs - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_entropy_continuity_equality_case(monkeypatch, d):
    # rho = |0><0| and sigma = (1 - T)|0><0| + T/(D - 1)(I - |0><0|) attain the
    # bound: S(sigma) = T log2(D - 1) + h(T) and ||rho - sigma||_1 / 2 = T
    rho = DensityMatrix(np.diag([1.0] + [0.0] * (d - 1)), (d,))
    for t in (0.01, 0.2, 0.4, 1.0 - 1.0 / d):
        sigma = DensityMatrix(np.diag([1.0 - t] + [t / (d - 1)] * (d - 1)), (d,))
        rep = bounds.entropy_continuity_check(rho, sigma)
        h = -(t * np.log2(t) + (1.0 - t) * np.log2(1.0 - t))
        assert abs(rep.rhs - (t * np.log2(d - 1) + h)) < 1e-12
        assert rep.applicable and rep.satisfied and abs(rep.slack) < 1e-12
    # so an entropy off by more than ATOL fails the check, on a qubit too
    real = bounds.von_neumann_entropy
    monkeypatch.setattr(bounds, "von_neumann_entropy", lambda r: real(r) + 1e-6 * (r is sigma))
    assert not bounds.entropy_continuity_check(rho, sigma).satisfied


def test_entropy_continuity_random_sweep(rng):
    for d in (2, 3, 4):
        for _ in range(100):
            rho = rand_density(rng, d, rank=int(rng.integers(1, d + 1)))
            mix = rand_density(rng, d)
            t = rng.uniform(0.0, 1.0)
            rho_t = DensityMatrix((1 - t) * rho.matrix + t * mix.matrix, (d,))
            rep = bounds.entropy_continuity_check(rho, rho_t)
            assert rep.applicable and rep.satisfied


def test_entropy_continuity_dimension_mismatch(rng):
    with pytest.raises(ValidationError, match="dimension mismatch"):
        bounds.entropy_continuity_check(rand_density(rng, 2), rand_density(rng, 3))


def test_ancilla_cap_values():
    assert bounds.ancilla_cap(1, 2) == 4
    assert bounds.ancilla_cap(2, 2) == 16
    assert bounds.ancilla_cap(1, 3) == 9
    assert bounds.ancilla_cap(4, 8) == 8 ** 8  # no clamp: the minimizer's guard decides


@pytest.mark.parametrize("n, dim_q", [(0, 2), (2, 0), (-1, 3)])
def test_ancilla_cap_rejects_non_positive(n, dim_q):
    # inside the package's error hierarchy, so the CLI maps it to exit 2
    with pytest.raises(ValidationError, match="must be positive"):
        bounds.ancilla_cap(n, dim_q)


def test_enforce_raises_only_for_applicable_violations():
    ok = bounds.BoundReport("ok", 1.0, 2.0)
    moot = bounds.BoundReport("moot", 3.0, 2.0, applicable=False)
    bad = bounds.BoundReport("bad", 3.0, 2.0)
    bounds.enforce([ok, moot])
    bounds.enforce([])
    with pytest.raises(BoundViolationError) as exc:
        bounds.enforce([ok, bad, moot])
    assert str(exc.value) == "bound bad violated: lhs=3.0 rhs=2.0"


def test_envelope_check_cases(rng):
    single = Ensemble([1.0], (rand_density(rng, 2),))
    assert bounds.envelope_check(single, 1e-6).satisfied

    a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    pair = Ensemble([0.5, 0.5], (DensityMatrix(a, (4,)), DensityMatrix(b, (4,))))
    rep = bounds.envelope_check(pair, 1.0)
    assert rep.satisfied
    assert not bounds.envelope_check(pair, 0.9).satisfied  # below I_LH = 1
    assert not bounds.envelope_check(pair, 2.1).satisfied  # above S = 2

    pure = rand_ensemble(rng, 2, 2, pure=True)
    s = states.von_neumann_entropy(states.ensemble_density(pure))
    assert bounds.envelope_check(pure, s).satisfied


def test_envelope_check_builds_the_density_once(monkeypatch):
    builds = []
    build = states.ensemble_density

    def recorded(e):
        builds.append(e)
        return build(e)

    monkeypatch.setattr(states, "ensemble_density", recorded)
    monkeypatch.setattr(bounds, "ensemble_density", recorded)
    pair = reference.orthogonal_pair()
    rep = bounds.envelope_check(pair, 1.0)
    assert len(builds) == 1
    assert (rep.lhs, rep.satisfied) == (0.0, True)  # I_LH = 1 = best, S = 2


def test_bound_report_consistency_guard():
    # satisfied and slack are derived from lhs and rhs, so no report can
    # contradict them, and neither can be passed in
    bad = bounds.BoundReport("x", lhs=2, rhs=np.float64(1.0))
    assert (bad.lhs, bad.rhs, bad.satisfied, bad.slack) == (2.0, 1.0, False, -1.0)
    assert type(bad.lhs) is float and type(bad.rhs) is float
    assert bounds.BoundReport("x", 1.0 + linalg.ATOL / 2, 1.0).satisfied
    moot = bounds.BoundReport("x", 2.0, 1.0, applicable=False)
    assert (moot.satisfied, moot.slack) == (True, -1.0)
    assert sorted(vars(bad)) == ["applicable", "lhs", "name", "rhs", "satisfied", "slack"]
    with pytest.raises(TypeError):
        bounds.BoundReport("x", lhs=2.0, rhs=1.0, satisfied=True, slack=-1.0)
