import numpy as np
import pytest

from enscomp import bounds, states
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


def test_entropy_continuity_identity(rng):
    rho = rand_density(rng, 2)
    rep = bounds.entropy_continuity_check(rho, rho)
    assert rep.applicable and rep.satisfied
    assert rep.lhs < 1e-9 and abs(rep.rhs - 1.0) < 1e-9


def test_entropy_continuity_known_value():
    rho = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    rho_t = DensityMatrix(np.diag([0.99, 0.01]), (2,))
    rep = bounds.entropy_continuity_check(rho, rho_t)
    assert rep.applicable and rep.satisfied
    h = -(0.99 * np.log2(0.99) + 0.01 * np.log2(0.01))
    assert abs(rep.lhs - h) < 1e-9
    assert abs(rep.rhs - 1.2) < 1e-9


def test_entropy_continuity_not_applicable():
    a = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    b = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    rep = bounds.entropy_continuity_check(a, b)
    assert not rep.applicable and rep.satisfied


def test_entropy_continuity_random_sweep(rng):
    checked = 0
    while checked < 200:
        rho = rand_density(rng, 2)
        mix = rand_density(rng, 2)
        t = rng.uniform(0.0, 0.05)
        rho_t = DensityMatrix((1 - t) * rho.matrix + t * mix.matrix, (2,))
        rep = bounds.entropy_continuity_check(rho, rho_t)
        if not rep.applicable:
            continue
        assert rep.satisfied
        checked += 1


def test_ancilla_cap_values():
    assert bounds.ancilla_cap(1, 2) == 4
    assert bounds.ancilla_cap(2, 2) == 16
    assert bounds.ancilla_cap(1, 3) == 9
    assert bounds.ancilla_cap(4, 8) == 8 ** 8  # no clamp: the minimizer's guard decides


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


def test_bound_report_consistency_guard():
    with pytest.raises(ValueError):
        bounds.BoundReport("x", lhs=2.0, rhs=1.0, satisfied=True, slack=-1.0)
