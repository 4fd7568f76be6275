"""Canonical reference ensembles used in docs, examples and tests."""

import numpy as np

from .states import DensityMatrix, Ensemble


def orthogonal_pair() -> Ensemble:
    """Two equiprobable rank-2 states with orthogonal supports in dim 4.

    Holevo quantity 1 bit, ensemble entropy 2 bits; the optimal extension
    assignment purifies each state, reaching entropy exactly 1 bit.
    """
    a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    return Ensemble(
        [0.5, 0.5], (DensityMatrix(a, (4,)), DensityMatrix(b, (4,)))
    )


def zero_plus_pair() -> Ensemble:
    """Equiprobable pure qubit pair |0> and |+>; entropy ~ 0.600876 bits."""
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus_vec = np.array([1.0, 1.0]) / np.sqrt(2.0)
    plus = np.outer(plus_vec, plus_vec).astype(complex)
    return Ensemble([0.5, 0.5], (DensityMatrix(zero, (2,)), DensityMatrix(plus, (2,))))


def biased_qubit() -> Ensemble:
    """Single mixed signal diag(0.9, 0.1); the classic binomial JS source."""
    return Ensemble([1.0], (DensityMatrix(np.diag([0.9, 0.1]).astype(complex), (2,)),))
