"""Density matrices, ensembles, entropies and the Holevo quantity.

All entropies are in bits (log base 2), matching the qubits-per-signal rate
accounting used by the protocol module.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionGuardError, ValidationError

TRACE_ATOL = 1e-9
# 0 * log 0 = 0: eigenvalues at or below this floor do not enter entropy sums
ENTROPY_EIG_FLOOR = 1e-12
# eigenvalues above this count towards a state's support dimension
SUPPORT_EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Validated unit-trace PSD Hermitian matrix with a tensor factorization.

    ``factor_dims`` records how the Hilbert space splits into tensor factors
    (slow index first); its product must equal the matrix dimension.
    """

    matrix: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        m = linalg._as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        dims = tuple(int(d) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        if any(d <= 0 for d in dims):
            raise ValidationError("factor dimensions must be positive")
        if int(np.prod(dims)) != m.shape[0]:
            raise ValidationError(
                f"factor dims {dims} do not multiply to dimension {m.shape[0]}"
            )
        if not linalg.is_hermitian(m):
            raise ValidationError(
                f"density matrix is not Hermitian within {linalg.HERMITIAN_ATOL:g}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(
                f"density matrix trace {tr} is not 1 within {TRACE_ATOL:g}"
            )
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if w[0] < -linalg.PSD_ATOL:
            raise ValidationError(
                f"density matrix has negative eigenvalue {w[0]:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Ensemble:
    """Probability vector paired with equal-dimension density matrices."""

    probs: np.ndarray
    states: tuple[DensityMatrix, ...] = field(default_factory=tuple)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "states", tuple(self.states))
        if p.ndim != 1 or len(p) != len(self.states) or len(p) == 0:
            raise ValidationError("probs and states must have equal nonzero length")
        if np.any(p < -1e-15):
            raise ValidationError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"probability sum {p.sum()} is not 1 within 1e-12")
        dims0 = self.states[0].factor_dims
        for k, s in enumerate(self.states):
            if s.factor_dims != dims0:
                raise ValidationError(
                    f"state {k} has factor dims {s.factor_dims}, expected {dims0}"
                )

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def ensemble_density(e: Ensemble) -> DensityMatrix:
    """Density matrix of the ensemble, sum_i p_i rho_i."""
    acc = np.zeros((e.dim, e.dim), dtype=np.complex128)
    for p, s in zip(e.probs, e.states):
        acc += p * s.matrix
    return DensityMatrix(acc, e.states[0].factor_dims)


def entropy_of_eigenvalues(evals) -> float:
    w = np.asarray(evals, dtype=float)
    w = w[w > ENTROPY_EIG_FLOOR]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_k lambda_k log2 lambda_k, in bits."""
    w = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2.0)
    return entropy_of_eigenvalues(w)


def holevo_quantity(e: Ensemble) -> float:
    """S(sum_i p_i rho_i) - sum_i p_i S(rho_i), in bits."""
    chi = von_neumann_entropy(ensemble_density(e))
    for p, s in zip(e.probs, e.states):
        if p > 0:
            chi -= p * von_neumann_entropy(s)
    return float(chi)


def support_dim(rho: DensityMatrix) -> int:
    """Number of eigenvalues above ``SUPPORT_EIG_FLOOR``."""
    w = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2.0)
    return int(np.sum(w > SUPPORT_EIG_FLOOR))


# product_ensemble materializes |e|^n matrices of dimension dim^n each;
# cap the total element count, not just the dimension.
PRODUCT_ELEMENT_BUDGET = 2 ** 26


def product_ensemble(e0: Ensemble, n: int) -> Ensemble:
    """n-fold product source: all tensor products with product probabilities.

    Multi-indices are enumerated in lexicographic order, matching the
    sequence order used by the protocol simulators.
    """
    if n < 1:
        raise ValidationError("block length must be >= 1")
    if n == 1:
        return e0
    dim_n = e0.dim ** n
    linalg.check_dim_guard(dim_n)
    count = len(e0) ** n
    if count * dim_n * dim_n > PRODUCT_ELEMENT_BUDGET:
        raise DimensionGuardError(
            f"product ensemble would hold {count} states of dim {dim_n}; "
            "use the protocol simulators instead of materializing it"
        )
    dims = e0.states[0].factor_dims * n
    probs = []
    states = []
    for idx in itertools.product(range(len(e0)), repeat=n):
        probs.append(float(np.prod([e0.probs[i] for i in idx])))
        states.append(
            DensityMatrix(
                linalg.kron_all([e0.states[i].matrix for i in idx]), dims
            )
        )
    p = np.array(probs)
    return Ensemble(p / p.sum(), tuple(states))
