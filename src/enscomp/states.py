"""Density matrices, ensembles, entropies and the Holevo quantity.

All entropies are in bits (log base 2), matching the qubits-per-signal rate
accounting used by the protocol module.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ValidationError

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
    # linalg.psd_eig(matrix), read-only: the one eigendecomposition of a state
    _psd_eig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = linalg._as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        dims = tuple(linalg._index(d, "factor dimension", 1) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        if int(np.prod(dims)) != m.shape[0]:
            raise ValidationError(
                f"factor dims {dims} do not multiply to dimension {m.shape[0]}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > linalg.ATOL:
            raise ValidationError(
                f"density matrix trace {tr} is not 1 within {linalg.ATOL:g}"
            )
        w, v = linalg.psd_eig(m)  # rejects non-Hermitian and non-PSD matrices
        w.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "_psd_eig", (w, v))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _system_factors(rho_ext: DensityMatrix, rho: DensityMatrix) -> range:
    """Indices of the system factors of an extension of ``rho``.

    The extension's factor dims must start with those of ``rho``; the rest
    are its ancilla factors.
    """
    n_sys = len(rho.factor_dims)
    if rho_ext.factor_dims[:n_sys] != rho.factor_dims:
        raise ValidationError(
            f"extension factor dims {rho_ext.factor_dims} do not start "
            f"with system dims {rho.factor_dims}"
        )
    return range(n_sys)


@dataclass(frozen=True)
class Ensemble:
    """Probability vector paired with equal-dimension density matrices."""

    probs: np.ndarray
    states: tuple[DensityMatrix, ...] = field(default_factory=tuple)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "states", tuple(self.states))
        if p.ndim != 1 or len(p) != len(self.states) or len(p) == 0:
            raise ValidationError("probs and states must have equal nonzero length")
        if not np.isfinite(p).all():
            raise ValidationError(f"probabilities must be finite, got {p.tolist()}")
        if np.any(p < -1e-15):
            raise ValidationError("probabilities must be nonnegative")
        # tolerated negatives are rounding and store as 0, like psd_eig's clip
        p = np.clip(p, 0.0, None)
        object.__setattr__(self, "probs", p)
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
    # a pure spectrum rounded above 1 would give a tiny negative sum, and an
    # empty one -0.0: both report as 0.0
    return max(0.0, float(-(w * np.log2(w)).sum()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_k lambda_k log2 lambda_k, in bits."""
    return entropy_of_eigenvalues(rho._psd_eig[0][::-1])  # summed ascending, as eigvalsh gave


def holevo_quantity(e: Ensemble) -> float:
    """S(sum_i p_i rho_i) - sum_i p_i S(rho_i), in bits."""
    return _holevo_quantity(e, von_neumann_entropy(ensemble_density(e)))


def _holevo_quantity(e: Ensemble, density_entropy: float) -> float:
    """holevo_quantity(e) given S(sum_i p_i rho_i) as ``density_entropy``."""
    chi = density_entropy
    for p, s in zip(e.probs, e.states):
        if p > 0:
            chi -= p * von_neumann_entropy(s)
    return float(chi)


def support_dim(rho: DensityMatrix) -> int:
    """Number of eigenvalues above ``SUPPORT_EIG_FLOOR``."""
    return int(np.sum(rho._psd_eig[0] > SUPPORT_EIG_FLOOR))


def product_ensemble(e0: Ensemble, n: int) -> Ensemble:
    """n-fold product source: all tensor products with product probabilities.

    Multi-indices are enumerated in lexicographic order, matching the
    sequence order used by the protocol simulators.
    """
    n = linalg._index(n, "block length", 1)
    if n == 1:
        return e0
    # |e|^n states of dimension d^n, each a matrix and its kept eigenvectors,
    # and two states' worth of Kronecker and eigh copies while one is built
    linalg.check_limit(2 * (len(e0) ** n + 2) * e0.dim ** (2 * n),
                       "elements of the product ensemble")
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
