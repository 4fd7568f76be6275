"""Uhlmann fidelity, purifications and the fidelity-preserving extension map.

Fidelity uses the squared convention F = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2
throughout.  With F_rho the rank-k eigen-factor of rho (F_rho F_rho^dag = rho,
``linalg.psd_factor``), it is computed as ||F_rho^dag F_sigma||_1^2: the
singular values of sqrt(rho) sqrt(sigma), with no matrix square root and the
same identity as the protocol kernel.  The nested-sqrt form is kept as an
independent oracle in the test suite.

A purification of rho on system (x) purifier is stored through its amplitude
matrix A (system dim x purifier dim) with A A^dag = rho.  With F = F_rho,
all purifications with an r-dimensional purifier arise as A = F U, U a k x r
matrix with orthonormal rows.  The Uhlmann optimum takes U as the polar factor
of the cross operator F^dag A' to the other purification.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .states import DensityMatrix, _system_factors

NORM_ATOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Unit vector with a tensor factorization of its space."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        a = linalg._as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", a)
        dims = tuple(linalg._index(d, "factor dimension", 1) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if int(np.prod(dims)) != a.size:
            raise ValidationError(
                f"factor dims {dims} do not multiply to length {a.size}"
            )
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state vector norm {nrm} is not 1 within {NORM_ATOL:g}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.factor_dims)


def _fix_global_phase(vec: np.ndarray) -> np.ndarray:
    """Make the first nonzero amplitude real positive (deterministic output).

    Amplitudes within rounding of zero, size * eps of the largest, are skipped.
    """
    mag = np.abs(vec)
    idx = np.flatnonzero(mag > mag.max() * vec.size * np.finfo(float).eps)
    if idx.size == 0:
        return vec
    a = vec[idx[0]]
    return vec * (a.conjugate() / abs(a))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity of two density matrices, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValidationError(
            f"dimension mismatch: {rho.dim} vs {sigma.dim}"
        )
    cross = linalg.psd_factor(*rho._psd_eig).conj().T @ linalg.psd_factor(*sigma._psd_eig)
    return min(linalg._trace_norm(cross) ** 2, 1.0)


def canonical_purification(rho: DensityMatrix) -> PureState:
    """Eigenbasis purification sum_k sqrt(l_k) |v_k> (x) |k>.

    The purifier is a full extra copy of the system space (dimension d, not
    rank), appended as the last tensor factor.  Tracing it out reproduces the
    input.
    """
    w, v = rho._psd_eig
    vec = _fix_global_phase((v * np.sqrt(w)).reshape(-1))
    return PureState(vec, rho.factor_dims + (rho.dim,))


def optimal_purification(rho: DensityMatrix, phi_prime: PureState) -> PureState:
    """Purification of ``rho`` maximizing overlap with ``phi_prime``.

    ``phi_prime`` lives on system (x) purifier where the system factor has
    the dimension of ``rho``; the purifier is everything after it.  The
    achieved squared overlap equals F(rho, reduced state of phi_prime).

    With X S Yh the thin SVD of the k x r cross operator F^dag A', the
    amplitude matrix is A = F X Yh: Yh has k orthonormal rows, so
    A A^dag = rho and <A', A> = Tr S = ||F^dag A'||_1.
    """
    d = rho.dim
    if phi_prime.dim % d != 0:
        raise ValidationError(
            f"purification dim {phi_prime.dim} is not a multiple of system dim {d}"
        )
    r = phi_prime.dim // d
    a_prime = phi_prime.amplitudes.reshape(d, r)
    f = linalg.psd_factor(*rho._psd_eig)  # d x rank
    if r < f.shape[1]:
        raise ValidationError(
            f"purifier dim {r} is smaller than rank {f.shape[1]} of the state"
        )
    x, _, yh = np.linalg.svd(f.conj().T @ a_prime, full_matrices=False)
    amps = f @ x @ yh  # d x r
    vec = _fix_global_phase(amps.reshape(-1))
    return PureState(vec, rho.factor_dims + (r,))


def lemma_extension(rho: DensityMatrix, rho_prime_ext: DensityMatrix) -> DensityMatrix:
    """Extension of ``rho`` matching the fidelity of the given extension.

    Given rho on the system space and rho_prime_ext on system (x) ancilla,
    whose factor dims start with those of rho, returns rho_ext with the
    factor dims of rho_prime_ext and

    * Tr_anc(rho_ext) = rho, and
    * F(rho_ext, rho_prime_ext) = F(rho, Tr_anc(rho_prime_ext)).

    Construction: purify rho_prime_ext, view the result as a purification of
    Tr_anc(rho_prime_ext) with purifier ancilla (x) purifier, take the
    Uhlmann-optimal purification of rho against it, trace the purifier.
    """
    _system_factors(rho_prime_ext, rho)
    phi = optimal_purification(rho, canonical_purification(rho_prime_ext))
    amps = phi.amplitudes.reshape(rho_prime_ext.dim, rho_prime_ext.dim)
    return DensityMatrix(amps @ amps.conj().T, rho_prime_ext.factor_dims)
