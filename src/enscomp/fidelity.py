"""Uhlmann fidelity, purifications and the fidelity-preserving extension map.

Fidelity uses the squared convention F = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2
throughout.  It is computed as the squared trace norm of sqrt(rho) sqrt(sigma),
which is the same number but better conditioned; the nested-sqrt form is kept
as an independent oracle in the test suite.

A purification of rho on system (x) purifier is stored through its amplitude
matrix A (system dim x purifier dim) with A A^dag = rho.  All purifications
with a fixed purifier arise as A = A0 W^dag where A0 is the canonical
(eigenbasis) amplitude matrix and W is a partial isometry on the purifier.
The Uhlmann optimum aligns W with the polar/SVD decomposition of the cross
operator between the two purifications.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .states import DensityMatrix

NORM_ATOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Unit vector with a tensor factorization of its space."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "amplitudes", a)
        dims = tuple(int(d) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if int(np.prod(dims)) != a.size:
            raise ValidationError(
                f"factor dims {dims} do not multiply to length {a.size}"
            )
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state vector norm {nrm} is not 1 within 1e-10")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self, factor_dims=None) -> DensityMatrix:
        dims = self.factor_dims if factor_dims is None else tuple(factor_dims)
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), dims)


def _fix_global_phase(vec: np.ndarray) -> np.ndarray:
    """Make the first nonzero amplitude real positive (deterministic output)."""
    idx = np.flatnonzero(np.abs(vec) > 1e-14)
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
    root = linalg.psd_sqrt(rho.matrix) @ linalg.psd_sqrt(sigma.matrix)
    val = float(np.sum(linalg.singular_values(root)) ** 2)
    return min(max(val, 0.0), 1.0)


def canonical_purification(rho: DensityMatrix) -> PureState:
    """Eigenbasis purification sum_k sqrt(l_k) |v_k> (x) |k>.

    The purifier is a full extra copy of the system space (dimension d, not
    rank), appended as the last tensor factor.  Tracing it out reproduces the
    input.
    """
    amps = _canonical_amplitude_matrix(rho.matrix)
    vec = _fix_global_phase(amps.reshape(-1))
    return PureState(vec, rho.factor_dims + (rho.dim,))


def _canonical_amplitude_matrix(rho_matrix: np.ndarray) -> np.ndarray:
    dec = linalg.hermitian_eig(rho_matrix)
    w = np.clip(dec.eigenvalues, 0.0, None)
    return dec.eigenvectors * np.sqrt(w)


def _amplitude_matrix(phi: PureState, system_dim: int) -> np.ndarray:
    if phi.dim % system_dim != 0:
        raise ValidationError(
            f"purification dim {phi.dim} is not a multiple of system dim {system_dim}"
        )
    return phi.amplitudes.reshape(system_dim, phi.dim // system_dim)


def _aligned_partial_isometry(cross: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Polar-align ``cross`` (r x d), keeping the given purifier-support columns.

    Returns W (r x d) with Tr(W^dag cross) = ||cross||_1 and
    W^dag W covering the columns flagged in ``support`` (needed so that the
    rotated amplitude matrix still purifies the full state, not just the part
    seen by the cross operator).
    """
    r, d = cross.shape
    x, sig, yh = np.linalg.svd(cross)
    y = yh.conj().T
    k = min(r, d)
    rank = int(np.sum(sig > max(1.0, sig[0] if sig.size else 0.0) * 1e-13))
    y_cols = [y[:, j] for j in range(rank)]
    x_cols = [x[:, j] for j in range(rank)]
    # Zero singular directions are free; spend them on uncovered support
    # directions so that W^dag W >= support projector.
    for j in np.flatnonzero(support):
        if len(y_cols) == k:
            break
        v = np.zeros(d, dtype=np.complex128)
        v[j] = 1.0
        for u in y_cols:
            v -= u * (u.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-7:
            y_cols.append(v / nrm)
    for j in range(rank, len(y_cols)):
        # pair each extra right vector with an unused left singular vector
        x_cols.append(x[:, j])
    yk = np.column_stack(y_cols)
    xk = np.column_stack(x_cols)
    return xk @ yk.conj().T


def optimal_purification(rho: DensityMatrix, phi_prime: PureState) -> PureState:
    """Purification of ``rho`` maximizing overlap with ``phi_prime``.

    ``phi_prime`` lives on system (x) purifier where the system factor has
    the dimension of ``rho``; the purifier is everything after it.  The
    achieved squared overlap equals F(rho, reduced state of phi_prime).
    """
    d = rho.dim
    a_prime = _amplitude_matrix(phi_prime, d)
    r = a_prime.shape[1]
    dec = linalg.hermitian_eig(rho.matrix)
    w = np.clip(dec.eigenvalues, 0.0, None)
    rank = int(np.sum(w > 1e-14))
    if r < rank:
        raise ValidationError(
            f"purifier dim {r} is smaller than rank {rank} of the state"
        )
    a0 = dec.eigenvectors * np.sqrt(w)  # canonical amplitude matrix, d x d
    cross = a_prime.conj().T @ a0  # r x d
    support = w > 1e-14
    wmat = _aligned_partial_isometry(cross, support)
    amps = a0 @ wmat.conj().T  # d x r
    vec = _fix_global_phase(amps.reshape(-1))
    return PureState(vec, rho.factor_dims + (r,))


def lemma_extension(
    rho: DensityMatrix,
    rho_prime_ext: DensityMatrix,
    system_dims,
    ancilla_dims,
) -> DensityMatrix:
    """Extension of ``rho`` matching the fidelity of the given extension.

    Given rho on the system space and rho_prime_ext on system (x) ancilla,
    returns rho_ext on system (x) ancilla with

    * Tr_anc(rho_ext) = rho, and
    * F(rho_ext, rho_prime_ext) = F(rho, Tr_anc(rho_prime_ext)).

    Construction: purify rho_prime_ext, view the result as a purification of
    Tr_anc(rho_prime_ext) with purifier ancilla (x) purifier, take the
    Uhlmann-optimal purification of rho against it, trace the purifier.
    """
    system_dims = tuple(int(d) for d in system_dims)
    ancilla_dims = tuple(int(d) for d in ancilla_dims)
    d_sys = int(np.prod(system_dims))
    d_anc = int(np.prod(ancilla_dims))
    if rho.dim != d_sys:
        raise ValidationError(f"rho dim {rho.dim} != system dims product {d_sys}")
    if rho_prime_ext.dim != d_sys * d_anc:
        raise ValidationError(
            f"extension dim {rho_prime_ext.dim} != system*ancilla {d_sys * d_anc}"
        )
    phi_prime = canonical_purification(rho_prime_ext)
    # same vector, re-grouped as (system) x (ancilla * purifier)
    phi_prime_grouped = PureState(
        phi_prime.amplitudes, (d_sys, d_anc * rho_prime_ext.dim)
    )
    phi = optimal_purification(rho, phi_prime_grouped)
    amps = phi.amplitudes.reshape(d_sys * d_anc, rho_prime_ext.dim)
    ext = amps @ amps.conj().T
    return DensityMatrix(ext, system_dims + ancilla_dims)
