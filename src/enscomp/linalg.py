"""Dense complex linear algebra backbone.

Conventions used throughout the package:

* tensor factors are ordered left = most significant (slow index), so
  ``tensor_product(a, b)`` places ``a`` on the slow index;
* matrices are plain complex ``np.ndarray`` values and are never mutated.
"""

from typing import NamedTuple

import numpy as np

from .errors import DimensionGuardError, ValidationError

# Desk-scale protection against accidental exponential blowup.  Module-level
# so callers can raise it deliberately for a big run.
MAX_DIM = 2 ** 14

HERMITIAN_ATOL = 1e-9

# The PSD spectral policy, applied by ``psd_eig`` alone: eigenvalues in
# [-PSD_ATOL, 0) are rounding and clip to zero, anything below -PSD_ATOL is a
# genuine PSD violation, and eigenvalues at or below RANK_RTOL times the
# largest are eigh noise and are zeroed, so they never reach a sqrt.
PSD_ATOL = 1e-9
RANK_RTOL = 1e-14


class EigDecomposition(NamedTuple):
    """Hermitian eigendecomposition with eigenvalues sorted descending.

    ``eigenvectors`` holds the eigenvectors as columns, so
    ``V @ diag(w) @ V.conj().T`` reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def check_dim_guard(dim: int) -> None:
    """Raise DimensionGuardError if ``dim`` exceeds ``MAX_DIM``."""
    if dim > MAX_DIM:
        raise DimensionGuardError(
            f"dimension {dim} exceeds the configured guard {MAX_DIM}"
        )


def _as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the left factor on the slow index."""
    a = _as_complex(a)
    b = _as_complex(b)
    check_dim_guard(a.shape[0] * b.shape[0])
    check_dim_guard(a.shape[-1] * b.shape[-1])
    return np.kron(a, b)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValidationError("kron_all needs at least one factor")
    out = _as_complex(mats[0])
    for m in mats[1:]:
        out = tensor_product(out, m)
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors except those listed in ``keep``.

    ``dims`` is the factor dimension list (slow index first); ``keep`` is a
    nonempty collection of factor indices.  The kept factors stay in their
    original relative order.  Preserves the trace exactly up to rounding.
    """
    m = _as_complex(m)
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValidationError("factor dimensions must be positive")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValidationError(
            f"matrix shape {m.shape} does not match factor dims {dims}"
        )
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise ValidationError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValidationError(f"keep indices {keep} out of range for {dims}")

    n = len(dims)
    t = m.reshape(dims + dims)
    # einsum: traced factors share a letter between row and column slots
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n > len(letters):
        raise ValidationError("too many tensor factors")
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    res = np.einsum("".join(row + col) + "->" + out, t)
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return res.reshape(kept_dim, kept_dim)


def is_hermitian(m) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[-1] and np.max(np.abs(m - m.conj().T)) <= HERMITIAN_ATOL


def hermitian_eig(h) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    h = _as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if dev > HERMITIAN_ATOL:
        raise ValidationError(
            f"matrix is not Hermitian (max deviation {dev:.3e} > {HERMITIAN_ATOL:.1e})"
        )
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return EigDecomposition(w[order].astype(float), v[:, order])


def psd_eig(p) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a PSD matrix under the spectral policy, w descending.

    Raises ValidationError below -PSD_ATOL; every returned eigenvalue is >= 0,
    and those at or below RANK_RTOL * max(w) are exactly 0.  Without that cut,
    sqrt() would inflate eigh noise of order 1e-17 into spurious 1e-9
    directions that pollute trace norms and purifications downstream.
    """
    dec = hermitian_eig(p)
    w = dec.eigenvalues
    if w.size and w[-1] < -PSD_ATOL:
        raise ValidationError(
            f"matrix is not PSD (min eigenvalue {w[-1]:.3e} < -{PSD_ATOL:.0e})"
        )
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w <= w[0] * RANK_RTOL] = 0.0
    return w, dec.eigenvectors


def psd_sqrt(p) -> np.ndarray:
    """Hermitian PSD square root under the spectral policy of ``psd_eig``."""
    w, v = psd_eig(p)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_factor(p) -> np.ndarray:
    """Rank-revealing factor F with F F^dag = p.

    Its columns are sqrt(w_i) v_i over the eigenvalues ``psd_eig`` keeps.
    """
    w, v = psd_eig(p)
    keep = w > 0.0
    return v[:, keep] * np.sqrt(w[keep])


def singular_values(m) -> np.ndarray:
    """Singular values in descending order."""
    m = _as_complex(m)
    return np.linalg.svd(m, compute_uv=False)


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(m)))
