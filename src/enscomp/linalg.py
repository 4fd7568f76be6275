"""Dense complex linear algebra backbone.

Conventions used throughout the package:

* tensor factors are ordered left = most significant (slow index), so
  ``kron_all([a, b])`` places ``a`` on the slow index;
* matrices are plain complex ``np.ndarray`` values, and no public function
  mutates its input.
"""

import operator

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DimensionGuardError, ValidationError

# The package's one resource limit: the complex elements (16 bytes) one call
# holds at once, counted by each guard from the call's inputs and checked by
# ``check_limit`` alone.  Module-level so a caller can raise it for a big run.
ELEMENT_BUDGET = 2 ** 24

# The one absolute rounding budget of every runtime check: hermiticity, unit
# trace, probability sums, extension trace defects, fidelity ranges and the
# paper's inequalities all accept a violation of at most ATOL.
ATOL = 1e-9

# The PSD spectral policy, applied by ``psd_eig`` alone: eigenvalues in
# [-ATOL, 0) are rounding and clip to zero, anything below -ATOL is a genuine
# PSD violation, and eigenvalues at or below RANK_RTOL times the largest are
# eigh noise and are zeroed, so they never reach a sqrt.
RANK_RTOL = 1e-14


def check_limit(count: int, what: str) -> None:
    """The one resource guard: DimensionGuardError when ``count`` exceeds ELEMENT_BUDGET.

    ELEMENT_BUDGET is read at the call.  Callers count before they allocate,
    so a refused run holds nothing.
    """
    if count > ELEMENT_BUDGET:
        raise DimensionGuardError(f"{what}: {count} exceeds the limit {ELEMENT_BUDGET}")


def _index(x, what: str, low: int = 0) -> int:
    """``x`` as a Python int (``operator.index``); ValidationError unless an integer >= low."""
    try:
        x = operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {x!r}") from None
    if x < low:
        raise ValidationError(f"{what} must be >= {low}, got {x}")
    return x


def _as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():  # a complex entry is finite iff both parts are
        raise ValidationError("matrix contains non-finite entries")
    return a


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValidationError("kron_all needs at least one factor")
    out = _as_complex(mats[0])
    for m in mats[1:]:
        m = _as_complex(m)
        # the running product, the next one (rows x columns) and np.kron's ufunc buffers
        check_limit(out.size * (1 + m.size) + 2 * np.getbufsize(), "elements of kron_all")
        out = np.kron(out, m)
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors except those listed in ``keep``.

    ``dims`` is the factor dimension list (slow index first); ``keep`` is a
    nonempty collection of factor indices.  The kept factors stay in their
    original relative order.  Preserves the trace exactly up to rounding.
    """
    m = _as_complex(m)
    dims = tuple(_index(d, "factor dimension", 1) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValidationError(
            f"matrix shape {m.shape} does not match factor dims {dims}"
        )
    try:
        keep = tuple(keep)
    except TypeError:  # one factor index
        keep = (keep,)
    keep = tuple(sorted({_index(k, "keep index") for k in keep}))
    if not keep:
        raise ValidationError("keep must name at least one factor")
    if keep[-1] >= len(dims):
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


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a Hermitian matrix, w descending.

    The columns of ``v`` are the eigenvectors, so ``(v * w) @ v.conj().T``
    reconstructs the input.
    """
    h = _as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if dev > ATOL:
        raise ValidationError(
            f"matrix is not Hermitian (max deviation {dev:.3e} > {ATOL:.0e})"
        )
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order].astype(float), v[:, order]


def psd_eig(p) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a PSD matrix under the spectral policy, w descending.

    Raises ValidationError below -ATOL; every returned eigenvalue is >= 0,
    and those at or below RANK_RTOL * max(w) are exactly 0.  Without that cut,
    sqrt() would inflate eigh noise of order 1e-17 into spurious directions
    of weight 3e-9 that pollute trace norms and purifications downstream.
    """
    w, v = hermitian_eig(p)
    if w.size and w[-1] < -ATOL:
        raise ValidationError(
            f"matrix is not PSD (min eigenvalue {w[-1]:.3e} < -{ATOL:.0e})"
        )
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w <= w[0] * RANK_RTOL] = 0.0
    return w, v


def psd_factor(w, v) -> np.ndarray:
    """Rank-revealing F with F F^dag = p, from the eigenpairs ``psd_eig(p)``.

    Its columns are sqrt(w_i) v_i over the eigenvalues ``psd_eig`` keeps.
    """
    keep = w > 0.0
    return v[:, keep] * np.sqrt(w[keep])


def _qr_triangle(a: np.ndarray) -> np.ndarray:
    """R of the thin Householder QR a = Q R of an m x n stack, m >= n, by LAPACK's zgeqrf.

    numpy's lapack_lite runs zgeqrf in place on a Fortran-ordered ``a`` (any
    other ``a`` is copied once), with a workspace of 64 n, twice what its
    query returns (32 n, the blocked panel's), so no query is made.  R is a
    view of a's first n rows, the reflectors below its diagonal zeroed.
    """
    a = np.asfortranarray(a, dtype=np.complex128)
    m, n = a.shape
    tau, work = np.empty(n, dtype=np.complex128), np.empty(64 * n, dtype=np.complex128)
    info = lapack_lite.zgeqrf(m, n, a.T, m, tau, work, len(work), 0)["info"]
    if info:
        raise ValidationError(f"zgeqrf rejected argument {-info}")
    r = a[:n]
    np.multiply(r, np.tri(n, dtype=bool).T, out=r)
    return r


def _trace_norm(a: np.ndarray) -> float:
    """``trace_norm`` without validation; overwrites a Fortran-ordered tall ``a``."""
    if a.shape[0] >= 2 * a.shape[1] > 2:
        a = _qr_triangle(a)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def trace_norm(m) -> float:
    """||m||_1, the sum of the singular values of a matrix.

    A matrix of more than one column and at least twice as tall as wide
    goes to its QR triangle first: the same singular values, backward
    stable like the SVD, and cheaper (the R-SVD; Chan, ACM TOMS 8, 72
    (1982)).  The input is never overwritten.
    """
    a = _as_complex(m)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got shape {a.shape}")
    return _trace_norm(np.array(a, order="F"))
