"""Dense reference routes for the protocol module, used as test oracles.

They materialize the typical basis V as a (source_dim**n) x m matrix and
the compressed state V Y V^dag, so they serve only small cases.  The
library's fidelity kernel never builds these operators.  ``typical_strings``
is the loop-and-sort reference for the string order of ``typical_subspace``,
``position_blocks`` the brute-force reference for its symmetry blocks,
``sequence_gram`` the ``np.ix_`` reference for the kernel's Gram gather, and
``traced_stack`` the rows-array reference for the kernel's traced stack.
``psd_sqrt`` is the dense square root that ``traced_output`` and
``ep_traced_fidelity`` take.
``expm_frechet_gradient`` is the minimizer's objective and gradient by
scipy's Pade ``expm`` and ``expm_frechet``, one state at a time, and
``lbfgsb`` runs one minimizer start by scipy's L-BFGS-B.  ``qr_triangle``
and ``zpstrf_factor`` are scipy's LAPACK wrappers behind the kernel's QR
triangle and pivoted Cholesky factor.
"""

import functools
import itertools

import numpy as np
import scipy.linalg
import scipy.optimize

from enscomp import extopt, linalg, protocol
from enscomp.fidelity import PureState
from enscomp.states import DensityMatrix


def typical_strings(w, n: int, *, eps=None, dim_cap=None):
    """(strings, probs, dim, retained_mass) of the top eigen-strings.

    ``w`` holds the kept source eigenvalues.  All r^n strings are listed with
    itertools and sorted in Python by (-probability, string), so probability
    ties break lexicographically.  A string's probability comes from its type
    alone: its eigenvalues multiplied in ascending order.
    """
    strings, probs = _sorted_strings(tuple(float(x) for x in w), n)
    cum = np.cumsum(probs)
    if eps is not None:
        hit = np.flatnonzero(cum >= 1.0 - eps - protocol.EPS_SLACK)
        m = int(hit[0]) + 1 if hit.size else len(probs)
    else:
        m = min(int(dim_cap), len(probs))
    return strings[:m], probs[:m], m, float(cum[m - 1])


@functools.lru_cache(maxsize=8)
def _sorted_strings(w: tuple, n: int):
    """All r^n strings and their probabilities, sorted by (-probability, string)."""
    strings = [tuple(s) for s in itertools.product(range(len(w)), repeat=n)]
    probs = [_type_prob(w, s) for s in strings]
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], strings[i]))
    out = np.array([strings[i] for i in order], dtype=np.intp), np.array([probs[i] for i in order])
    for a in out:
        a.flags.writeable = False  # every caller shares the cached arrays
    return out


def position_blocks(strings, n: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of the position pairs whose swap maps ``strings`` onto itself.

    Each swap is applied to every string as a tuple (a pair already joined
    is not tested again); components are listed by their smallest position,
    each sorted.
    """
    kept = {tuple(s) for s in np.asarray(strings).tolist()}
    block = list(range(n))  # block[t]: the smallest position joined to t so far
    for a, b in itertools.combinations(range(n), 2):
        if block[a] != block[b] and all(
            s[:a] + (s[b],) + s[a + 1:b] + (s[a],) + s[b + 1:] in kept for s in kept
        ):
            old, new = max(block[a], block[b]), min(block[a], block[b])
            block = [new if x == old else x for x in block]
    return tuple(tuple(t for t in range(n) if block[t] == root) for root in sorted(set(block)))


def sequence_gram(ts, grams, seq) -> np.ndarray:
    """V^dag sigma V as the product of the per-position Grams gathered by ``np.ix_``."""
    s = ts.strings
    gm = np.ones((ts.dim, ts.dim), dtype=np.complex128)
    for t, c in enumerate(seq):
        gm *= grams[c][np.ix_(s[:, t], s[:, t])]
    return gm


def traced_stack(ts, factors, l, seq) -> np.ndarray:
    """stack_j L^dag X_j (rows (j, l), columns r) through the full m x R x J rows array.

    X[s, r, j] = prod_t E_{c_t}[s_t, r_t, j_t] is built one position at a
    time, the last position slowest in r and j, and one GEMM over the m
    strings contracts it with conj(L).
    """
    s = ts.strings
    x = np.ones((ts.dim, 1, 1), dtype=np.complex128)
    for t, c in enumerate(seq):
        f = factors[c][s[:, t]]
        x = (f[:, :, None, :, None] * x[:, None, :, None, :]).reshape(
            ts.dim, f.shape[1] * x.shape[1], f.shape[2] * x.shape[2])
    m, r, j = x.shape
    return (x.reshape(m, r * j).T @ l.conj()).reshape(r, j * l.shape[1]).T


def _type_prob(w, string) -> float:
    prob = 1.0
    for i in sorted(string, reverse=True):
        prob *= w[i]
    return prob


def kron_vec_all(vecs) -> np.ndarray:
    """Kronecker product of a sequence of vectors, left to right."""
    vecs = list(vecs)
    out = np.asarray(vecs[0], dtype=np.complex128)
    for v in vecs[1:]:
        out = np.kron(out, np.asarray(v, dtype=np.complex128))
    return out


def basis(ts) -> np.ndarray:
    """Typical basis vectors as columns of a (source_dim**n) x dim matrix."""
    full = ts.source_dim ** ts.block_length
    cols = np.empty((full, ts.dim), dtype=np.complex128)
    for j, s in enumerate(ts.strings):
        cols[:, j] = kron_vec_all([ts.source_eigenvectors[:, t] for t in s])
    return cols


def basis_states(ts) -> list[PureState]:
    dims = (ts.source_dim,) * ts.block_length
    v = basis(ts)
    return [PureState(v[:, j], dims) for j in range(ts.dim)]


def projector(ts) -> np.ndarray:
    v = basis(ts)
    return v @ v.conj().T


def compressed_y(seq: np.ndarray, ts) -> np.ndarray:
    """Y = V^dag sigma V plus the lost mass on the junk vector e_0."""
    v = basis(ts)
    y = v.conj().T @ seq @ v
    y[0, 0] += 1.0 - float(np.trace(y).real)
    return y


def pretrace_fidelity(ts, states, seq) -> float:
    """F(sigma, V Y V^dag) for sigma the product of ``states`` along ``seq``.

    The rows route for any input rank: u = V^dag A with A = (x)_t A_t the
    product of the states' eigen-factors, Y = L L^dag for L = [u, sqrt(delta)
    e_0], and F = ||L^dag u||_1^2.  No matrix square root enters.
    """
    a = linalg.kron_all([linalg.psd_factor(*linalg.psd_eig(states[c].matrix)) for c in seq])
    u = basis(ts).conj().T @ a
    junk = np.zeros((ts.dim, 1), dtype=np.complex128)
    junk[0, 0] = np.sqrt(max(1.0 - float(np.vdot(u, u).real), 0.0))
    b = np.hstack([u, junk]).conj().T @ u
    return float(np.sum(np.linalg.svd(b, compute_uv=False)) ** 2)


def js_compress_sequence(seq: DensityMatrix, ts) -> DensityMatrix:
    """The JS map P sigma P + Tr[(I-P) sigma] tau, as a dense matrix.

    The junk state tau is the projector onto the first (most probable)
    typical basis vector, so the output is supported inside the subspace.
    """
    v = basis(ts)
    out = v @ compressed_y(seq.matrix, ts) @ v.conj().T
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out, seq.factor_dims)


def psd_sqrt(p) -> np.ndarray:
    """Hermitian PSD square root under the spectral policy of ``linalg.psd_eig``."""
    w, v = linalg.psd_eig(p)
    return (v * np.sqrt(w)) @ v.conj().T


def traced_output(ts, y: np.ndarray, block_dim: int, anc_dim: int) -> np.ndarray:
    """All ancilla factors traced out of V Y V^dag, as B B^dag.

    B regroups the columns of V sqrt(Y) into (system^k) x (ancilla^k * m).
    """
    k = ts.block_length
    a = basis(ts) @ psd_sqrt(y)
    tensor = a.reshape((block_dim, anc_dim) * k + (ts.dim,))
    axes = tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2)) + (2 * k,)
    b = tensor.transpose(axes).reshape(block_dim ** k, -1)
    omega = b @ b.conj().T
    return (omega + omega.conj().T) / 2.0


def ep_traced_fidelity(ts, ext_states, block_states, anc_dim: int, seq) -> float:
    """F(sigma, omega) for the original block sequence sigma and Bob's output.

    Uhlmann fidelity (Tr |sqrt(sigma) sqrt(omega)|)^2 from dense square roots.
    """
    ext = linalg.kron_all([ext_states[c].matrix for c in seq])
    omega = traced_output(ts, compressed_y(ext, ts), block_states[0].dim, anc_dim)
    sqrt_orig = linalg.kron_all([psd_sqrt(block_states[c].matrix) for c in seq])
    sv = np.linalg.svd(sqrt_orig @ psd_sqrt(omega), compute_uv=False)
    return min(float(np.sum(sv) ** 2), 1.0)


def qr_triangle(a) -> np.ndarray:
    """R of the thin QR of the m x n stack ``a``, m >= n, by scipy's zgeqrf."""
    return np.triu(scipy.linalg.lapack.zgeqrf(a)[0][: a.shape[1]])


def zpstrf_factor(g) -> tuple[np.ndarray, np.ndarray]:
    """(T, pivots) of g by scipy's zpstrf at its default tolerance m * u * max_k g_kk.

    T T^dag = g up to the dropped Schur complement, T's rows in g's order;
    ``pivots`` holds the c_jj^2 that T kept, in pivot order.
    """
    c, piv, rank, _ = scipy.linalg.lapack.zpstrf(g, lower=1)
    return np.tril(c[:, :rank])[np.argsort(piv)], c.diagonal().real[:rank] ** 2


def expm_isometry(params, n: int, r: int) -> np.ndarray:
    """expm(A - A^dag)[:, :r] by scipy's Pade route, A packed as in extopt."""
    p = np.asarray(params, dtype=float).reshape(2, n, n)
    a = p[0] + 1j * p[1]
    return scipy.linalg.expm(a - a.conj().T)[:, :r]


def expm_frechet_gradient(e, assignment) -> tuple[float, np.ndarray]:
    """Regularized entropy (bits) and its gradient in the flat parameters.

    Chains dS/drho = -(log2 rho + I/ln 2) through K_i = reshape(B_i W_i^T)
    and W_i = expm(G_i)[:, :r], with the adjoint Frechet derivative of expm
    at G_i taken as expm_frechet(-G_i, .), since G_i^dag = -G_i.
    """
    a_dim, q_dim = assignment.ancilla_dim, assignment.purifier_dim
    n = a_dim * q_dim
    dim_ext = e.dim * a_dim
    rho = np.zeros((dim_ext, dim_ext), dtype=np.complex128)
    cache = []
    for p, st, x in zip(e.probs, e.states, assignment.params):
        b = extopt._purification_register(st, n)
        v = np.asarray(x, dtype=float).reshape(2, n, n)
        a = v[0] + 1j * v[1]
        g = a - a.conj().T
        k = (b @ scipy.linalg.expm(g)[:, : b.shape[1]].T).reshape(dim_ext, q_dim)
        rho += p * (k @ k.conj().T)
        cache.append((k, g, b))
    rho = (rho + rho.conj().T) / 2.0
    w, vec = np.linalg.eigh(rho)
    w_reg = np.clip(w, 0.0, None) + extopt.GRAD_REGULARIZATION / dim_ext
    value = float(-(w_reg * np.log2(w_reg)).sum())
    d_mat = (vec * -(np.log2(w_reg) + 1.0 / np.log(2.0))) @ vec.conj().T
    grads = []
    for p, (k, g, b) in zip(e.probs, cache):
        zm = (p * (d_mat @ k)).reshape(e.dim, n)
        zw = np.zeros((n, n), dtype=np.complex128)
        zw[:, : b.shape[1]] = zm.T @ b.conj()
        zg = scipy.linalg.expm_frechet(-g, zw, compute_expm=False)
        za = zg - zg.conj().T
        grads.append(np.concatenate([2.0 * za.real.ravel(), 2.0 * za.imag.ravel()]))
    return value, np.concatenate(grads)


def lbfgsb(fun, x, max_iters: int):
    """``extopt._lbfgs`` by scipy's L-BFGS-B with the same stopping tolerances."""
    res = scipy.optimize.minimize(
        fun, x, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": extopt.ENTROPY_TOLERANCE,
                 "gtol": extopt.STEP_TOLERANCE},
    )
    return res.x, int(res.nit), bool(res.success), str(res.message)
