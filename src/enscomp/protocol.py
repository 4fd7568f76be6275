"""Finite-block simulation of typical-subspace compression protocols.

``js_protocol`` runs the plain Jozsa-Schumacher scheme on a memoryless
source: project each length-n signal sequence onto the span of the m most
probable eigenvalue strings of rho^(x)n, substituting a fixed junk state on
projection failure.  ``extension_protocol`` is the same scheme run on the
extended block signals, after which the receiver traces out all ancilla
factors.

Both share one exact/Monte-Carlo sequence driver and one per-sequence fidelity
kernel, which never materializes a d^n-dimensional operator.  With V the
typical basis and the compressed state V Y V^dag, Uhlmann's theorem gives
F = ||stack_j L^dag X_j||_1^2 for Y = L L^dag and a target sigma = A A^dag
seen through X_j = V^dag (A (x) |j>), j running over the traced ancilla
basis.  X factors position by position like the typical strings.  Every
sequence gets one factor T with T T^dag = V^dag sigma V: the input rows
V^dag A when the input rank product Q is below m, else a Cholesky factor of
the Gram product, numpy's when its pivots pass a sqrt(u) gate and a pivoted
one, LAPACK's zpstf2 written in numpy, when the Gram is singular or nearly
so.  Y = L L^dag for L = [T, sqrt(delta) e_0], delta = 1 - ||T||_F^2 the
junk mass, and the pre-trace F is ||L^dag T||_1^2.

The traced stack never builds X.  The kept strings that share a suffix
s[t:] form a group, and the stack starts from conj(L), one row per string,
absorbing one position at a time: each group's rows are summed, weighted by
the position's factor, into the row of the group one position up.  A kernel
stores these maps as block matrices once and reuses grow-only buffers,
so an orbit costs a few GEMMs and two reorders.  One level short of the
root, the children's stacks side by side are replaced by their thin-QR
triangle when they are at least twice as tall as wide, a shorter stack
with the same singular values, and one GEMM absorbs the root.  Both
stacks' trace norms come from ``linalg``'s R-SVD.
"""

from dataclasses import dataclass
from functools import cached_property
from math import prod, sqrt

import numpy as np

from . import bounds, linalg
from .errors import ValidationError
from .extopt import ExtensionAssignment, extended_ensemble
from .states import DensityMatrix, Ensemble, ensemble_density, product_ensemble

# auto sampling switches to Monte-Carlo above this many sequences
EXACT_SEQUENCE_THRESHOLD = 4096
DEFAULT_MC_SAMPLES = 1024

# parents x children of one diagonal block of a traced-route suffix level
SUFFIX_BLOCK_AREA = 256
# eps keeps the fewest strings of mass >= 1 - eps - EPS_SLACK, a rounding slack of the cumsum
EPS_SLACK = 1e-15
# a Gram takes its unpivoted Cholesky factor when every pivot c_kk^2 exceeds this
# times max_k g_kk: sqrt(u), u the unit roundoff; else the pivoted factor
CHOLESKY_PIVOT_RTOL = float(np.sqrt(np.finfo(np.float64).eps / 2))


@dataclass(frozen=True)
class TypicalSubspace:
    """Span of the highest-probability eigenvalue strings of rho^(x)n."""

    block_length: int
    dim: int
    retained_mass: float
    strings: np.ndarray  # (dim, n) indices into the kept eigenbasis
    string_probs: np.ndarray  # (dim,)
    source_eigenvalues: np.ndarray  # kept (nonzero), descending
    source_eigenvectors: np.ndarray  # source_dim x len(kept), columns
    source_dim: int
    # partition of the positions; a transposition inside a block maps the
    # kept string set onto itself
    position_blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SequenceRecord:
    indices: tuple[int, ...]
    probability: float
    fidelity: float
    draws: int | None = None


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    block_length: int  # signals per channel use (n for JS, n_block*k for EP)
    channel_dim: int
    avg_fidelity: float
    # the records as columns: the sequences, lexicographic, in the smallest unsigned dtype
    # for N; float64 probabilities and fidelities; int64 draw counts (None if exact)
    indices: np.ndarray
    probability: np.ndarray
    fidelity: np.ndarray
    sampled: bool
    draws: np.ndarray | None = None
    stderr: float | None = None
    seed: int | None = None
    ext_avg_fidelity: float | None = None

    def __post_init__(self):
        if not -linalg.ATOL <= self.avg_fidelity <= 1.0 + linalg.ATOL:
            raise ValidationError(f"average fidelity {self.avg_fidelity} out of range")

    @property
    def rate(self) -> float:
        return rate_of(self.channel_dim, self.block_length)

    @cached_property
    def per_sequence(self) -> tuple[SequenceRecord, ...]:
        """The records as ``SequenceRecord``s, made on first use; equal fidelities share a float."""
        draws = [None] * len(self.fidelity) if self.draws is None else self.draws.tolist()
        first, which = _groups(self.fidelity[:, None])
        fidelity = map(self.fidelity[first].tolist().__getitem__, which.tolist())
        return tuple(map(SequenceRecord, map(tuple, self.indices.tolist()),
                         self.probability.tolist(), fidelity, draws))


def rate_of(channel_dim: int, signals: int) -> float:
    """Qubits per signal: log2(channel dimension) / number of signals."""
    if channel_dim < 1 or signals < 1:
        raise ValidationError("channel_dim and signals must be positive")
    return float(np.log2(channel_dim) / signals)


def typical_subspace(
    rho: DensityMatrix,
    n: int,
    *,
    eps: float | None = None,
    dim_cap: int | None = None,
) -> TypicalSubspace:
    """Top-probability eigenstring subspace of rho^(x)n.

    Exactly one target must be given: ``eps`` keeps the minimal dimension
    reaching mass >= 1-eps; ``dim_cap`` keeps the ``dim_cap`` most probable
    strings (maximal mass for that dimension).  Probability ties break
    lexicographically.
    """
    if (eps is None) == (dim_cap is None):
        raise ValidationError("give exactly one of eps or dim_cap")
    if eps is not None and not 0.0 <= eps < 1.0:
        raise ValidationError("eps must be in [0, 1)")
    if dim_cap is not None:
        dim_cap = linalg._index(dim_cap, "dim_cap", 1)
    n = linalg._index(n, "block length", 1)
    w, vecs = rho._psd_eig
    r = int(np.count_nonzero(w))  # w is descending: the zeros come last
    w, vecs = w[:r], vecs[:, :r]

    # the r^n probability pass holds 25-29 B per string (tracemalloc, n = 14-20)
    linalg.check_limit(2 * r ** n, "elements of the typical subspace")
    probs = _type_probs(w, n)
    desc = np.sort(probs)[::-1]
    cum = np.cumsum(desc)

    if eps is not None:
        hit = np.flatnonzero(cum >= 1.0 - eps - EPS_SLACK)
        m = int(hit[0]) + 1 if hit.size else len(probs)
    else:
        m = min(dim_cap, len(probs))

    # the strings above the m-th one's level, then the first of its level: C order is lexicographic
    level = desc[m - 1]
    del desc  # the sorted copy would sit on the strings' peak
    above = np.flatnonzero(probs > level)
    tie = np.flatnonzero(probs == level)
    cut = tie[: m - len(above)]
    # probs and cum, then the m x n strings and their quotient copy, and a
    # level cut short's swapped codes with np.isin's copies, 41-45 B each
    swaps = len(cut) * n * (n - 1) // 2 if len(cut) < len(tie) else 0
    linalg.check_limit(r ** n + m * (n + 2) + 3 * swaps, "elements of the typical subspace")
    kept = np.concatenate([above, cut])
    kept = kept[np.argsort(-probs[kept], kind="stable")]
    return TypicalSubspace(
        block_length=n,
        dim=m,
        retained_mass=float(cum[m - 1]),
        strings=kept[:, None] // r ** np.arange(n - 1, -1, -1) % r,
        string_probs=probs[kept],
        source_eigenvalues=w,
        source_eigenvectors=vecs,
        source_dim=rho.dim,
        position_blocks=_position_blocks(cut, len(tie), r, n),
    )


def _over_strings(op, x: np.ndarray, n: int) -> np.ndarray:
    """op applied across the n digits of every string, flat in C order.

    The growing operand comes second, so the outer product's inner loop is long.
    """
    out = x
    for _ in range(n - 1):
        out = op.outer(x, out).ravel()
    return out


def _type_probs(w: np.ndarray, n: int) -> np.ndarray:
    """Probability of each of the r^n eigen-strings, in C (lexicographic) order.

    Every string gets the product over its sorted permutation, its eigenvalues
    multiplied from the smallest up.  All strings of one type (eigenvalue
    counts) thus share one float, so exact ties are real ties, and since
    rounding is monotone no string outranks (0, ..., 0), the junk.
    """
    r = len(w)
    products = _over_strings(np.multiply, w, n)
    # The sorted string's digit at t counts the i < r-1 with C_i <= t, C_i
    # the number of digits <= i, so its flat index is sum_i tail[C_i].
    place = r ** np.arange(n - 1, -1, -1)
    tail = np.append(np.cumsum(place[::-1])[::-1], 0)
    sorted_index = np.zeros(r ** n, dtype=np.intp)
    for i in range(r - 1):
        # typical_subspace's count of 2 r^n bounds n by log2 of the budget: uint8 counts fit
        sorted_index += tail[_over_strings(np.add, (np.arange(r) <= i).astype(np.uint8), n)]
    return products[sorted_index]


def _position_blocks(cut, level_size: int, r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Blocks of positions whose transpositions map the kept strings onto themselves.

    ``cut`` holds the flat indices of the kept strings of the lowest kept
    probability level, which has ``level_size`` strings.  Whole levels are
    unions of type classes, so only a level cut short can break the
    symmetry; the pairs that keep it are tested at once on integer codes.
    Those pairs are already transitive, since (a c) = (a b)(b c)(a b).
    """
    if len(cut) == level_size:
        return (tuple(range(n)),)
    place = r ** np.arange(n - 1, -1, -1)
    digits = cut[:, None] // place % r
    a, b = np.triu_indices(n, 1)
    # swapping positions a and b moves the code by (s_a - s_b)(place_b - place_a)
    swapped = cut[:, None] + (digits[:, a] - digits[:, b]) * (place[b] - place[a])
    closed = np.isin(swapped, cut).all(axis=0)
    same = np.eye(n, dtype=bool)
    same[a[closed], b[closed]] = same[b[closed], a[closed]] = True
    return tuple(dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in same))


def _subspace_grams(ts: TypicalSubspace, source_states) -> list[np.ndarray]:
    """Per-source-state Gram matrices in the kept eigenbasis of the source."""
    v = ts.source_eigenvectors
    return [v.conj().T @ s.matrix @ v for s in source_states]


def _sequence_gram(ts: TypicalSubspace, grams, seq) -> np.ndarray:
    """V^dag sigma V for sigma the given sequence, from per-position Grams."""
    s = ts.strings
    gm = np.ones((ts.dim, ts.dim), dtype=np.complex128)
    for t, c in enumerate(seq):
        gm *= grams[c].take(s[:, t], 0).take(s[:, t], 1)
    return gm


def _pivoted_cholesky(g: np.ndarray) -> np.ndarray:
    """T with T T^dag = g up to a PSD Schur complement of diagonal <= m * u * max_k g_kk.

    LAPACK zpstf2's left-looking steps, with T's rows kept in g's order:
    step j pivots on the row p of the largest Schur-complement diagonal, g_pp
    minus the squared norm of row p of T so far, and stops once that is <=
    m * u * max_k g_kk.  Column j of T is g's column p less one GEMV, zero on
    the rows pivoted before, scaled by the pivot's inverse square root.
    """
    m = len(g)
    t = np.zeros((m, m), dtype=np.complex128, order="F")
    d, w, live = g.diagonal().real.copy(), np.zeros(m), np.ones(m)
    stop = m * (np.finfo(np.float64).eps / 2) * d.max()
    for j in range(m):
        rest = d - w  # -inf on the pivoted rows
        p = int(rest.argmax())
        pivot = float(rest[p])
        if not pivot > stop:  # also when g holds a NaN
            return t[:, :j]
        w[p], live[p] = np.inf, 0.0
        col = t[:, j]
        np.subtract(g[:, p], t[:, :j] @ t[p, :j].conj(), out=col)
        col *= live
        root = sqrt(pivot)
        col *= 1.0 / root
        col[p] = root
        w += (col.conj() * col).real
    return t


def _gram_factor(g: np.ndarray) -> np.ndarray:
    """T with T T^dag = g by Cholesky, so no sqrt of rounding noise enters.

    numpy's unpivoted Cholesky factor is T when every pivot c_kk^2 exceeds
    CHOLESKY_PIVOT_RTOL * max_k g_kk.  Otherwise (g singular or nearly so)
    the pivoted factor stops once every remaining pivot is <= m * u *
    max_k g_kk, LAPACK zpstrf's default and the kernel's one rank tolerance;
    the dropped PSD Schur complement, of trace <= m^2 * u * max_k g_kk (5e-12
    at m = 222), moves into the junk mass.  The unpivoted factor cannot use
    that tolerance: it keeps the noise pivots of a semidefinite g as columns
    of T (Higham, 1990).
    """
    try:
        c = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:  # a pivot was not positive
        pass
    else:
        if c.diagonal().real.min() ** 2 > CHOLESKY_PIVOT_RTOL * g.diagonal().real.max():
            return c
    return _pivoted_cholesky(g)


def _buffer(work: dict, key, shape: tuple[int, ...]) -> np.ndarray:
    """A C-ordered view of ``shape`` into the grow-only buffer work[key]."""
    size = prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size, dtype=np.complex128)
    return work[key][:size].reshape(shape)


def _amplitude_factors(ts: TypicalSubspace, states, anc_dim: int = 1) -> list[np.ndarray]:
    """Per-state E[s, r, j] = <v_s| (A (x) |j>) |r> for A A^dag = the state.

    v_s runs over the kept source eigenvectors, whose space is the state's
    space (x) an ancilla of dimension ``anc_dim`` on the fast index.
    """
    v = ts.source_eigenvectors.conj()
    v = v.reshape(-1, anc_dim, v.shape[1])
    return [np.einsum("xjs,xr->srj", v, linalg.psd_factor(*st._psd_eig)) for st in states]


def _sequence_rows(ts: TypicalSubspace, factors, seq) -> np.ndarray:
    """T[s, r] = prod_t E_{c_t}[s_t, r_t, 0], an m x R array, for factors without ancilla.

    The combined index r puts the last position slowest, which keeps the
    broadcast's inner axis long.  The C-ordered product makes the reshape a
    view instead of a copy.
    """
    s = ts.strings
    x = np.ones((ts.dim, 1), dtype=np.complex128)
    for t, c in enumerate(seq):
        f = factors[c][s[:, t], :, 0]
        x = np.multiply(f[:, :, None], x[:, None, :], order="C").reshape(ts.dim, -1)
    return x


def _suffix_tree(ts: TypicalSubspace, factors):
    """The kept strings' suffix order and the diagonal blocks that absorb each position.

    Sorted by their reversed digits (``order``), the strings sharing a suffix
    s[t:] are adjacent: they form one group of position t, and the groups of
    t inside one group of t + 1 (its children) are adjacent too.  Absorbing
    position t for signal c maps each group onto its parent with E_c[s_t, r,
    j], s_t the group's digit: a block-diagonal matrix of rows (parent, r, j)
    and columns group.  Level t lists its diagonal blocks as (p0, p1, g0, g1,
    [block per signal]), cut between parents before a block's parents x
    children pass SUFFIX_BLOCK_AREA, so few of the zeros are multiplied.
    ``dims`` holds each signal's (rank, ancilla dimension).
    """
    s = ts.strings
    m, n = s.shape
    order = np.lexsort(s.T)
    s = s[order]
    # new[i, t]: sorted string i + 1 starts a new group of position t
    new = np.logical_or.accumulate((np.diff(s, axis=0) != 0)[:, ::-1], axis=1)[:, ::-1]
    group = np.zeros((m, n + 1), dtype=np.intp)  # position n: the one empty suffix
    group[1:, :n] = np.cumsum(new, axis=0)
    dims = [f.shape[1:] for f in factors]
    levels, elements = [], 0
    for t in range(n):
        parent = np.empty(group[-1, t] + 1, dtype=np.intp)
        digit = np.empty_like(parent)
        parent[group[:, t]], digit[group[:, t]] = group[:, t + 1], s[:, t]
        # the children of parent p are groups first[p] to first[p + 1] - 1
        first = np.searchsorted(parent, np.arange(parent[-1] + 2)).tolist()
        cuts, p0 = [], 0
        for p in range(1, len(first)):
            if p == len(first) - 1 or (p + 1 - p0) * (first[p + 1] - first[p0]) > SUFFIX_BLOCK_AREA:
                cuts.append((p0, p, first[p0], first[p]))
                p0 = p
        elements += sum((p1 - p0) * (g1 - g0) for p0, p1, g0, g1 in cuts) * sum(map(prod, dims))
        linalg.check_limit(elements, "elements of the traced-route block matrices")
        levels.append([])
        for p0, p1, g0, g1 in cuts:
            blocks = [np.zeros((p1 - p0,) + d + (g1 - g0,), dtype=np.complex128) for d in dims]
            for b, f in zip(blocks, factors):
                b[parent[g0:g1] - p0, :, :, np.arange(g1 - g0)] = f[digit[g0:g1]]
            levels[-1].append((p0, p1, g0, g1, [b.reshape(-1, g1 - g0) for b in blocks]))
    return order, levels, dims


def _traced_stack(tree, lc: np.ndarray, seq, work: dict) -> np.ndarray:
    """A stack with the singular values of stack_j L^dag X_j, from conj(L) along the suffix tree.

    W starts as the rows of conj(L) in suffix order.  Absorbing position t
    sums E_{c_t}[s_t, r_t, j_t] W[g] over the children g of each group, one
    GEMM per diagonal block, into one of two buffers of ``work``; (r_t, j_t)
    go before the columns.  After the first k - 1 positions, W's row d holds
    M_d, the (J' l) x R' stack of the strings ending in d, and the stack is
    sum_d E_{c,d}^T (x) M_d (rows (j, J' l), columns (r, R')).  When J' l >=
    2 D R' for the D children, the thin QR [M_0 ... M_{D-1}] = Q [R_0 ...
    R_{D-1}] replaces every M_d by the shorter R_d with the same singular
    values in the sum (I (x) Q has orthonormal columns).  One GEMM with the
    root's block matrix and one reorder then form the stack, in Fortran order.
    """
    order, levels, dims = tree
    k, l = len(seq), lc.shape[1]
    (r, j), (d, root) = dims[seq[-1]], levels[-1][0][3:]  # the root level is one block
    rp = prod(dims[c][0] for c in seq[:-1])
    jl = prod(dims[c][1] for c in seq[:-1]) * l
    n = d * rp  # the columns of [M_0 ... M_{D-1}]
    qr = jl >= 2 * n  # the root QR cuts its rows from J' l to n
    h = n if qr else jl
    cols, sizes = l, []
    for t, c in enumerate(seq[:-1]):
        cols *= prod(dims[c])
        sizes.append(levels[t][-1][1] * cols)
    # then the children, the QR's triangle, the GEMM's output and the stack
    linalg.check_limit(sum(sizes) + n * jl + qr * n * n + 2 * r * j * rp * h,
                       "elements of the traced-route arrays")
    w = lc[order]
    for t, c in enumerate(seq[:-1]):
        rj, parents = prod(dims[c]), levels[t][-1][1]
        out = _buffer(work, t % 2, (parents * rj, w.shape[1]))
        for p0, p1, g0, g1, blocks in levels[t]:
            np.matmul(blocks[c], w[g0:g1], out=out[p0 * rj:p1 * rj])
        w = out.reshape(parents, -1)
    # [M_0 ... M_{D-1}]^T, rows (d, r'); the QR runs in place on its Fortran-ordered transpose
    a = _r_first(w, [dims[c] for c in reversed(seq[:-1])], l, _buffer(work, "children", (n, jl)))
    if qr:
        tri = linalg._qr_triangle(a.T)
        a = _buffer(work, "triangle", (n, n))  # the triangle's transpose
        np.copyto(a.T, tri)
    out = _buffer(work, (k - 1) % 2, (r * j, rp * h))
    np.matmul(root[seq[-1]], a.reshape(d, rp * h), out=out)
    stack = _buffer(work, "stack", (r * rp, j * h))
    np.copyto(stack.reshape(r, rp, j, h), out.reshape(r, j, rp, h).transpose(0, 2, 1, 3))
    return stack.T


def _r_first(w: np.ndarray, rj, l: int, out: np.ndarray) -> np.ndarray:
    """W's columns (r, j of each position in ``rj``, then l) reordered to (r..., j..., l).

    W's rows stay slowest.  One np.copyto from a transposed view writes them
    into the C-ordered ``out``; unit axes move nothing, and leaving them out
    keeps the rank within numpy's limit.
    """
    dims = [len(w)] + [x for pair in rj for x in pair] + [l]
    k = len(rj)
    axes = [a for a in (0, *range(1, 2 * k, 2), *range(2, 2 * k + 1, 2), 2 * k + 1) if dims[a] > 1]
    kept = sorted(axes)
    np.copyto(out.reshape([dims[a] for a in axes]),
              w.reshape([dims[a] for a in kept]).transpose([kept.index(a) for a in axes]))
    return out


def _fidelity_kernel(ts: TypicalSubspace, states, targets=None, anc_dim: int = 1):
    """Per-sequence fidelities of JS compression of products of ``states``.

    Returns seq -> (F, None), F between each input sequence and its output.
    With ``targets`` (the original signals of extended ``states``) it returns
    seq -> (F, F_ext): F between the original sequence and the output with
    every ancilla traced out, F_ext the pre-trace fidelity.
    """
    m = ts.dim
    grams = _subspace_grams(ts, states)
    inputs = _amplitude_factors(ts, states)
    tree = None if targets is None else _suffix_tree(ts, _amplitude_factors(ts, targets, anc_dim))
    work = {}  # the traced route's buffers, grown to the largest sequence's needs

    def fidelities(seq) -> tuple[float, float | None]:
        q = prod(inputs[c].shape[1] for c in seq)
        # the rows route holds T, L and conj(L) (m x (Q + 1) each) and the
        # (Q + 1) x Q pre-trace stack; the Cholesky route up to five m x m
        # arrays: the Gram, a rejected numpy factor and the pivoted factor's
        # buffer while factoring, then T, L, conj(L), the pre-trace stack and
        # svd's copy
        if q < m:
            linalg.check_limit((3 * m + q) * (q + 1), "elements of the rows-route working set")
            t = _sequence_rows(ts, inputs, seq)
        else:
            linalg.check_limit(5 * m * m, "elements of the Cholesky-route working set")
            t = _gram_factor(_sequence_gram(ts, grams, seq))
        l = np.zeros((m, t.shape[1] + 1), dtype=np.complex128)
        l[:, :-1] = t
        l[0, -1] = np.sqrt(max(1.0 - float(np.vdot(t, t).real), 0.0))
        lc = l.conj()
        # the transposed GEMM leaves the stack L^dag T in Fortran order
        fid = linalg._trace_norm((t.T @ lc).T) ** 2
        if tree is None:
            return fid, None
        traced = min(linalg._trace_norm(_traced_stack(tree, lc, seq, work)) ** 2, 1.0)
        bounds.enforce([bounds.BoundReport("partial_trace_fidelity", fid, traced)])
        return traced, fid

    return fidelities


def _groups(rows: np.ndarray, blocks=()) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, axis=0, return_index=True, return_inverse=True)[1:] by a stable lexsort.

    The keys are the rows, each sorted within every one of ``blocks``."""
    if len(rows) <= 1:  # numpy's per-call costs would dominate a one-sequence run
        return (np.zeros(len(rows), dtype=np.intp),) * 2
    if blocks:
        rows = np.concatenate([np.sort(rows[:, b], axis=1) for b in blocks], axis=1)
    order = np.lexsort(rows.T[::-1])  # the last key sorts first
    rows = rows[order]  # the keys, sorted; unsorted ones made here are freed
    new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    ids = new.cumsum()  # made before ``inverse``, so cumsum's int64 cast of ``new`` is freed first
    ids -= 1
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = ids
    return order[new], inverse


def _simulate(probs: np.ndarray, fidelities, ts: TypicalSubspace, signals: int, sampling: str,
              mc_samples: int, seed: int) -> ProtocolResult:
    """The exact/Monte-Carlo sequence driver shared by both protocols; the records are columns.

    Exact mode weighs each of the N^L sequences of ``ts.block_length``
    signals, in lexicographic order, by its probability; Monte-Carlo mode
    weighs each distinct seeded draw, in lexicographic order, by its count.
    ``fidelities`` maps a sequence to (F, F_ext or None).  Permuting signals
    inside a block of ``ts.position_blocks`` fixes the subspace, the junk
    string and the ancilla trace, so ``fidelities`` runs once per orbit, on
    its first row, in order of first rows.
    """
    length, n, dtype = ts.block_length, len(probs), np.min_scalar_type(len(probs) - 1)
    seed, b = linalg._index(seed, "seed"), dtype.itemsize
    exact = sampling == "exact" or sampling == "auto" and n ** length <= EXACT_SEQUENCE_THRESHOLD
    if not exact:
        mc_samples = linalg._index(mc_samples, "Monte-Carlo sample count", 1)
    # a record holds its indices, the orbit grouping's keys and their sorted copy, a bool a
    # signal of comparisons and 56 B of vectors (probability, fidelity, draw count, order, first
    # rows, inverse, weights); a draw, freed before the at most min(samples, N^L) distinct
    # draws become records, holds rng.choice's float64 uniforms and int64 indices, 16 B a
    # signal, or in the draw grouping the draws, their sorted copy, a bool a signal and 32 B
    records = n ** length if exact else min(mc_samples, n ** length)
    drawn = 0 if exact else mc_samples * max(16 * length, (2 * b + 1) * length + 32)
    count = max(records * ((3 * b + 1) * length + 56), drawn)
    linalg.check_limit(-(-count // 16), "elements of the sequence records")
    if exact:  # the rows as a transposed view; np.indices takes at most 64 axes
        grid = np.indices((n,) * length, dtype) if n > 1 else np.zeros((length, 1), dtype)
        rows, draws = grid.reshape(length, -1).T, None
    else:
        rows = np.random.default_rng(seed).choice(n, (mc_samples, length), p=probs).astype(dtype)
        first, draws = _groups(rows)
        rows, draws = rows[first], np.bincount(draws)
    probability = probs.take(rows[:, 0])
    for column in rows.T[1:]:  # left to right, as prod(axis=1) multiplies
        probability *= probs.take(column)
    first, inverse = _groups(rows, ts.position_blocks)  # an orbit's rows agree once sorted
    orbits = [None] * len(first)
    for g in np.argsort(first).tolist():  # the orbits in order of their first rows
        orbits[g] = fidelities(tuple(rows[first[g]].tolist()))
    f, ext = zip(*orbits)
    fidelity = np.array(f)[inverse]
    w = probability if exact else draws / mc_samples
    avg = float(w @ fidelity)
    stderr = None if exact else float(np.sqrt(w @ (fidelity - avg) ** 2 / max(mc_samples - 1, 1)))
    return ProtocolResult(
        block_length=signals, channel_dim=ts.dim, avg_fidelity=avg, indices=rows,
        probability=probability, fidelity=fidelity, sampled=not exact, draws=draws,
        stderr=stderr, seed=seed,
        ext_avg_fidelity=None if ext[0] is None else float(w @ np.array(ext)[inverse]))


def _check_sampling(sampling: str) -> None:
    if sampling not in ("exact", "mc", "auto"):
        raise ValidationError(f"unknown sampling mode {sampling!r}")


def js_protocol(
    e0: Ensemble,
    n: int,
    *,
    eps: float | None = None,
    dim_cap: int | None = None,
    sampling: str = "auto",
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> ProtocolResult:
    """Simulate JS compression of n-long sequences from the source ensemble.

    Exact enumeration covers all |e0|^n sequences (auto mode switches to
    probability-proportional Monte-Carlo above 4096); fidelities are full
    Uhlmann fidelities between each sequence state and its decompressed
    output, averaged with sequence probabilities.
    """
    _check_sampling(sampling)
    ts = typical_subspace(ensemble_density(e0), n, eps=eps, dim_cap=dim_cap)
    kernel = _fidelity_kernel(ts, e0.states)
    return _simulate(e0.probs, kernel, ts, n, sampling, mc_samples, seed)


def extension_protocol(
    e0: Ensemble,
    n_block: int,
    assignment: ExtensionAssignment,
    k: int,
    *,
    eps: float | None = None,
    dim_cap: int | None = None,
    sampling: str = "auto",
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> ProtocolResult:
    """Extension protocol: extend block signals, JS-compress, trace ancillas.

    Fidelities are measured against the original (unextended) block
    sequences; the rate is reported per original signal.  Every sequence is
    also checked against the pre-trace fidelity on the extension ensemble,
    which partial tracing can only improve.
    """
    _check_sampling(sampling)
    linalg._index(k, "number of blocks", 1)
    e_blk = product_ensemble(e0, n_block)
    e_ext = extended_ensemble(e_blk, assignment)
    ts = typical_subspace(ensemble_density(e_ext), k, eps=eps, dim_cap=dim_cap)
    kernel = _fidelity_kernel(ts, e_ext.states, e_blk.states, assignment.ancilla_dim)
    return _simulate(e_blk.probs, kernel, ts, n_block * k, sampling, mc_samples, seed)
