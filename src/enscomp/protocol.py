"""Finite-block simulation of typical-subspace compression protocols.

``js_protocol`` runs the plain Jozsa-Schumacher scheme on a memoryless
source: project each length-n signal sequence onto the span of the m most
probable eigenvalue strings of rho^(x)n, substituting a fixed junk state on
projection failure.  ``extension_protocol`` is the same scheme run on the
extended block signals, after which the receiver traces out all ancilla
factors.

Both share one exact/Monte-Carlo sequence loop and one per-sequence fidelity
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

import itertools
from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

from . import linalg
from .errors import BoundViolationError, ValidationError
from .extopt import ExtensionAssignment, extended_ensemble
from .states import DensityMatrix, Ensemble, ensemble_density, product_ensemble

# auto sampling switches to Monte-Carlo above this many sequences
EXACT_SEQUENCE_THRESHOLD = 4096
# exact enumeration refuses more sequences (one record each) than this
EXACT_HARD_LIMIT = 65536
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


@dataclass(frozen=True)
class ProtocolResult:
    block_length: int  # signals per channel use (n for JS, n_block*k for EP)
    channel_dim: int
    avg_fidelity: float
    per_sequence: tuple[SequenceRecord, ...]
    sampled: bool
    stderr: float | None = None
    seed: int | None = None
    ext_avg_fidelity: float | None = None

    def __post_init__(self):
        if not -linalg.ATOL <= self.avg_fidelity <= 1.0 + linalg.ATOL:
            raise ValidationError(f"average fidelity {self.avg_fidelity} out of range")

    @property
    def rate(self) -> float:
        return rate_of(self.channel_dim, self.block_length)


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
    if dim_cap is not None and dim_cap < 1:
        raise ValidationError("dim_cap must be >= 1")
    if n < 1:
        raise ValidationError("block length must be >= 1")
    d = rho.dim
    linalg.check_limit(d ** n, "dimension", linalg.MAX_DIM)
    w, vecs = rho._psd_eig
    r = int(np.count_nonzero(w))  # w is descending: the zeros come last
    w, vecs = w[:r], vecs[:, :r]

    probs = _type_probs(w, n)
    levels, counts = (a[::-1] for a in np.unique(probs, return_counts=True))
    cum = np.cumsum(np.repeat(levels, counts))  # the descending floats, in order

    if eps is not None:
        hit = np.flatnonzero(cum >= 1.0 - eps - EPS_SLACK)
        m = int(hit[0]) + 1 if hit.size else len(probs)
    else:
        m = min(int(dim_cap), len(probs))

    # all levels above the m-th string's, then the first of its level: C order is lexicographic
    b = int(np.searchsorted(np.cumsum(counts), m))
    cut = np.flatnonzero(probs == levels[b])[: m - int(np.sum(counts[:b]))]
    kept = np.concatenate([np.flatnonzero(probs > levels[b]), cut])
    kept = kept[np.argsort(-probs[kept], kind="stable")]
    return TypicalSubspace(
        block_length=n,
        dim=m,
        retained_mass=float(cum[m - 1]),
        strings=np.stack(np.unravel_index(kept, (r,) * n), axis=1),
        string_probs=probs[kept],
        source_eigenvalues=w,
        source_eigenvectors=vecs,
        source_dim=d,
        position_blocks=_position_blocks(cut, int(counts[b]), r, n),
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
        # r >= 2 bounds n by log2 of the string count, so counts fit in uint8
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
    digits = np.stack(np.unravel_index(cut, (r,) * n), axis=1)
    place = r ** np.arange(n - 1, -1, -1)
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
        if traced < fid - linalg.ATOL:
            raise BoundViolationError(
                f"partial trace reduced fidelity: {traced} < {fid}"
            )
        return traced, fid

    return fidelities


def _resolve_sampling(sampling: str, n_sequences: int) -> bool:
    """Returns True for exact enumeration, False for Monte-Carlo."""
    if sampling == "exact":
        exact = True
    elif sampling == "mc":
        exact = False
    elif sampling == "auto":
        exact = n_sequences <= EXACT_SEQUENCE_THRESHOLD
    else:
        raise ValidationError(f"unknown sampling mode {sampling!r}")
    if exact:
        linalg.check_limit(n_sequences, "exactly enumerated sequences", EXACT_HARD_LIMIT)
    return exact


def _mc_draws(probs: np.ndarray, n: int, count: int, seed: int) -> dict[tuple, int]:
    if count < 1:
        raise ValidationError(f"Monte-Carlo sample count must be >= 1, got {count}")
    if seed < 0:
        raise ValidationError(f"Monte-Carlo seed must be >= 0, got {seed}")
    linalg.check_limit(count * n, "elements of the Monte-Carlo draw array")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    draws = rng.choice(len(probs), size=(count, n), p=probs)
    keys, counts = np.unique(draws, axis=0, return_counts=True)  # rows in lexicographic order
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))


def _simulate(
    probs: np.ndarray,
    length: int,
    fidelities,
    ts: TypicalSubspace,
    signals: int,
    sampling: str,
    mc_samples: int,
    seed: int,
) -> ProtocolResult:
    """The exact/Monte-Carlo sequence loop shared by both protocols.

    Exact mode weighs every sequence of ``length`` signal indices by its
    probability; Monte-Carlo mode weighs each distinct draw by its count.
    ``fidelities`` maps a sequence to (F, F_ext or None).  Permuting signals
    inside a block of ``ts.position_blocks`` fixes the subspace, the junk
    string and the ancilla trace, so ``fidelities`` runs once per orbit: on
    the first sequence whose within-block sorted key is new.
    """
    exact = _resolve_sampling(sampling, len(probs) ** length)
    if exact:
        draws = dict.fromkeys(itertools.product(range(len(probs)), repeat=length))
    else:
        draws = _mc_draws(probs, length, mc_samples, seed)
    orbits = {}
    records, ext = [], []
    for s in draws:  # lexicographic in both modes
        key = tuple(tuple(sorted(s[t] for t in block)) for block in ts.position_blocks)
        if key not in orbits:
            orbits[key] = fidelities(s)
        f, fe = orbits[key]
        records.append(SequenceRecord(s, float(np.prod(probs[list(s)])), f, draws[s]))
        ext.append(fe)
    w = np.array([r.probability if exact else r.draws / mc_samples for r in records])
    f = np.array([r.fidelity for r in records])
    avg = float(w @ f)
    stderr = None
    if not exact:
        stderr = float(np.sqrt(w @ (f - avg) ** 2 / max(mc_samples - 1, 1)))
    return ProtocolResult(
        block_length=signals,
        channel_dim=ts.dim,
        avg_fidelity=avg,
        per_sequence=tuple(records),
        sampled=not exact,
        stderr=stderr,
        seed=seed,
        ext_avg_fidelity=None if ext[0] is None else float(w @ np.array(ext)),
    )


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
    ts = typical_subspace(ensemble_density(e0), n, eps=eps, dim_cap=dim_cap)
    kernel = _fidelity_kernel(ts, e0.states)
    return _simulate(e0.probs, n, kernel, ts, n, sampling, mc_samples, seed)


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
    if k < 1:
        raise ValidationError("number of blocks must be >= 1")
    e_blk = product_ensemble(e0, n_block)
    e_ext = extended_ensemble(e_blk, assignment)
    ts = typical_subspace(ensemble_density(e_ext), k, eps=eps, dim_cap=dim_cap)
    kernel = _fidelity_kernel(ts, e_ext.states, e_blk.states, assignment.ancilla_dim)
    return _simulate(e_blk.probs, k, kernel, ts, n_block * k, sampling, mc_samples, seed)
