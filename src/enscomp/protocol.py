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
V^dag A when the input rank product Q is below m, else the pivoted Cholesky
factor of the Gram product.  Y = L L^dag for L = [T, sqrt(delta) e_0], delta
= 1 - ||T||_F^2 the junk mass, and the pre-trace F is ||L^dag T||_1^2.
"""

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np
from scipy.linalg import lapack

from . import linalg
from .errors import BoundViolationError, DimensionGuardError, ValidationError
from .extopt import ExtensionAssignment, extended_ensemble
from .states import DensityMatrix, Ensemble, ensemble_density, product_ensemble

# auto sampling switches to Monte-Carlo above this many sequences
EXACT_SEQUENCE_THRESHOLD = 4096
EXACT_HARD_LIMIT = 65536
DEFAULT_MC_SAMPLES = 1024

# element budget for the per-sequence arrays of the fidelity kernel
MATERIALIZE_ELEMENT_BUDGET = 2 ** 24


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
    rate: float
    avg_fidelity: float
    per_sequence: tuple[SequenceRecord, ...]
    sampled: bool
    stderr: float | None = None
    seed: int | None = None
    ext_avg_fidelity: float | None = None

    def __post_init__(self):
        expected = rate_of(self.channel_dim, self.block_length)
        if abs(self.rate - expected) > 1e-12:
            raise ValidationError("rate inconsistent with channel_dim/block_length")
        if not -1e-9 <= self.avg_fidelity <= 1.0 + 1e-9:
            raise ValidationError(f"average fidelity {self.avg_fidelity} out of range")


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
    linalg.check_dim_guard(d ** n)
    w, vecs = linalg.psd_eig(rho.matrix)
    r = int(np.count_nonzero(w))  # w is descending: the zeros come last
    w, vecs = w[:r], vecs[:, :r]

    probs = _type_probs(w, n)
    # C order is lexicographic, so a stable sort breaks exact ties the same way.
    order = np.argsort(-probs, kind="stable")
    probs = probs[order]
    cum = np.cumsum(probs)

    if eps is not None:
        hit = np.flatnonzero(cum >= 1.0 - eps - 1e-15)
        m = int(hit[0]) + 1 if hit.size else len(probs)
    else:
        m = min(int(dim_cap), len(probs))

    return TypicalSubspace(
        block_length=n,
        dim=m,
        retained_mass=float(cum[m - 1]),
        strings=np.stack(np.unravel_index(order[:m], (r,) * n), axis=1),
        string_probs=probs[:m],
        source_eigenvalues=w,
        source_eigenvectors=vecs,
        source_dim=d,
        position_blocks=_position_blocks(probs, order, m, r, n),
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


def _position_blocks(probs, order, m: int, r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Blocks of positions whose transpositions map the kept strings onto themselves.

    ``probs`` is sorted descending and ``order`` holds the flat string
    indices.  Whole probability levels are unions of type classes, so only
    the kept part of a level cut by m can break the symmetry; the pairs that
    keep it are tested at once on integer codes.  Those pairs are already
    transitive, since (a c) = (a b)(b c)(a b).
    """
    if m == len(probs) or probs[m - 1] != probs[m]:
        return (tuple(range(n)),)
    cut = order[:m][probs[:m] == probs[m - 1]]
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
        gm *= grams[c][np.ix_(s[:, t], s[:, t])]
    return gm


def _gram_factor(g: np.ndarray) -> np.ndarray:
    """T with T T^dag = g by pivoted Cholesky, so no sqrt of rounding noise enters.

    zpstrf stops once every remaining pivot is <= m * u * max_k g_kk (u the unit
    roundoff), the kernel's one rank tolerance; the dropped PSD Schur complement,
    of trace <= m^2 * u * max_k g_kk (5e-12 at m = 222), moves into the junk mass.
    """
    c, piv, rank, info = lapack.zpstrf(g, lower=1)
    if info < 0:
        raise ValidationError(f"zpstrf rejected argument {-info}")
    return np.tril(c[:, :rank])[np.argsort(piv)]


def _amplitude_factors(ts: TypicalSubspace, states, anc_dim: int = 1) -> list[np.ndarray]:
    """Per-state E[s, j, r] = <v_s| (A (x) |j>) |r> for A A^dag = the state.

    v_s runs over the kept source eigenvectors, whose space is the state's
    space (x) an ancilla of dimension ``anc_dim`` on the fast index.
    """
    v = ts.source_eigenvectors.conj()
    v = v.reshape(-1, anc_dim, v.shape[1])
    return [np.einsum("xjs,xr->sjr", v, linalg.psd_factor(st.matrix)) for st in states]


def _sequence_rows(ts: TypicalSubspace, factors, seq) -> np.ndarray:
    """X[s, j, r] = prod_t E_{c_t}[s_t, j_t, r_t], an m x J x R array.

    The combined indices j and r put the last position slowest, which keeps
    the broadcast's inner axis long; no caller depends on their order.  The
    C-ordered product makes the reshape a view instead of a copy.
    """
    s = ts.strings
    x = np.ones((ts.dim, 1, 1), dtype=np.complex128)
    for t, c in enumerate(seq):
        f = factors[c][s[:, t]]
        x = np.multiply(f[:, :, None, :, None], x[:, None, :, None, :], order="C")
        x = x.reshape(ts.dim, x.shape[1] * x.shape[2], x.shape[3] * x.shape[4])
    return x


def _uhlmann(l: np.ndarray, x: np.ndarray) -> float:
    """F = ||stack_j L^dag X_j||_1^2, for Y = L L^dag and X as m x J x R.

    The row order of the stack does not change its singular values, so the
    j-major layout of X needs no transposed copy.
    """
    b = l.conj().T @ x.reshape(x.shape[0], -1)
    b = b.reshape(l.shape[1] * x.shape[1], x.shape[2])
    return float(np.sum(np.linalg.svd(b, compute_uv=False)) ** 2)


def _check_budget(elements: int) -> None:
    if elements > MATERIALIZE_ELEMENT_BUDGET:
        raise DimensionGuardError(
            f"per-sequence array of {elements} elements exceeds the element budget"
        )


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
    outputs = None if targets is None else _amplitude_factors(ts, targets, anc_dim)

    def fidelities(seq) -> tuple[float, float | None]:
        q = prod(inputs[c].shape[2] for c in seq)
        _check_budget(m * q if q < m else m * m)
        if outputs is not None:
            _check_budget(m * anc_dim ** len(seq) * prod(outputs[c].shape[2] for c in seq))
        if q < m:
            t = _sequence_rows(ts, inputs, seq)[:, 0, :]
        else:
            t = _gram_factor(_sequence_gram(ts, grams, seq))
        l = np.zeros((m, t.shape[1] + 1), dtype=np.complex128)
        l[:, :-1] = t
        l[0, -1] = np.sqrt(max(1.0 - float(np.vdot(t, t).real), 0.0))
        fid = _uhlmann(l, t[:, None, :])
        if outputs is None:
            return fid, None
        traced = min(_uhlmann(l, _sequence_rows(ts, outputs, seq)), 1.0)
        if traced < fid - 1e-9:
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
    if exact and n_sequences > EXACT_HARD_LIMIT:
        raise DimensionGuardError(
            f"{n_sequences} sequences exceed the exact enumeration limit"
        )
    return exact


def _mc_draws(probs: np.ndarray, n: int, count: int, seed: int) -> dict[tuple, int]:
    if count < 1:
        raise ValidationError(f"Monte-Carlo sample count must be >= 1, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    draws = rng.choice(len(probs), size=(count, n), p=probs)
    counts: dict[tuple, int] = {}
    for row in draws:
        key = tuple(int(x) for x in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


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
    for s in sorted(draws):
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
        rate=rate_of(ts.dim, signals),
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
    linalg.check_dim_guard(e_ext.dim ** k)
    ts = typical_subspace(ensemble_density(e_ext), k, eps=eps, dim_cap=dim_cap)
    kernel = _fidelity_kernel(ts, e_ext.states, e_blk.states, assignment.ancilla_dim)
    return _simulate(e_blk.probs, k, kernel, ts, n_block * k, sampling, mc_samples, seed)
