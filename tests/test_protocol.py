import dataclasses
import functools
import itertools
import math
import tracemalloc
from math import prod

import numpy as np
import pytest
from numpy.linalg import lapack_lite
from hypothesis import assume, given, settings, strategies as st

from enscomp import cli, extopt, linalg, protocol, states
from enscomp.errors import DimensionGuardError, ValidationError
from enscomp.fidelity import fidelity
from enscomp.states import DensityMatrix, Ensemble

import dense_oracle
from conftest import guard_counts, rand_density, rand_pure_density, rand_unitary, traced_peak


def zero_plus_pair():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    return Ensemble(
        [0.5, 0.5],
        (DensityMatrix(np.diag([1.0, 0.0]), (2,)),
         DensityMatrix(np.outer(plus, plus), (2,))),
    )


def orthogonal_pair():
    a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    return Ensemble([0.5, 0.5], (DensityMatrix(a, (4,)), DensityMatrix(b, (4,))))


def test_rate_of():
    assert protocol.rate_of(1, 5) == 0.0
    assert abs(protocol.rate_of(176, 10) - np.log2(176) / 10) < 1e-15
    assert abs(protocol.rate_of(2 ** 7, 7) - 1.0) < 1e-15


def test_typical_subspace_pure_source(rng):
    rho = rand_pure_density(rng, 2)
    ts = protocol.typical_subspace(rho, 5, eps=0.01)
    assert ts.dim == 1
    assert abs(ts.retained_mass - 1.0) < 1e-12
    assert ts.position_blocks == ((0, 1, 2, 3, 4),)


def test_typical_subspace_binomial_oracle():
    from math import comb

    rho = DensityMatrix(np.diag([0.9, 0.1]), (2,))
    ts = protocol.typical_subspace(rho, 10, dim_cap=176)
    mass = sum(comb(10, k) * 0.9 ** (10 - k) * 0.1 ** k for k in range(4))
    assert abs(ts.retained_mass - mass) < 1e-12
    assert ts.dim == 176
    assert abs(protocol.rate_of(ts.dim, 10) - np.log2(176) / 10) < 1e-15
    # minimal-dimension property of the mass target
    ts2 = protocol.typical_subspace(rho, 10, eps=1.0 - mass + 1e-12)
    assert ts2.dim == 176


def test_typical_subspace_flat_spectrum():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    ts = protocol.typical_subspace(rho, 4, eps=1e-9)
    assert ts.dim == 16


def test_typical_subspace_projector_invariants(rng):
    rho = rand_density(rng, 2)
    ts = protocol.typical_subspace(rho, 3, eps=0.1)
    p = dense_oracle.projector(ts)
    assert np.abs(p - p.conj().T).max() < 1e-9
    assert np.abs(p @ p - p).max() < 1e-9
    assert ts.dim == len(dense_oracle.basis_states(ts))
    rho_n = rho.matrix
    for _ in range(2):
        rho_n = np.kron(rho_n, rho.matrix)
    assert abs(np.trace(p @ rho_n).real - ts.retained_mass) < 1e-10


def test_typical_subspace_mass_monotone_in_cap(rng):
    rho = rand_density(rng, 2)
    masses = [
        protocol.typical_subspace(rho, 4, dim_cap=m).retained_mass
        for m in (1, 2, 4, 8, 16)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_typical_subspace_argument_validation(rng, monkeypatch):
    rho = rand_density(rng, 2)
    with pytest.raises(ValidationError):
        protocol.typical_subspace(rho, 2)
    with pytest.raises(ValidationError):
        protocol.typical_subspace(rho, 2, eps=0.1, dim_cap=3)
    for bad in ({"eps": -0.1}, {"eps": 1.0}, {"dim_cap": 0}):
        with pytest.raises(ValidationError):
            protocol.typical_subspace(rho, 2, **bad)
    # the probability pass of 4^8 strings counts 2 elements each
    rho4 = rand_density(rng, 4)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "ELEMENT_BUDGET", 2 * 4 ** 8 - 1)
        with pytest.raises(DimensionGuardError, match="typical subspace: 131072 exceeds"):
            protocol.typical_subspace(rho4, 8, eps=0.1)
        # a bad target is reported as such before the size guard runs
        with pytest.raises(ValidationError):
            protocol.typical_subspace(rho4, 8, eps=1.5)
    # block lengths and caps are integers of any integer type, and nothing else
    assert protocol.typical_subspace(rho, np.int64(3), dim_cap=np.int64(4)).dim == 4
    for n, cap in ((3.0, 4), (3, 4.5), ("3", 4)):
        with pytest.raises(ValidationError, match="must be an integer"):
            protocol.typical_subspace(rho, n, dim_cap=cap)
    with pytest.raises(ValidationError, match="dim_cap must be an integer, got 4.5"):
        protocol.js_protocol(zero_plus_pair(), 3, dim_cap=4.5)


def test_typical_subspace_matches_sorted_oracle(rng):
    u2, u3, u4 = rand_unitary(rng, 2), rand_unitary(rng, 3), rand_unitary(rng, 4)
    spectra = {
        "flat qubit": np.eye(2) / 2,
        "flat qutrit": np.eye(3) / 3,
        "flat d=5": np.eye(5) / 5,
        "diag(.5,.25,.25)": np.diag([0.5, 0.25, 0.25]),
        "rank-deficient": np.diag([0.5, 0.5, 0.0, 0.0]),
        "d=1": np.eye(1),
        "random": rand_density(rng, 3).matrix,
        "rotated diag(.5,.25,.25)": u3 @ np.diag([0.5, 0.25, 0.25]) @ u3.conj().T,
        "rotated rank-deficient": u4 @ np.diag([0.4, 0.3, 0.3, 0.0]) @ u4.conj().T,
    }
    targets = [{"eps": e} for e in (0.0, 0.05, 0.3)]
    targets += [{"dim_cap": c} for c in (1, 3, 4, 5, 10 ** 6)]
    # n up to 8, within the 2^14 guard on d^n, and to 4 for d = 5 (625 strings)
    n_max = {1: 8, 2: 8, 3: 8, 4: 7, 5: 4}
    cases = [(name, m, n, targets) for name, m in spectra.items()
             for n in range(1, n_max[m.shape[0]] + 1)]
    # the js-typical-biased shape: n = 14 with its type-aligned cap, and one inside a level
    biased = u2 @ np.diag([0.9, 0.1]) @ u2.conj().T
    cases.append(("biased qubit", biased, 14, [{"dim_cap": 1 + 14 + 91}, {"dim_cap": 60}]))
    tie_cuts = 0
    for name, m, n, tgts in cases:
        rho = DensityMatrix((m + m.conj().T) / 2, (m.shape[0],))
        w = protocol.typical_subspace(rho, 1, dim_cap=1).source_eigenvalues
        all_probs = dense_oracle.typical_strings(w, n, dim_cap=10 ** 6)[1]
        for target in tgts:
            ts = protocol.typical_subspace(rho, n, **target)
            strings, probs, dim, mass = dense_oracle.typical_strings(w, n, **target)
            case = (name, n, target)
            assert np.array_equal(ts.strings, strings), case
            assert np.array_equal(ts.string_probs, probs), case
            assert ts.dim == dim, case
            assert ts.retained_mass == mass, case
            assert ts.position_blocks == dense_oracle.position_blocks(strings, n), case
            tie_cuts += dim < len(all_probs) and all_probs[dim] == all_probs[dim - 1]
    # the tie rule is exercised: some caps end inside a class of equal strings
    assert tie_cuts > 0


_spectra = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
).filter(lambda ws: sum(ws) > 0.05)
_targets = st.one_of(
    st.builds(dict, eps=st.floats(0.0, 0.99)),
    st.builds(dict, dim_cap=st.integers(1, 5000)),
)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(ws=_spectra, n=st.integers(1, 6), target=_targets)
def test_typical_subspace_properties(ws, n, target):
    w = np.array(ws, dtype=float) / sum(ws)
    ts = protocol.typical_subspace(DensityMatrix(np.diag(w), (len(w),)), n, **target)
    p = ts.string_probs
    assert len(p) == ts.dim == len(ts.strings)
    assert not ts.strings[0].any()  # the junk string is fixed by every permutation
    assert np.all(np.diff(p) <= 0.0)
    cum = np.cumsum(p)
    assert ts.retained_mass == cum[-1] <= 1.0 + 1e-12
    total = len(ts.source_eigenvalues) ** n
    if "dim_cap" in target:
        assert ts.dim == min(target["dim_cap"], total)
    else:
        goal = 1.0 - target["eps"] - protocol.EPS_SLACK
        # minimal: one string fewer misses the mass target
        assert ts.dim == 1 or cum[-2] < goal
        assert ts.dim == total or cum[-1] >= goal
    # two positions share a block exactly when swapping them keeps the kept set
    kept = {tuple(x) for x in ts.strings.tolist()}
    block_of = {t: b for b in ts.position_blocks for t in b}
    assert sorted(block_of) == list(range(n))
    for a, b in itertools.combinations(range(n), 2):
        swap = {x[:a] + (x[b],) + x[a + 1:b] + (x[a],) + x[b + 1:] for x in kept}
        assert (swap == kept) == (block_of[a] == block_of[b]), (a, b)


def test_js_compress_sequence_cases(rng):
    e = zero_plus_pair()
    ts = protocol.typical_subspace(states.ensemble_density(e), 3, dim_cap=4)
    # a state already inside the subspace is unchanged
    v = dense_oracle.basis(ts)
    inside_vec = v[:, 1]
    inside = DensityMatrix(np.outer(inside_vec, inside_vec.conj()), (2, 2, 2))
    out = dense_oracle.js_compress_sequence(inside, ts)
    assert np.abs(out.matrix - inside.matrix).max() < 1e-10
    # an orthogonal state maps to the junk projector
    full = np.eye(8, dtype=complex)
    perp = full - v @ v.conj().T
    w, vec = np.linalg.eigh(perp)
    ortho_vec = vec[:, -1]
    ortho = DensityMatrix(np.outer(ortho_vec, ortho_vec.conj()), (2, 2, 2))
    out = dense_oracle.js_compress_sequence(ortho, ts)
    junk = np.outer(v[:, 0], v[:, 0].conj())
    assert np.abs(out.matrix - junk).max() < 1e-9
    # random sequence keeps unit trace and stays a valid state in the subspace
    seq = rand_density(rng, 8, dims=(2, 2, 2))
    out = dense_oracle.js_compress_sequence(seq, ts)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-10
    assert np.abs((np.eye(8) - v @ v.conj().T) @ out.matrix).max() < 1e-9


def test_js_fast_path_matches_dense_route(rng):
    e = zero_plus_pair()
    ts = protocol.typical_subspace(states.ensemble_density(e), 4, dim_cap=6)
    grams = protocol._subspace_grams(ts, e.states)
    kernel = protocol._fidelity_kernel(ts, e.states)
    for seq in [(0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1)]:
        sig = DensityMatrix(
            linalg.kron_all([e.states[c].matrix for c in seq]), (2,) * 4
        )
        dense = dense_oracle.js_compress_sequence(sig, ts)
        f_dense = fidelity(sig, dense)
        # the kernel's Q >= m route, pivoted Cholesky, forced on a rank-1 Gram
        t = protocol._gram_factor(protocol._sequence_gram(ts, grams, seq))
        assert t.shape == (6, 1)
        junk = np.sqrt(1.0 - np.vdot(t, t).real) * np.eye(6)[:, :1]
        f_fast = linalg._trace_norm(np.hstack([t, junk]).conj().T @ t) ** 2
        assert abs(f_dense - f_fast) < 1e-7
        f_rows, _ = kernel(seq)  # rank-1 signals: Q = 1 < m, the rows route
        assert abs(f_dense - f_rows) < 1e-7


def test_js_protocol_single_pure_source(rng):
    e = Ensemble([1.0], (rand_pure_density(rng, 2),))
    res = protocol.js_protocol(e, 4, eps=0.01)
    assert res.channel_dim == 1
    assert res.rate == 0.0
    assert abs(res.avg_fidelity - 1.0) < 1e-9
    # one sequence at any n, past the 64 axes np.indices takes too
    res = protocol.js_protocol(e, 70, dim_cap=1, sampling="exact")
    assert res.indices.shape == (1, 70) and abs(res.avg_fidelity - 1.0) < 1e-9


def test_js_protocol_single_state_classical_oracle():
    # everything commutes here, so the run must reproduce the classical
    # fidelity of the truncated binomial distribution exactly
    e = Ensemble([1.0], (DensityMatrix(np.diag([0.9, 0.1]), (2,)),))
    res = protocol.js_protocol(e, 10, dim_cap=176)
    ts = protocol.typical_subspace(states.ensemble_density(e), 10, dim_cap=176)
    mass = ts.retained_mass
    top = 0.9 ** 10
    closed = ((mass - top) + np.sqrt(top * (top + 1.0 - mass))) ** 2
    assert abs(res.avg_fidelity - closed) < 1e-12
    assert res.avg_fidelity >= mass ** 2 - 1e-9
    assert not res.sampled
    assert len(res.per_sequence) == 1


def test_js_protocol_closed_form_oracle():
    # for the |0>/|+> source every sequence sees the same typical mass w, so
    # avg fidelity is exactly w^2 + (1-w) * lambda^n (junk = top eigenstring)
    e = zero_plus_pair()
    lam = (2 + np.sqrt(2)) / 4
    for n, m in ((4, 6), (6, 14)):
        res = protocol.js_protocol(e, n, dim_cap=m, sampling="exact")
        ts = protocol.typical_subspace(states.ensemble_density(e), n, dim_cap=m)
        closed = ts.retained_mass ** 2 + (1 - ts.retained_mass) * lam ** n
        assert abs(res.avg_fidelity - closed) < 1e-6
        assert res.channel_dim == m


def test_js_protocol_rate_covers_compressed_support(rng):
    e = zero_plus_pair()
    n = 3
    res = protocol.js_protocol(e, n, eps=0.1)
    ts = protocol.typical_subspace(states.ensemble_density(e), n, eps=0.1)
    acc = np.zeros((8, 8), dtype=complex)
    for seq in itertools.product(range(2), repeat=n):
        p = float(np.prod(e.probs[list(seq)]))
        sig = DensityMatrix(linalg.kron_all([e.states[c].matrix for c in seq]), (2,) * 3)
        acc += p * dense_oracle.js_compress_sequence(sig, ts).matrix
    compressed = DensityMatrix(acc, (2,) * 3)
    assert res.rate >= np.log2(states.support_dim(compressed)) / n - 1e-9


def test_js_protocol_fidelity_monotone_in_subspace_size():
    e = zero_plus_pair()
    fids = [
        protocol.js_protocol(e, 4, eps=eps, sampling="exact").avg_fidelity
        for eps in (0.2, 0.1, 0.05, 0.01)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:]))


def test_mc_draws_count_rows_in_lexicographic_order():
    probs = np.array([0.5, 0.3, 0.2])
    e = Ensemble(probs, _mixed_triple(np.eye(2)).states)
    res = protocol.js_protocol(e, 4, dim_cap=5, sampling="mc", mc_samples=500, seed=3)
    rows, counts = res.indices, res.draws
    rng = np.random.default_rng(np.random.SeedSequence(entropy=3))
    expect: dict[tuple, int] = {}
    for row in rng.choice(3, size=(500, 4), p=probs):
        key = tuple(int(x) for x in row)
        expect[key] = expect.get(key, 0) + 1
    pairs = list(zip(map(tuple, rows.tolist()), counts.tolist()))
    assert dict(pairs) == expect and len(pairs) == len(expect)
    assert [key for key, _ in pairs] == sorted(expect)  # the order _simulate walks
    assert rows.dtype == np.uint8 and counts.dtype == np.intp


def _unique_draw_dict(probs, n: int, count: int, seed: int) -> dict[tuple, int]:
    """Distinct seeded draw rows and their counts through a dict of np.unique's rows."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    keys, counts = np.unique(rng.choice(len(probs), size=(count, n), p=probs), axis=0,
                             return_counts=True)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))


@pytest.mark.parametrize("n", [4, 12, 20])
def test_mc_draws_and_records_match_the_draw_dict(n):
    # the draw arrays and the Monte-Carlo records keep the rows, counts and
    # order of a dict built from np.unique's rows
    e = _mixed_triple(np.eye(2))
    probs = np.asarray(e.probs)
    expect = list(_unique_draw_dict(probs, n, 3000, 11).items())
    res = protocol.js_protocol(e, n, dim_cap=5, sampling="mc", mc_samples=3000, seed=11)
    assert list(zip(map(tuple, res.indices.tolist()), res.draws.tolist())) == expect
    assert [(r.indices, r.draws) for r in res.per_sequence] == expect
    assert [r.probability for r in res.per_sequence] == [
        float(np.prod(probs[list(key)])) for key, _ in expect]


def _loop_records(probs, kernel, ts, sampling: str, samples: int, seed: int):
    """The records and pre-trace fidelities of a loop over every sequence, memoized by orbit.

    Exact runs walk itertools.product, Monte-Carlo runs np.unique's distinct
    draws; the key of a sequence is its signals sorted within each block.
    """
    n = ts.block_length
    if sampling == "exact":
        pairs = [(s, None) for s in itertools.product(range(len(probs)), repeat=n)]
    else:
        pairs = list(_unique_draw_dict(probs, n, samples, seed).items())
    orbits, records, ext = {}, [], []
    for s, count in pairs:
        key = tuple(tuple(sorted(s[t] for t in block)) for block in ts.position_blocks)
        if key not in orbits:
            orbits[key] = kernel(s)
        records.append(protocol.SequenceRecord(s, float(np.prod(probs[list(s)])), orbits[key][0],
                                               count))
        ext.append(orbits[key][1])
    return records, ext


@pytest.mark.parametrize("sampling", ["exact", "mc"])
def test_columns_match_a_per_sequence_loop(sampling, monkeypatch):
    # The columns and the per_sequence view hold every row, probability (to
    # the bit), fidelity and draw count that a per-sequence loop makes, on JS
    # and EP runs of the mixed triple whose cut levels split the positions,
    # and the kernel sees the loop's calls in the loop's order
    calls, real_kernel = [], protocol._fidelity_kernel

    def recording_kernel(*args):
        kernel = real_kernel(*args)
        return lambda s: calls.append(s) or kernel(s)

    monkeypatch.setattr(protocol, "_fidelity_kernel", recording_kernel)
    triple, best = _minimized_triple()
    e_blk = states.product_ensemble(triple, 1)
    e_ext = extopt.extended_ensemble(e_blk, best)
    opts = dict(sampling=sampling, mc_samples=300, seed=5)
    runs = [
        (lambda: protocol.js_protocol(triple, 6, dim_cap=10, **opts),
         protocol.typical_subspace(states.ensemble_density(triple), 6, dim_cap=10),
         lambda ts: protocol._fidelity_kernel(ts, triple.states)),
        (lambda: protocol.extension_protocol(triple, 1, best, 5, eps=0.05, **opts),
         protocol.typical_subspace(states.ensemble_density(e_ext), 5, eps=0.05),
         lambda ts: protocol._fidelity_kernel(ts, e_ext.states, e_blk.states, best.ancilla_dim)),
    ]
    for run, ts, kernel in runs:
        assert 1 < len(ts.position_blocks) < ts.block_length
        calls.clear()
        res, driver_calls = run(), calls[:]
        calls.clear()
        expect, ext = _loop_records(triple.probs, kernel(ts), ts, sampling, 300, 5)
        assert driver_calls == calls and len(calls) < len(expect)
        assert res.indices.dtype == np.uint8
        assert res.indices.tolist() == [list(r.indices) for r in expect]
        assert list(map(repr, res.probability.tolist())) == [repr(r.probability) for r in expect]
        assert res.fidelity.tolist() == [r.fidelity for r in expect]
        if sampling == "exact":
            assert res.draws is None
        else:
            assert res.draws.dtype == np.intp and res.draws.tolist() == [r.draws for r in expect]
        assert res.per_sequence == tuple(expect)
        assert res.per_sequence is res.per_sequence  # built once
        # one float object per distinct fidelity, as the loop's orbits share theirs
        assert len({id(r.fidelity) for r in res.per_sequence}) == len(set(res.fidelity.tolist()))
        w = np.array([r.probability if r.draws is None else r.draws / 300 for r in expect])
        assert res.avg_fidelity == float(w @ np.array([r.fidelity for r in expect]))
        if ext[0] is None:
            assert res.ext_avg_fidelity is None
        else:
            assert res.ext_avg_fidelity == float(w @ np.array(ext))


def test_mc_draw_budget_guard_allocates_nothing():
    # rng.choice would hold 16 n B a draw, one element over the budget
    n = 12
    count = linalg.ELEMENT_BUDGET // n + 1
    tracemalloc.start()
    try:
        with pytest.raises(DimensionGuardError, match="sequence records"):
            protocol.js_protocol(zero_plus_pair(), n, dim_cap=5, sampling="mc", mc_samples=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_cholesky_working_set_guard_allocates_nothing():
    # m^2 fits the budget, but the Cholesky route holds about five m x m
    # arrays at once (Gram, a rejected numpy factor, T, L and the pre-trace
    # stack), so the guard fires before the Gram is built
    rng = np.random.default_rng(11)
    e = Ensemble([0.5, 0.5], (rand_density(rng, 2), rand_density(rng, 2)))
    ts = protocol.typical_subspace(states.ensemble_density(e), 11, dim_cap=1900)
    assert ts.dim ** 2 <= linalg.ELEMENT_BUDGET
    kernel = protocol._fidelity_kernel(ts, e.states)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionGuardError, match="Cholesky-route working set"):
            kernel((0, 1) * 5 + (0,))  # Q = 2^11 >= m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_rows_working_set_guard_allocates_nothing():
    # m Q fits the budget, but the rows route (Q < m) holds T, L and conj(L),
    # about 3 m Q elements (3.1 m Q under tracemalloc at m = 1500, Q = 128),
    # so the guard fires before the rows are gathered
    rng = np.random.default_rng(11)
    e = Ensemble([0.5, 0.5], (rand_density(rng, 4, rank=2), rand_density(rng, 4, rank=2)))
    ts = protocol.typical_subspace(states.ensemble_density(e), 9, dim_cap=11000)
    q = 2 ** 9
    assert q < ts.dim and ts.dim * q <= linalg.ELEMENT_BUDGET
    kernel = protocol._fidelity_kernel(ts, e.states)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionGuardError, match="rows-route working set"):
            kernel((0, 1) * 4 + (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_js_protocol_mc_deterministic_and_close_to_exact():
    e = zero_plus_pair()
    exact = protocol.js_protocol(e, 6, dim_cap=14, sampling="exact")
    mc1 = protocol.js_protocol(e, 6, dim_cap=14, sampling="mc", mc_samples=300, seed=4)
    mc2 = protocol.js_protocol(e, 6, dim_cap=14, sampling="mc", mc_samples=300, seed=4)
    assert mc1.avg_fidelity == mc2.avg_fidelity
    assert mc1.sampled and mc1.stderr is not None
    assert abs(mc1.avg_fidelity - exact.avg_fidelity) < max(5 * mc1.stderr, 5e-3)
    assert sum(r.draws for r in mc1.per_sequence) == 300


@pytest.mark.parametrize("samples", [0, -2])
def test_mc_sample_count_must_be_positive(samples):
    e = orthogonal_pair()
    with pytest.raises(ValidationError, match="sample count"):
        protocol.js_protocol(e, 2, eps=0.1, sampling="mc", mc_samples=samples)
    triv = extopt.trivial_assignment(e, 1, 4)
    with pytest.raises(ValidationError, match="sample count"):
        protocol.extension_protocol(e, 1, triv, 2, eps=0.1, sampling="mc",
                                    mc_samples=samples)
    # exact mode draws nothing, so the count is not used
    protocol.js_protocol(e, 2, eps=0.1, sampling="exact", mc_samples=samples)


def test_mc_seed_must_be_non_negative():
    # one seed rule for every sampling mode, though exact mode draws nothing
    e = orthogonal_pair()
    triv = extopt.trivial_assignment(e, 1, 4)
    for sampling in ("mc", "exact"):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            protocol.js_protocol(e, 2, eps=0.1, sampling=sampling, mc_samples=8, seed=-1)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            protocol.extension_protocol(e, 1, triv, 2, eps=0.1, sampling=sampling,
                                        mc_samples=8, seed=-1)


def test_unknown_sampling_mode_fails_before_any_work(monkeypatch):
    # both entry points check the mode before they build a subspace, a source
    # or a kernel
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the sampling mode was checked")

    for name in ("typical_subspace", "product_ensemble", "extended_ensemble", "_fidelity_kernel"):
        monkeypatch.setattr(protocol, name, no_work)
    e = zero_plus_pair()
    with pytest.raises(ValidationError, match="unknown sampling mode 'bogus'"):
        protocol.js_protocol(e, 20, dim_cap=5000, sampling="bogus")
    triv = extopt.trivial_assignment(e, 1, 2)
    with pytest.raises(ValidationError, match="unknown sampling mode 'bogus'"):
        protocol.extension_protocol(e, 1, triv, 2, eps=0.1, sampling="bogus")


def test_js_protocol_auto_switches_to_sampling():
    e = zero_plus_pair()
    res = protocol.js_protocol(e, 13, dim_cap=64, mc_samples=50, seed=2)
    assert res.sampled  # 2^13 sequences > 4096


def test_extension_protocol_trivial_equals_js():
    e = orthogonal_pair()
    triv = extopt.trivial_assignment(e, 1, 4)
    js = protocol.js_protocol(e, 3, eps=0.05, sampling="exact")
    ep = protocol.extension_protocol(e, 1, triv, 3, eps=0.05, sampling="exact")
    assert abs(js.rate - ep.rate) < 1e-9
    assert abs(js.avg_fidelity - ep.avg_fidelity) < 1e-9
    assert ep.block_length == 3


def test_extension_protocol_known_state_rate_zero(rng):
    e = Ensemble([1.0], (DensityMatrix(np.eye(2) / 2, (2,)),))
    pure = extopt.trivial_assignment(e, 2, purifier_dim=1)
    res = protocol.extension_protocol(e, 1, pure, 3, eps=0.01, sampling="exact")
    assert res.channel_dim == 1
    assert res.rate == 0.0
    assert abs(res.avg_fidelity - 1.0) < 1e-9


def test_extension_protocol_optimized_orthogonal_pair():
    e = orthogonal_pair()
    cfg = extopt.OptimizerConfig(
        multistarts=6, max_iters=500, seed=21, ancilla_dim=2, purifier_dim=2
    )
    res = extopt.minimize_extension_entropy(e, cfg)
    assert abs(res.best_entropy - 1.0) <= 1e-3
    ep = protocol.extension_protocol(
        e, 1, res.best_assignment, 4, eps=0.05, sampling="exact"
    )
    assert ep.rate <= 1.2
    assert ep.avg_fidelity >= 0.95
    assert ep.avg_fidelity >= ep.ext_avg_fidelity - 1e-9


def test_extension_protocol_guard(monkeypatch):
    # the extended source has rank 4, so k = 8 blocks have 4^8 strings, whose
    # probability pass counts 2 elements each; the extended ensemble fits
    e = orthogonal_pair()
    triv = extopt.trivial_assignment(e, 4)  # block dim 16
    monkeypatch.setattr(linalg, "ELEMENT_BUDGET", 2 * 4 ** 8 - 1)
    with pytest.raises(DimensionGuardError, match="typical subspace"):
        protocol.extension_protocol(e, 1, triv, 8, eps=0.05)


def test_protocol_result_invariants(rng):
    e = zero_plus_pair()
    res = protocol.js_protocol(e, 4, eps=0.1, sampling="exact")
    assert abs(res.rate - np.log2(res.channel_dim) / res.block_length) < 1e-12
    assert 0.0 <= res.avg_fidelity <= 1.0
    assert abs(sum(r.probability for r in res.per_sequence) - 1.0) < 1e-10


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(ranks=st.lists(st.integers(1, 2), min_size=1, max_size=2), n=st.integers(1, 4),
       n_block=st.integers(1, 2), k=st.integers(1, 2), anc_dim=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_rate_is_log2_dim_per_signal(ranks, n, n_block, k, anc_dim, seed, data):
    # JS and EP runs, caps below, at and above r^n, and eps targets down to 0
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, size=len(ranks))
    e = Ensemble(p / p.sum(), tuple(rand_density(rng, 2, rank=r) for r in ranks))
    e_blk = states.product_ensemble(e, n_block)
    assignment = extopt.trivial_assignment(e_blk, anc_dim)
    runs = (
        (lambda **t: protocol.js_protocol(e, n, sampling="exact", **t),
         states.ensemble_density(e), n, n),
        (lambda **t: protocol.extension_protocol(e, n_block, assignment, k, sampling="exact", **t),
         states.ensemble_density(extopt.extended_ensemble(e_blk, assignment)), k, n_block * k),
    )
    for run, rho, length, signals in runs:
        full = len(protocol.typical_subspace(rho, length, eps=0.0).source_eigenvalues) ** length
        cap = data.draw(st.integers(1, full + 2))
        for res in (run(dim_cap=cap), run(eps=data.draw(st.sampled_from([0.0, 0.01, 0.2])))):
            assert res.block_length == signals
            assert res.rate == np.log2(res.channel_dim) / signals
        assert run(dim_cap=cap).channel_dim == min(cap, full)


def _random_mixed_ensemble(rng, count):
    ranks = rng.integers(1, 3, size=count)
    p = rng.uniform(0.1, 1.0, size=count)
    return Ensemble(p / p.sum(), tuple(rand_density(rng, 2, rank=int(r)) for r in ranks))


def test_kernel_matches_dense_oracle_random_mixed():
    # Per-sequence fidelities of both routes (rows for Q < m, Gram for Q >= m)
    # against the dense oracle.  The JS budget 1e-7 is the dense route's own
    # error (psd_sqrt inside the nested-sqrt fidelity); the traced EP output
    # uses the same Uhlmann form on both sides and agrees to rounding.
    rng = np.random.default_rng(4417)
    routes = set()
    for _ in range(12):
        e = _random_mixed_ensemble(rng, int(rng.integers(2, 4)))
        ranks = [states.support_dim(s) for s in e.states]
        n = int(rng.integers(2, 5))
        cap = int(rng.integers(1, 2 ** n + 1))
        res = protocol.js_protocol(e, n, dim_cap=cap, sampling="exact")
        ts = protocol.typical_subspace(states.ensemble_density(e), n, dim_cap=cap)
        for rec in res.per_sequence:
            sig = DensityMatrix(
                linalg.kron_all([e.states[c].matrix for c in rec.indices]), (2,) * n
            )
            dense = fidelity(sig, dense_oracle.js_compress_sequence(sig, ts))
            assert abs(rec.fidelity - dense) < 1e-7
            routes.add(np.prod([ranks[c] for c in rec.indices]) < ts.dim)

        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        assignment = extopt.ExtensionAssignment(
            2, 2, q, tuple(rng.normal(size=extopt.param_count(2, q)) for _ in e.states)
        )
        e_ext = extopt.extended_ensemble(e, assignment)
        cap = int(rng.integers(1, 4 ** k + 1))
        ep = protocol.extension_protocol(e, 1, assignment, k, dim_cap=cap, sampling="exact")
        ts = protocol.typical_subspace(states.ensemble_density(e_ext), k, dim_cap=cap)
        pre = 0.0
        for rec in ep.per_sequence:
            dense = dense_oracle.ep_traced_fidelity(ts, e_ext.states, e.states, 2, rec.indices)
            assert abs(rec.fidelity - dense) < 1e-12
            ext = linalg.kron_all([e_ext.states[c].matrix for c in rec.indices])
            sig = DensityMatrix(ext, (4,) * k)
            pre += rec.probability * fidelity(
                sig, dense_oracle.js_compress_sequence(sig, ts)
            )
        assert abs(ep.ext_avg_fidelity - pre) < 1e-7
    assert routes == {True, False}


def test_fidelity_kernel_element_budget(monkeypatch):
    # per-sequence arrays over the budget end the run with DimensionGuardError
    # (CLI exit 4) before they are allocated, on both protocols and routes.
    # The kernels are built at the real budget, and a run's sequence records
    # (4 rows of 72 B at n = 2, 18 elements) are refused at 17
    e, mixed = zero_plus_pair(), orthogonal_pair()
    small, rows, chol = (
        protocol._fidelity_kernel(
            protocol.typical_subspace(states.ensemble_density(src), n, dim_cap=cap), src.states)
        for src, n, cap in ((e, 2, 3), (e, 4, 16), (mixed, 2, 4)))
    monkeypatch.setattr(linalg, "ELEMENT_BUDGET", 20)
    small((0, 1))  # rows: (3 x 3 + 1) x 2
    with pytest.raises(DimensionGuardError, match="rows-route working set"):
        rows((0, 1, 0, 1))  # rows: (3 x 16 + 1) x 2
    with pytest.raises(DimensionGuardError, match="Cholesky-route working set"):
        chol((0, 1))  # Cholesky: 5 x 4 x 4
    monkeypatch.setattr(linalg, "ELEMENT_BUDGET", 17)  # the subspace's 16 elements fit
    with pytest.raises(DimensionGuardError, match="sequence records: 18 exceeds"):
        protocol.js_protocol(e, 2, dim_cap=3, sampling="exact")
    # the extended ensemble (448 elements) is built at the real budget, so the
    # kernel's own guards are the ones that fire
    monkeypatch.undo()
    e_ext = extopt.extended_ensemble(mixed, extopt.trivial_assignment(mixed, 2, 2))
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 2, dim_cap=3)
    # the Cholesky set 5 x 3 x 3 and the traced route's block matrices (96
    # elements) fit; its level output, the root's children, the GEMM output and
    # the stack (56 per column of L) do not
    monkeypatch.setattr(linalg, "ELEMENT_BUDGET", 100)
    kernel = protocol._fidelity_kernel(ts, e_ext.states, mixed.states, 2)
    with pytest.raises(DimensionGuardError, match="traced-route array"):
        kernel((0, 0))
    with pytest.raises(DimensionGuardError, match="extended ensemble"):
        protocol.extension_protocol(mixed, 1, extopt.trivial_assignment(mixed, 2, 2), 2,
                                    dim_cap=3, sampling="exact")
    monkeypatch.setattr(linalg, "ELEMENT_BUDGET", 95)
    with pytest.raises(DimensionGuardError, match="block matrices"):
        protocol._fidelity_kernel(ts, e_ext.states, mixed.states, 2)


def test_extension_protocol_zero_plus_no_false_alarm():
    # Here tracing the ancillas gains nothing (F = F_ext), so an overshoot of
    # the pre-trace fidelity beyond 1e-9 raises a false BoundViolationError.
    e = zero_plus_pair()
    cfg = extopt.OptimizerConfig(seed=101, ancilla_dim=2, purifier_dim=2)
    best = extopt.minimize_extension_entropy(e, cfg).best_assignment
    ep = protocol.extension_protocol(e, 1, best, 6, eps=0.05, sampling="exact")
    assert ep.avg_fidelity >= ep.ext_avg_fidelity - 1e-9
    assert ep.ext_avg_fidelity >= 0.95 ** 2


def test_kernel_zero_rank_gram():
    # The zero-probability state |1> is orthogonal to the kept support |0>, so
    # every sequence holding it has the zero Gram (Q = 1 >= m = 1): its factor
    # has no columns and F = 0.
    e = Ensemble([1.0, 0.0], (DensityMatrix(np.diag([1.0, 0.0]), (2,)),
                              DensityMatrix(np.diag([0.0, 1.0]), (2,))))
    res = protocol.js_protocol(e, 2, dim_cap=1, sampling="exact")
    fids = {r.indices: r.fidelity for r in res.per_sequence}
    assert abs(fids.pop((0, 0)) - 1.0) < 1e-15
    assert fids == {(0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
    assert res.avg_fidelity == 1.0
    ep = protocol.extension_protocol(
        e, 1, extopt.trivial_assignment(e, 2, 2), 2, dim_cap=1, sampling="exact"
    )
    fids = {r.indices: r.fidelity for r in ep.per_sequence}
    assert abs(fids.pop((0, 0)) - 1.0) < 1e-15
    assert fids == {(0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
    assert abs(ep.ext_avg_fidelity - 1.0) < 1e-15


def _spy(monkeypatch, module, name: str) -> list[tuple[int, ...]]:
    """The shapes of the arrays passed to module.<name> from now on."""
    calls, real = [], getattr(module, name)

    def recorded(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("m, cols, r, j, rank, tall", [
    (15, 8, 64, 64, None, True),  # the mixed triple's unreduced traced stack: 512 x 64
    (15, 8, 64, 32, None, True),  # the mixed triple's root QR input: 256 x 64
    (15, 8, 64, 16, None, True),  # the mixed triple's reduced traced stack: 128 x 64
    (6, 3, 4, 8, None, True),  # 24 x 4
    (6, 2, 2, 2, None, True),  # 4 x 2: exactly twice as tall
    (6, 3, 6, 2, None, False),  # square 6 x 6
    (6, 3, 12, 1, None, False),  # wide 3 x 12
    (6, 3, 8, 16, 2, True),  # 48 x 8 of rank 2
    (5, 4, 8, 2, 1, False),  # 8 x 8 of rank 1
    (5, 2, 1, 8, None, False),  # one column, 16 x 1
    (5, 2, 1, 1, None, False),  # one column, 2 x 1: a rank-1 JS sequence
    (6, 3, 2, 1, None, False),  # 3 x 2: a rank-2 JS sequence
    (6, 5, 4, 1, None, False),  # 5 x 4: a rank-4 JS sequence
])
def test_uhlmann_trace_norm_matches_svd_oracle(monkeypatch, m, cols, r, j, rank, tall):
    # ||stack_j L^dag X_j||_1 against one SVD of the raw stack; a stack of
    # more than one column and at least twice as tall as wide goes through
    # one QR triangle, so the (c + 1) x c pre-trace stacks of JS never do
    rng = np.random.default_rng(m * 1000 + r * 10 + j)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    l = cplx(m, cols)
    x = cplx(m, r, j)
    if rank is not None:  # every column r mixes the same `rank` columns
        x = np.einsum("skj,kr->srj", x[:, :rank], cplx(rank, r))
    stack = np.vstack([l.conj().T @ x[:, :, i] for i in range(j)])
    want = np.sum(np.linalg.svd(stack, compute_uv=False)) ** 2
    calls = _spy(monkeypatch, linalg, "_qr_triangle")
    # C order (the QR copies it) and Fortran order (the QR overwrites it)
    for b in (stack.copy(), np.asfortranarray(stack)):
        assert abs(linalg._trace_norm(b) ** 2 - want) <= 1e-13 * want
    assert calls == [stack.shape] * 2 * tall


@pytest.mark.parametrize("m, n", [(2048, 1000), (1000, 500), (512, 100), (256, 64), (128, 64),
                                  (32, 16), (64, 2), (4, 2), (3, 1)])
def test_qr_triangle_matches_scipy_zgeqrf(m, n):
    # numpy's lapack_lite zgeqrf against scipy's: the same triangle, from a
    # C-ordered stack (copied, left as it was) and in place on a Fortran one.
    # Its fixed workspace of 64 n is at least what LAPACK's query asks for
    rng = np.random.default_rng(m * 100 + n)
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    query = np.empty(1, dtype=np.complex128)
    lapack_lite.zgeqrf(m, n, np.empty((n, m), dtype=np.complex128), m,
                       np.empty(n, dtype=np.complex128), query, -1, 0)
    assert query[0].real <= 64 * n
    want = dense_oracle.qr_triangle(a)
    c_order, f_order = a.copy(), np.asfortranarray(a)
    for b in (c_order, f_order):
        r = linalg._qr_triangle(b)
        assert r.shape == (n, n) and np.array_equal(r, np.triu(r))
        assert np.abs(r - want).max() <= 1e-14 * np.linalg.norm(a)
    assert np.array_equal(c_order, a)
    assert np.shares_memory(r, f_order)


def test_uhlmann_trace_norm_zero_rank_gram(monkeypatch):
    # test_kernel_zero_rank_gram's stacks: the pre-trace one has no columns
    # (T is m x 0), the traced one a 2 x 1 zero column after the root QR (a
    # 4 x 1 column before it); a zero stack of two columns does reach the QR
    calls = _spy(monkeypatch, linalg, "_qr_triangle")
    assert linalg._trace_norm(np.zeros((1, 0), dtype=np.complex128)) == 0.0
    assert linalg._trace_norm(np.zeros((2, 1), dtype=np.complex128, order="F")) == 0.0
    assert linalg._trace_norm(np.zeros((4, 1), dtype=np.complex128, order="F")) == 0.0
    assert calls == []
    assert linalg._trace_norm(np.zeros((4, 2), dtype=np.complex128, order="F")) == 0.0
    assert calls == [(4, 2)]


def _kernel_gram(e: Ensemble, length: int, seq, **target) -> np.ndarray:
    """The kernel's Gram V^dag sigma V for the sequence ``seq`` of ``e``'s states."""
    ts = protocol.typical_subspace(states.ensemble_density(e), length, **target)
    return protocol._sequence_gram(ts, protocol._subspace_grams(ts, e.states), seq)


def _full_rank_gram():
    rng = np.random.default_rng(8)
    pair = Ensemble([0.6, 0.4], (rand_density(rng, 2), rand_density(rng, 2)))
    return _kernel_gram(pair, 4, (0, 1, 1, 0), dim_cap=11)


def _noise_pivot_gram():
    # test_rate_is_log2_dim_per_signal's example ranks=[1, 2], n=1, n_block=2,
    # k=2, anc_dim=1, seed=2965: a rank-4 Gram of order 5 whose unpivoted
    # factor keeps a noise pivot c^2 ~ 1e-15 max_k g_kk, above the pivoted factor's stop 5 u
    rng = np.random.default_rng(2965)
    p = rng.uniform(0.1, 1.0, size=2)
    e = Ensemble(p / p.sum(), tuple(rand_density(rng, 2, rank=r) for r in (1, 2)))
    e_blk = states.product_ensemble(e, 2)
    e_ext = extopt.extended_ensemble(e_blk, extopt.trivial_assignment(e_blk, 1))
    g = _kernel_gram(e_ext, 2, (2, 3), eps=0.2)
    pivot = np.linalg.cholesky(g).diagonal().real.min() ** 2 / g.diagonal().real.max()
    assert 5 * np.finfo(float).eps / 2 < pivot < protocol.CHOLESKY_PIVOT_RTOL
    return g


def _triple_gram():
    triple, assignment = _minimized_triple()
    e_ext = extopt.extended_ensemble(triple, assignment)
    return _kernel_gram(e_ext, 6, (0, 1, 2, 0, 1, 2), eps=0.05)


@pytest.mark.parametrize("gram, m, rank, pivoted", [
    (_full_rank_gram, 11, 11, False),
    # test_js_fast_path_matches_dense_route's rank-1 Gram
    (lambda: _kernel_gram(zero_plus_pair(), 4, (0, 0, 1, 1), dim_cap=6), 6, 1, True),
    (_triple_gram, 15, 7, True),  # the mixed triple's, as ep-visible factors it
    (lambda: np.zeros((4, 4), dtype=np.complex128), 4, 0, True),
    (_noise_pivot_gram, 5, 4, True),
], ids=["full-rank", "rank-1", "triple-rank-7", "zero", "noise-pivot"])
def test_gram_factor_route(monkeypatch, gram, m, rank, pivoted):
    # Only a Gram whose unpivoted pivots all pass the sqrt(u) gate keeps
    # numpy's Cholesky factor; every other one goes to the pivoted factor,
    # once.  The pivoted factor has scipy zpstrf's rank on all five Grams
    g = gram()
    assert g.shape == (m, m)
    scale = g.diagonal().real.max()
    assert dense_oracle.zpstrf_factor(g.copy())[0].shape == (m, rank)
    t = protocol._pivoted_cholesky(g)
    assert t.shape == (m, rank)
    assert np.abs(t @ t.conj().T - g).max() <= 1e-14 * scale
    calls = _spy(monkeypatch, protocol, "_pivoted_cholesky")
    t = protocol._gram_factor(g)
    assert calls == [(m, m)] * pivoted
    assert t.shape == (m, rank)
    if not pivoted:
        assert np.array_equal(t, np.tril(t))
    assert np.abs(t @ t.conj().T - g).max() <= 1e-14 * scale


@st.composite
def _singular_grams(draw) -> np.ndarray:
    """PSD Grams B B^dag of order m <= 12 that are rank-deficient, have tied diagonals, or are zero."""
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["low-rank", "unit-entries", "repeated-rows", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "low-rank":
        r = draw(st.integers(0, m - 1))
        b = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
    elif kind == "unit-entries":  # every g_kk is exactly r
        b = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, size=(m, draw(st.integers(1, m))))]
    elif kind == "repeated-rows":  # tied diagonals and rank <= ceil(m / 2)
        rows = rng.normal(size=((m + 1) // 2, m)) + 1j * rng.normal(size=((m + 1) // 2, m))
        b = rows[rng.integers(0, len(rows), size=m)]
    else:
        b = np.zeros((m, 1))
    return (b @ b.conj().T).astype(np.complex128)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(g=_singular_grams())
def test_pivoted_cholesky_matches_zpstrf(g):
    # The pivoted factor reconstructs g as zpstrf's does and keeps zpstrf's
    # rank.  Past a Gram's rank the Schur-complement pivots are rounding
    # noise, seen up to 4 * stop on 30000 such Grams, so a count can differ
    # only by pivots of that size, which one side keeps and the other drops
    m, scale = len(g), g.diagonal().real.max()
    stop = m * (np.finfo(np.float64).eps / 2) * scale
    t = protocol._pivoted_cholesky(g)
    want, pivots = dense_oracle.zpstrf_factor(g.copy())
    for f in (t, want):
        assert np.abs(f @ f.conj().T - g).max() <= 1e-14 * scale
    rank = t.shape[1]
    if rank < len(pivots):
        assert pivots[rank:].max() <= 8 * stop
    elif rank > len(pivots):
        kept = t[:, :len(pivots)]
        assert (g - kept @ kept.conj().T).diagonal().real.max() <= 8 * stop


def test_kernel_workspace_reuse_is_order_free(monkeypatch):
    # One kernel reuses its traced-route buffers across sequences whose stacks
    # change size; forward order, reverse order and a fresh kernel per sequence
    # give the same floats, so no buffer is stale, undersized or returned.
    rng = np.random.default_rng(5)
    pair = Ensemble([0.6, 0.4], (rand_pure_density(rng, 2), rand_density(rng, 2)))
    # (source, k, cap): the orthogonal pair's stacks are 8, 16 or 24 x 8; the
    # rank-1/rank-2 qubit pair's X and stacks both change size
    for e, k, cap in ((orthogonal_pair(), 3, 6), (pair, 3, 3)):
        a = extopt.trivial_assignment(e, 2, 2)
        e_ext = extopt.extended_ensemble(e, a)
        ts = protocol.typical_subspace(states.ensemble_density(e_ext), k, dim_cap=cap)
        seqs = list(itertools.product(range(len(e)), repeat=k))

        def kernel():
            return protocol._fidelity_kernel(ts, e_ext.states, e.states, a.ancilla_dim)

        stacks, trace_norm, calls = set(), linalg._trace_norm, itertools.count()

        def traced_stacks(b):
            if next(calls) % 2:  # the kernel computes the pre-trace F first, then the traced F
                stacks.add(b.shape)
            return trace_norm(b)

        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_trace_norm", traced_stacks)
            one = kernel()
            forward = [one(s) for s in seqs]
        assert len(stacks) >= 3
        one = kernel()
        backward = [one(s) for s in reversed(seqs)][::-1]
        fresh = [kernel()(s) for s in seqs]
        assert forward == backward == fresh
        assert all(type(f) is float for fs in forward for f in fs)


def _check_traced_stack(ts, targets, anc_dim, seqs, cols, rng, l=None):
    """The suffix-tree stack against the rows-array oracle, for each sequence.

    Where the root QR applies (J' l >= 2 D R' for the D distinct last digits,
    J' and R' the ancilla and rank products of the first k - 1 positions), the
    stack is the shorter (j D R') x (r R') one with the oracle's singular
    values; elsewhere it is the oracle's stack, entry by entry.  Returns the
    tree and the set of routes taken (True: the root QR).
    """
    factors = protocol._amplitude_factors(ts, targets, anc_dim)
    tree = protocol._suffix_tree(ts, factors)
    # every level has one group per distinct suffix: equal suffixes merge
    suffixes = [{tuple(x[t:]) for x in ts.strings.tolist()} for t in range(1, ts.block_length + 1)]
    assert [level[-1][1] for level in tree[1]] == [len(x) for x in suffixes]
    d = len(set(ts.strings[:, -1].tolist()))  # the root's children
    work, routes = {}, set()
    for seq in seqs:
        lm = l if l is not None else (
            rng.normal(size=(ts.dim, cols)) + 1j * rng.normal(size=(ts.dim, cols)))
        want = dense_oracle.traced_stack(ts, factors, lm, seq)
        got = protocol._traced_stack(tree, lm.conj(), seq, work)
        assert got.flags.f_contiguous
        r, j = factors[seq[-1]].shape[1:]
        rp = prod(factors[c].shape[1] for c in seq[:-1])
        jl = prod(factors[c].shape[2] for c in seq[:-1]) * lm.shape[1]
        routes.add(jl >= 2 * d * rp)
        if jl >= 2 * d * rp:
            assert got.shape == (j * d * rp, r * rp), seq
            # every singular value, the oracle's beyond the short stack's count zero
            sv_got, sv_want = (np.linalg.svd(b, compute_uv=False) for b in (got, want))
            sv_got = np.pad(sv_got, (0, len(sv_want) - len(sv_got)))
            assert (np.abs(sv_got - sv_want) <= 1e-13 * sv_want.max()).all(), seq
        else:
            assert got.shape == want.shape, seq
            # 1e-15 of the same contraction on magnitudes, which bounds each
            # entry and the rounding of both summation orders
            scale = dense_oracle.traced_stack(ts, [np.abs(f) for f in factors], np.abs(lm), seq)
            assert (np.abs(got - want) <= 1e-15 * scale.real).all(), seq
        f_want = np.sum(np.linalg.svd(want, compute_uv=False)) ** 2
        assert abs(linalg._trace_norm(got) ** 2 - f_want) <= 1e-13 * f_want, seq
    return tree, routes


def _random_assignment(rng, e, anc_dim, purifier_dim=2):
    return extopt.ExtensionAssignment(e.dim, anc_dim, purifier_dim, tuple(
        rng.normal(size=extopt.param_count(anc_dim, purifier_dim)) for _ in e.states))


def test_traced_stack_matches_rows_oracle():
    # The suffix-tree contraction sums the same products as the m x R x J rows
    # array contracted with conj(L), in another order; where the root QR
    # applies, only the singular values are the oracle's.
    rng = np.random.default_rng(2024)
    # a cap that cuts a type class: the benchmark's mixed triple, k = 6, m = 15
    triple, assignment = _minimized_triple()
    e_ext = extopt.extended_ensemble(triple, assignment)
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 6, eps=0.05)
    assert len(ts.position_blocks) > 1
    seqs = list(itertools.product(range(3), repeat=6))[::7]
    _check_traced_stack(ts, triple.states, 2, seqs, 8, rng)
    # rank-1 and rank-2 targets in one sequence, ancillas of dimension 1 and 3, k = 1 to 3
    mixed = Ensemble([0.5, 0.5], (rand_density(rng, 2, rank=1), rand_density(rng, 2)))
    for anc_dim in (1, 3):
        e_ext = extopt.extended_ensemble(mixed, _random_assignment(rng, mixed, anc_dim))
        for k in (1, 2, 3):
            cap = int(rng.integers(1, (2 * anc_dim) ** k + 1))
            ts = protocol.typical_subspace(states.ensemble_density(e_ext), k, dim_cap=cap)
            seqs = list(itertools.product(range(2), repeat=k))
            for cols in (1, 3):
                _check_traced_stack(ts, mixed.states, anc_dim, seqs, cols, rng)
    # hand-made string sets on a rank-4 extension of the qubit pair
    e_ext = extopt.extended_ensemble(mixed, _random_assignment(rng, mixed, 2))
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 3, dim_cap=64)
    assert len(ts.source_eigenvalues) == 4
    for strings in (
        [(0, 0, 0), (1, 2, 1), (2, 1, 2), (3, 3, 3)],  # no two share a suffix
        [(0, 1, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2)],  # all share s[1:]
        [(0, 0, 0)],  # m = 1: the junk string alone
    ):
        custom = dataclasses.replace(ts, strings=np.array(strings), dim=len(strings))
        _check_traced_stack(custom, mixed.states, 2, [(0, 1, 1), (1, 0, 0)], 4, rng)
    # many groups per level: the levels split into several diagonal blocks
    zp = zero_plus_pair()
    e_ext = extopt.extended_ensemble(zp, _random_assignment(rng, zp, 2))
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 5, dim_cap=200)
    seqs = [tuple(rng.integers(0, 2, size=5)) for _ in range(4)]
    (_, levels, _), _ = _check_traced_stack(ts, zp.states, 2, seqs, 33, rng)
    assert max(len(level) for level in levels) > 1
    # test_kernel_zero_rank_gram: T has no columns, so L is the junk column e_0
    e = Ensemble([1.0, 0.0], (DensityMatrix(np.diag([1.0, 0.0]), (2,)),
                              DensityMatrix(np.diag([0.0, 1.0]), (2,))))
    e_ext = extopt.extended_ensemble(e, extopt.trivial_assignment(e, 2, 2))
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 2, dim_cap=1)
    junk = np.ones((1, 1), dtype=np.complex128)
    _check_traced_stack(ts, e.states, 2, [(0, 1), (1, 1)], 1, rng, junk)


def test_root_qr_stack_matches_svd_oracle():
    # The root QR replaces the stack sum_d E_d^T (x) M_d by sum_d E_d^T (x) R_d,
    # [M_0 ...] = Q [R_0 ...]: every singular value stays the rows-array
    # oracle's, to 1e-13 of the largest.  Each case names the route it takes.
    rng = np.random.default_rng(31)
    # the mixed triple at k = 6, a cap that cuts a type class: 512 x 64 -> 128 x 64
    triple, assignment = _minimized_triple()
    e_ext = extopt.extended_ensemble(triple, assignment)
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 6, eps=0.05)
    assert len(ts.position_blocks) > 1
    seqs = [(0, 1, 2, 0, 1, 2), (2, 2, 2, 2, 2, 2), (1, 0, 0, 2, 2, 1)]
    assert _check_traced_stack(ts, triple.states, 2, seqs, 8, rng)[1] == {True}
    mixed = Ensemble([0.5, 0.5], (rand_density(rng, 2, rank=1), rand_density(rng, 2)))
    e_ext = extopt.extended_ensemble(mixed, _random_assignment(rng, mixed, 2))
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 3, dim_cap=64)
    # D = 1: every kept string ends in the same digit
    d_one = dataclasses.replace(ts, strings=np.array([(0, 1, 2), (3, 0, 2), (2, 2, 2)]), dim=3)
    seqs = list(itertools.product(range(2), repeat=3))
    assert _check_traced_stack(d_one, mixed.states, 2, seqs, 3, rng)[1] == {True}
    # k = 1 and m = 1: the QR of one 2 x 1 child (L of two columns), declined for one
    e1 = dataclasses.replace(ts, strings=np.array([(0,)]), dim=1, block_length=1)
    assert _check_traced_stack(e1, mixed.states, 2, [(0,), (1,)], 2, rng)[1] == {True}
    assert _check_traced_stack(e1, mixed.states, 2, [(0,), (1,)], 1, rng)[1] == {False}
    # pure targets (R = 1) with ancillas of dimension 1 and 3; one column of L
    # with no ancilla leaves J' l = 1 below 2 D, so the rule declines there
    zp = zero_plus_pair()
    for anc_dim, cols, route in ((1, 1, {False}), (1, 4, {True}), (3, 1, {True})):
        e_ext = extopt.extended_ensemble(zp, _random_assignment(rng, zp, anc_dim))
        ts = protocol.typical_subspace(states.ensemble_density(e_ext), 3, dim_cap=6)
        seqs = list(itertools.product(range(2), repeat=3))
        assert _check_traced_stack(ts, zp.states, anc_dim, seqs, cols, rng)[1] == route
    # the zero Gram: L is the junk column e_0, and the reduced stack is a zero 2 x 1
    e = Ensemble([1.0, 0.0], (DensityMatrix(np.diag([1.0, 0.0]), (2,)),
                              DensityMatrix(np.diag([0.0, 1.0]), (2,))))
    e_ext = extopt.extended_ensemble(e, extopt.trivial_assignment(e, 2, 2))
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 2, dim_cap=1)
    junk = np.ones((1, 1), dtype=np.complex128)
    assert _check_traced_stack(ts, e.states, 2, [(0, 1), (1, 1)], 1, rng, junk)[1] == {True}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(ranks=st.lists(st.integers(1, 2), min_size=1, max_size=3), anc_dim=st.integers(1, 3),
       purifier_dim=st.integers(1, 2), k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_partial_trace_never_lowers_fidelity(ranks, anc_dim, purifier_dim, k, seed, data):
    # random small extension runs: no false alarm, F in [0, 1], and the traced
    # average at least the pre-trace one
    assume(anc_dim * purifier_dim >= max(ranks))  # the register holds each signal's support
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, size=len(ranks))
    e = Ensemble(p / p.sum(), tuple(rand_density(rng, 2, rank=r) for r in ranks))
    cap = data.draw(st.integers(1, (2 * anc_dim) ** k))
    assignment = _random_assignment(rng, e, anc_dim, purifier_dim)
    res = protocol.extension_protocol(e, 1, assignment, k, dim_cap=cap, sampling="exact")
    assert all(0.0 <= r.fidelity <= 1.0 for r in res.per_sequence)
    assert res.ext_avg_fidelity <= res.avg_fidelity + linalg.ATOL


def test_kernel_one_dimensional_source():
    one = DensityMatrix(np.ones((1, 1)), (1,))
    res = protocol.js_protocol(Ensemble([0.4, 0.6], (one, one)), 3, eps=0.0, sampling="exact")
    assert res.channel_dim == 1 and res.rate == 0.0
    assert all(abs(r.fidelity - 1.0) < 1e-15 for r in res.per_sequence)


@pytest.mark.parametrize("extra", [0, 5])
def test_kernel_cap_at_or_above_full_dimension(extra):
    # m = r^n keeps the whole support, so compression is lossless: F = 1 on a
    # full-rank qubit source and on rank-2 qutrit states with one shared support
    rng = np.random.default_rng(314)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    embedded = tuple(
        DensityMatrix(u[:, :2] @ rand_density(rng, 2).matrix @ u[:, :2].conj().T, (3,))
        for _ in range(2)
    )
    for e in (_random_mixed_ensemble(rng, 3), Ensemble([0.5, 0.5], embedded)):
        res = protocol.js_protocol(e, 3, dim_cap=8 + extra, sampling="exact")
        assert res.channel_dim == 8
        assert all(abs(r.fidelity - 1.0) < 1e-12 for r in res.per_sequence)
    e = _random_mixed_ensemble(rng, 2)
    assignment = extopt.ExtensionAssignment(
        2, 2, 2, tuple(rng.normal(size=extopt.param_count(2, 2)) for _ in e.states)
    )
    ep = protocol.extension_protocol(e, 1, assignment, 2, dim_cap=16 + extra, sampling="exact")
    assert ep.channel_dim == 16
    assert abs(ep.avg_fidelity - 1.0) < 1e-12 and abs(ep.ext_avg_fidelity - 1.0) < 1e-12


# Bloch vectors and probabilities of the benchmark's mixed-qubit triple
TRIPLE_BLOCH = ((-0.298, 0.090, -0.615), (0.666, -0.264, 0.251), (-0.059, -0.128, -0.301))
TRIPLE_PROBS = (0.209, 0.380, 0.411)


def _mixed_triple(u):
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    return Ensemble(TRIPLE_PROBS, tuple(
        DensityMatrix(u @ (np.eye(2) + sum(b * p for b, p in zip(bloch, paulis))) @ u.conj().T / 2,
                      (2,))
        for bloch in TRIPLE_BLOCH
    ))


def test_pretrace_fidelity_matches_rows_oracle():
    # Full-rank inputs give Q >= m, the pivoted-Cholesky route.  The rows
    # oracle needs no square root of a computed matrix, so both sides agree
    # far inside the dense route's 1e-7.
    rng = np.random.default_rng(2718)
    for _ in range(6):
        d = int(rng.integers(2, 4))
        e = Ensemble([0.3, 0.7], tuple(rand_density(rng, d) for _ in range(2)))
        n = int(rng.integers(2, 4))
        cap = int(rng.integers(1, d ** n + 1))
        res = protocol.js_protocol(e, n, dim_cap=cap, sampling="exact")
        ts = protocol.typical_subspace(states.ensemble_density(e), n, dim_cap=cap)
        for rec in res.per_sequence:
            want = dense_oracle.pretrace_fidelity(ts, e.states, rec.indices)
            assert abs(rec.fidelity - want) < 1e-10

    triple = _mixed_triple(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0])
    cfg = extopt.OptimizerConfig(multistarts=2, seed=101, ancilla_dim=2, purifier_dim=2)
    random = extopt.ExtensionAssignment(
        2, 2, 2, tuple(rng.normal(size=extopt.param_count(2, 2)) for _ in triple.states)
    )
    for assignment in (extopt.minimize_extension_entropy(triple, cfg).best_assignment, random):
        e_ext = extopt.extended_ensemble(triple, assignment)
        for k in (3, 4):
            ep = protocol.extension_protocol(triple, 1, assignment, k, eps=0.05, sampling="exact")
            ts = protocol.typical_subspace(states.ensemble_density(e_ext), k, eps=0.05)
            want = sum(
                r.probability * dense_oracle.pretrace_fidelity(ts, e_ext.states, r.indices)
                for r in ep.per_sequence
            )
            assert abs(ep.ext_avg_fidelity - want) < 1e-10


@functools.cache
def _minimized_triple():
    """The mixed triple in a seeded basis and its minimized extension."""
    rng = np.random.default_rng(1729)
    triple = _mixed_triple(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0])
    cfg = extopt.OptimizerConfig(multistarts=2, seed=101, ancilla_dim=2, purifier_dim=2)
    return triple, extopt.minimize_extension_entropy(triple, cfg).best_assignment


def test_sequence_gram_matches_ix_gather():
    # contiguous takes multiply the same elements in the same order as np.ix_
    triple, assignment = _minimized_triple()
    e_ext = extopt.extended_ensemble(triple, assignment)
    ts = protocol.typical_subspace(states.ensemble_density(e_ext), 6, eps=0.05)
    assert ts.dim == 15
    grams = protocol._subspace_grams(ts, e_ext.states)
    for seq in itertools.product(range(3), repeat=6):
        want = dense_oracle.sequence_gram(ts, grams, seq)
        assert np.array_equal(protocol._sequence_gram(ts, grams, seq), want), seq
    # the js-typical-biased shape, n = 14 and m = C(14,0) + C(14,1) + C(14,2), two signals
    rng = np.random.default_rng(14)
    e = Ensemble([0.6, 0.4], (rand_density(rng, 2), rand_density(rng, 2)))
    ts = protocol.typical_subspace(states.ensemble_density(e), 14, dim_cap=1 + 14 + 91)
    grams = protocol._subspace_grams(ts, e.states)
    for seq in [(0,) * 14, (1,) * 14] + [tuple(rng.integers(0, 2, size=14)) for _ in range(8)]:
        want = dense_oracle.sequence_gram(ts, grams, seq)
        assert np.array_equal(protocol._sequence_gram(ts, grams, seq), want), seq


def _counted_run(monkeypatch, run, per_sequence=False):
    """(result, kernel calls, position blocks) of ``run()``.

    ``per_sequence`` makes every block a singleton, so the driver calls the
    kernel once per sequence.
    """
    calls, blocks = [], []
    kernel, subspace = protocol._fidelity_kernel, protocol.typical_subspace

    def counted_kernel(*args, **kwargs):
        fidelities = kernel(*args, **kwargs)
        return lambda seq: calls.append(seq) or fidelities(seq)

    def recorded_subspace(*args, **kwargs):
        ts = subspace(*args, **kwargs)
        if per_sequence:
            singles = tuple((t,) for t in range(ts.block_length))
            ts = dataclasses.replace(ts, position_blocks=singles)
        blocks.append(ts.position_blocks)
        return ts

    with monkeypatch.context() as mp:
        mp.setattr(protocol, "_fidelity_kernel", counted_kernel)
        mp.setattr(protocol, "typical_subspace", recorded_subspace)
        result = run()
    return result, len(calls), blocks[-1]


def test_orbit_memo_matches_per_sequence_loop(monkeypatch):
    # One kernel call per orbit of within-block permutations gives every
    # sequence the value its own call gives, exact and Monte-Carlo, JS and EP.
    rng = np.random.default_rng(1618)
    runs = []
    for _ in range(5):
        e = _random_mixed_ensemble(rng, 3)
        n = int(rng.integers(3, 6))
        cap = int(rng.integers(2, 2 ** n))
        assignment = extopt.ExtensionAssignment(
            2, 2, 2, tuple(rng.normal(size=extopt.param_count(2, 2)) for _ in e.states)
        )
        k = int(rng.integers(2, 5))
        ep_cap = int(rng.integers(2, 4 ** k))
        for sampling in ("exact", "mc"):
            opts = dict(sampling=sampling, mc_samples=200, seed=int(rng.integers(100)))
            runs.append(functools.partial(protocol.js_protocol, e, n, dim_cap=cap, **opts))
            runs.append(functools.partial(
                protocol.extension_protocol, e, 1, assignment, k, dim_cap=ep_cap, **opts
            ))
    triple, best = _minimized_triple()
    for sampling in ("exact", "mc"):
        runs.append(functools.partial(
            protocol.extension_protocol, triple, 1, best, 5, eps=0.05, sampling=sampling,
            mc_samples=300, seed=3,
        ))
    partial = 0
    for run in runs:
        memo, calls, blocks = _counted_run(monkeypatch, run)
        loop, loop_calls, _ = _counted_run(monkeypatch, run, per_sequence=True)
        assert loop_calls == len(loop.per_sequence) == len(memo.per_sequence)
        assert calls <= loop_calls
        for a, b in zip(memo.per_sequence, loop.per_sequence):
            assert (a.indices, a.probability, a.draws) == (b.indices, b.probability, b.draws)
            assert abs(a.fidelity - b.fidelity) < 1e-12
        assert abs(memo.avg_fidelity - loop.avg_fidelity) < 1e-12
        if memo.ext_avg_fidelity is not None:
            assert abs(memo.ext_avg_fidelity - loop.ext_avg_fidelity) < 1e-12
        if memo.sampled:
            assert abs(memo.stderr - loop.stderr) < 1e-12
        partial += 1 < len(blocks) < sum(map(len, blocks))
    # the cut classes of some runs are only partly symmetric
    assert partial >= 4


def test_orbit_memo_kernel_calls(monkeypatch):
    # The orthogonal pair's optimized subspace keeps whole levels at k = 4, so
    # one call per type: C(4 + 1, 1) = 5.  The mixed triple's eps cut at k = 6
    # keeps blocks {0}, {1}, {2, 3}, {4, 5}: 3 * 3 * 6 * 6 = 324 orbits of 729.
    e = orthogonal_pair()
    cfg = extopt.OptimizerConfig(multistarts=6, seed=21, ancilla_dim=2, purifier_dim=2)
    best = extopt.minimize_extension_entropy(e, cfg).best_assignment
    run = functools.partial(protocol.extension_protocol, e, 1, best, 4, eps=0.05, sampling="exact")
    res, calls, blocks = _counted_run(monkeypatch, run)
    assert (calls, len(res.per_sequence), blocks) == (5, 16, ((0, 1, 2, 3),))
    triple, best = _minimized_triple()
    run = functools.partial(protocol.extension_protocol, triple, 1, best, 6, eps=0.05,
                            sampling="exact")
    res, calls, blocks = _counted_run(monkeypatch, run)
    assert (calls, len(res.per_sequence), blocks) == (324, 729, ((0,), (1,), (2, 3), (4, 5)))


def _biased_qubit_subspace(n: int, cut: bool):
    """typical_subspace on diag(0.9, 0.1): the levels below n / 2, and half the next if ``cut``."""
    cap = sum(math.comb(n, j) for j in range(n // 2)) + cut * math.comb(n, n // 2) // 2
    rho = DensityMatrix(np.diag([0.9, 0.1]), (2,))
    return lambda: protocol.typical_subspace(rho, n, dim_cap=cap)


def _exact_zero_plus(n: int):
    """js_protocol on |0>/|+> at the benchmark's cap 2^(0.65 n), every sequence enumerated."""
    return lambda: protocol.js_protocol(zero_plus_pair(), n, dim_cap=int(2 ** (0.65 * n)),
                                        sampling="exact")


def _mc_triple(samples: int):
    """Monte-Carlo js_protocol on the mixed triple at n = 12: nearly every draw is distinct."""
    return lambda: protocol.js_protocol(_mixed_triple(np.eye(2)), 12, dim_cap=5, sampling="mc",
                                        mc_samples=samples)


def _mc_zero_plus(n: int, samples: int):
    """Monte-Carlo js_protocol on |0>/|+> at cap 1: at most 2^n of the draws are distinct."""
    return lambda: protocol.js_protocol(zero_plus_pair(), n, dim_cap=1, sampling="mc",
                                        mc_samples=samples)


def _json_run(tmp_path, n: int):
    """``enscomp simulate-js`` of ``_exact_zero_plus(n)`` with JSON output to a file."""
    path = tmp_path / "zero-plus.json"
    cli.save_ensemble(zero_plus_pair(), str(path))
    argv = ["simulate-js", str(path), "--n", str(n), "--dim-cap", str(int(2 ** (0.65 * n))),
            "--sampling", "exact", "--format", "json", "--out", str(tmp_path / "out.json")]
    return lambda: cli.main(argv)


@pytest.mark.parametrize("what, call", [
    ("typical subspace", lambda tmp: _biased_qubit_subspace(16, cut=False)),
    ("typical subspace", lambda tmp: _biased_qubit_subspace(16, cut=True)),
    ("sequence records", lambda tmp: _exact_zero_plus(14)),
    ("sequence records", lambda tmp: _mc_triple(20000)),
    ("kron_all", lambda tmp: lambda: linalg.kron_all(
        [np.full((8, 8), 0.125, dtype=complex)] * 3)),
    ("sequence records", lambda tmp: _json_run(tmp, 14)),
    ("sequence records", lambda tmp: _mc_zero_plus(1, 2 * 10 ** 6)),
    ("sequence records", lambda tmp: _mc_zero_plus(2, 3 * 10 ** 6)),
    ("sequence records", lambda tmp: _mc_zero_plus(12, 1100000)),
], ids=["typical-whole-levels", "typical-cut-level", "exact-records", "mc-records", "kron",
        "json-emission", "mc-draws-1", "mc-draws-2", "mc-draws-12"])
def test_resource_guard_counts_bound_traced_peaks(monkeypatch, tmp_path, what, call):
    # each count is at least the complex elements (16 bytes) its call holds at
    # its traced peak, give or take 16 KiB of Python objects.  A JSON run
    # streams the records it is given, so their count bounds the whole run.
    # The exact runs are at n = 14: at n = 12 |0>/|+> peaks in typical_subspace
    # Monte-Carlo runs of few distinct draws peak in the draw stage: at 35.4
    # and 37.0 B a draw in the draw grouping at n = 1 and 2, more than
    # rng.choice's 16 n B, and at rng.choice's 192 B a draw at n = 12
    run = call(tmp_path)
    counts = guard_counts(monkeypatch)
    peak = traced_peak(run)
    assert 16 * counts[what] + 2 ** 14 >= peak


def test_exact_driver_peak_is_below_three_times_its_columns():
    # the 2^20 rows of |0>/|+> at n = 20 come from np.indices in uint8 and
    # their probabilities are multiplied column by column, so no int64 digit
    # array or float64 gather of N^L x L elements is made (5.2x the columns
    # when they were)
    res = []
    peak = traced_peak(lambda: res.append(
        protocol.js_protocol(zero_plus_pair(), 20, dim_cap=22, sampling="exact")))
    columns = sum(a.nbytes for a in (res[0].indices, res[0].probability, res[0].fidelity))
    assert res[0].indices.dtype == np.uint8 and len(res[0].indices) == 2 ** 20
    assert peak < 3 * columns


@pytest.mark.parametrize("what, budget, call", [
    ("typical subspace", None, lambda tmp: _biased_qubit_subspace(24, cut=False)),
    ("typical subspace", 2 ** 17, lambda tmp: _biased_qubit_subspace(14, cut=True)),
    ("kron_all", None, lambda tmp: lambda: linalg.kron_all(
        [np.eye(2 ** 7, dtype=complex)] * 2)),
    ("sequence records", 10 ** 5, lambda tmp: _exact_zero_plus(14)),
    ("sequence records", 10 ** 4, lambda tmp: _mc_triple(2500)),
], ids=["typical-pass", "typical-strings", "kron", "exact-records", "mc-records"])
def test_resource_guard_refusals_allocate_nothing(monkeypatch, tmp_path, what, budget, call):
    # a refused call holds less than 1 MiB: every count is taken before what it
    # counts is allocated, at the real budget or at one the call's other counts
    # fit.  The Monte-Carlo records are counted with their draws, before the
    # 2500 draws are made
    run = call(tmp_path)
    if budget is not None:
        monkeypatch.setattr(linalg, "ELEMENT_BUDGET", budget)

    def refused():
        with pytest.raises(DimensionGuardError, match=what):
            run()

    assert traced_peak(refused) < 2 ** 20
