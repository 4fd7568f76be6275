import tracemalloc

import numpy as np
import pytest

from enscomp import linalg
from enscomp.states import DensityMatrix, Ensemble


def rand_density(rng, dim, dims=None, rank=None) -> DensityMatrix:
    """Ginibre-random density matrix, optionally rank-limited."""
    cols = dim if rank is None else rank
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims or (dim,))


def rand_pure_density(rng, dim, dims=None) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims or (dim,))


def rand_unitary(rng, dim) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_rank_density(rng, dim, rank, dims=None):
    """rho = U diag(w, 0, ...) U^dag with Haar U; returns rho and U.

    The last ``dim - rank`` columns of U span the kernel of rho.
    """
    w = np.zeros(dim)
    w[:rank] = rng.uniform(0.1, 1.0, size=rank)
    u = rand_unitary(rng, dim)
    m = (u * (w / w.sum())) @ u.conj().T
    return DensityMatrix((m + m.conj().T) / 2.0, dims or (dim,)), u


def rand_ensemble(rng, dim, count, pure=False) -> Ensemble:
    p = rng.uniform(0.1, 1.0, size=count)
    p /= p.sum()
    maker = rand_pure_density if pure else rand_density
    return Ensemble(p, tuple(maker(rng, dim) for _ in range(count)))


def guard_counts(monkeypatch) -> dict:
    """Records the largest count each element guard checks, by what it counts."""
    counts = {}
    check = linalg.check_limit

    def recording(count, what):
        key = what.removeprefix("elements of ").removeprefix("the ")
        counts[key] = max(count, counts.get(key, 0))
        check(count, what)

    monkeypatch.setattr(linalg, "check_limit", recording)
    return counts


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
