import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enscomp import linalg
from enscomp.errors import DimensionGuardError, ValidationError

from conftest import rand_density, rand_unitary


def test_tensor_product_identities():
    i2 = np.eye(2)
    assert np.array_equal(linalg.tensor_product(i2, i2), np.eye(4))
    out = linalg.tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_product_index_formula(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    k = linalg.tensor_product(a, b)
    # entry (2,3) = A[1,1] * B[0,1] under 0-based indexing
    assert abs(k[2, 3] - a[1, 1] * b[0, 1]) < 1e-15
    for i in range(4):
        for j in range(4):
            assert abs(k[i, j] - a[i // 2, j // 2] * b[i % 2, j % 2]) < 1e-15


def test_tensor_product_associative(rng):
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    left = linalg.tensor_product(linalg.tensor_product(mats[0], mats[1]), mats[2])
    right = linalg.tensor_product(mats[0], linalg.tensor_product(mats[1], mats[2]))
    assert np.abs(left - right).max() < 1e-12


def test_tensor_product_guard(monkeypatch):
    big = np.eye(2 ** 8)
    with pytest.raises(DimensionGuardError):
        linalg.tensor_product(big, big)
    # custom limit
    monkeypatch.setattr(linalg, "MAX_DIM", 16)
    linalg.tensor_product(np.eye(4), np.eye(4))
    monkeypatch.setattr(linalg, "MAX_DIM", 15)
    with pytest.raises(DimensionGuardError):
        linalg.tensor_product(np.eye(4), np.eye(4))


def test_partial_trace_product_state(rng):
    rho = rand_density(rng, 2).matrix
    sig = rand_density(rng, 3).matrix
    out = linalg.partial_trace(np.kron(rho, sig), (2, 3), {0})
    assert np.abs(out - rho * np.trace(sig)).max() < 1e-10


def test_partial_trace_maximally_entangled():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    out = linalg.partial_trace(proj, (2, 2), {1})
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_index_sum(rng):
    rho = rand_density(rng, 4).matrix
    out = linalg.partial_trace(rho, (2, 2), {0})
    expect = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            expect[a, b] = sum(rho[2 * a + k, 2 * b + k] for k in range(2))
    assert np.abs(out - expect).max() < 1e-12
    assert abs(np.trace(out) - np.trace(rho)) < 1e-12


def test_partial_trace_shape_error(rng):
    with pytest.raises(ValidationError):
        linalg.partial_trace(np.eye(4), (2, 3), {0})
    with pytest.raises(ValidationError):
        linalg.partial_trace(np.eye(4), (2, 2), set())


def test_hermitian_eig_diagonal():
    dec = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])


def test_hermitian_eig_pauli_x():
    dec = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, -1.0])


def test_hermitian_eig_reconstruction(rng):
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = g + g.conj().T
    dec = linalg.hermitian_eig(h)
    v = dec.eigenvectors
    assert np.abs((v * dec.eigenvalues) @ v.conj().T - h).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-10
    assert abs(dec.eigenvalues.sum() - np.trace(h).real) < 1e-10 * max(
        1.0, abs(np.trace(h).real)
    )


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_diagonal():
    assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_random(rng):
    p = rand_density(rng, 4).matrix
    r = linalg.psd_sqrt(p)
    assert np.abs(r @ r - p).max() < 1e-9
    assert np.abs(r - r.conj().T).max() < 1e-9


def test_psd_sqrt_iterated(rng):
    p = rand_density(rng, 3).matrix
    r = linalg.psd_sqrt(linalg.psd_sqrt(p))
    fourth = np.linalg.matrix_power(r, 4)
    assert np.abs(fourth - p).max() < 1e-8


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValidationError):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(ValidationError):
        linalg.psd_sqrt(np.diag([1.0, -2.0 * linalg.PSD_ATOL]))
    # rounding within PSD_ATOL clips to zero
    assert np.array_equal(
        linalg.psd_sqrt(np.diag([1.0, -0.5 * linalg.PSD_ATOL])), np.diag([1.0, 0.0])
    )


def test_psd_factor_keeps_only_the_rank(rng):
    p = rand_density(rng, 4, rank=2).matrix
    f = linalg.psd_factor(p)
    assert f.shape == (4, 2)
    assert np.abs(f @ f.conj().T - p).max() < 1e-12
    r = linalg.psd_sqrt(p)
    assert np.abs(f @ f.conj().T - r @ r).max() < 1e-12


# spectra mixing O(1) eigenvalues with eigh-noise-sized ones, exact zeros and
# negative rounding within PSD_ATOL
_psd_spectra = st.lists(
    st.one_of(
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1e-12),
        st.just(0.0),
        st.floats(-0.5 * linalg.PSD_ATOL, 0.0),
    ),
    min_size=1,
    max_size=5,
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(spectrum=_psd_spectra, seed=st.integers(0, 2 ** 32 - 1))
def test_psd_eig_policy(spectrum, seed):
    d = len(spectrum)
    u = rand_unitary(np.random.default_rng(seed), d)
    h = (u * np.array(spectrum)) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    raw = linalg.hermitian_eig(h).eigenvalues
    w, v = linalg.psd_eig(h)
    assert np.all(np.diff(w) <= 0.0) and np.all(w >= 0.0)
    cut = w[0] * linalg.RANK_RTOL
    assert np.array_equal(w == 0.0, raw <= cut)
    assert np.array_equal(w[w > 0.0], raw[raw > cut])
    # budget: the zeroed eigenvalues plus the backward error of eigh
    zeroed = np.abs(raw[w == 0.0])
    budget = (zeroed.max() if zeroed.size else 0.0) + 1e-14 * max(1.0, np.abs(raw).max())
    assert np.linalg.norm((v * w) @ v.conj().T - h, 2) <= budget


def test_singular_values_cases(rng):
    assert np.allclose(linalg.singular_values(np.diag([2.0, -3.0])), [3.0, 2.0])
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    sv = linalg.singular_values(np.outer(u, v.conj()))
    assert abs(sv[0] - 1.0) < 1e-12 and np.all(sv[1:] < 1e-12)


def test_singular_values_gram_oracle(rng):
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    sv = linalg.singular_values(m)
    gram_eigs = np.sqrt(np.clip(np.linalg.eigvalsh(m.conj().T @ m), 0, None))[::-1]
    assert np.abs(sv - gram_eigs[: len(sv)]).max() < 1e-10
    assert abs((sv ** 2).sum() - np.linalg.norm(m) ** 2) < 1e-10 * np.linalg.norm(m) ** 2


def test_rejects_non_finite():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        linalg.singular_values(bad)
