import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from enscomp import linalg
from enscomp.fidelity import (
    PureState,
    canonical_purification,
    fidelity,
    lemma_extension,
    optimal_purification,
)
from enscomp.errors import ValidationError
from enscomp.states import DensityMatrix

from conftest import (
    rand_density,
    rand_ensemble,
    rand_pure_density,
    rand_rank_density,
    rand_unitary,
)


def nested_sqrt_fidelity(rho, sigma):
    """Independent oracle: F = [Tr sqrt(sqrt(rho) sigma sqrt(rho))]^2."""
    root = scipy.linalg.sqrtm(rho.matrix)
    mid = root @ sigma.matrix @ root
    w = np.clip(np.linalg.eigvalsh((mid + mid.conj().T) / 2.0), 0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def test_fidelity_self(rng):
    rho = rand_density(rng, 3)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_pure_special_case():
    rho = DensityMatrix(np.diag([0.75, 0.25]), (2,))
    ket0 = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    assert abs(fidelity(rho, ket0) - 0.75) < 1e-12


def test_fidelity_commuting_classical():
    a = DensityMatrix(np.diag([0.9, 0.1]), (2,))
    b = DensityMatrix(np.diag([0.5, 0.5]), (2,))
    expect = (np.sqrt(0.45) + np.sqrt(0.05)) ** 2
    assert abs(fidelity(a, b) - expect) < 1e-12
    assert abs(expect - 0.8) < 1e-12


def test_fidelity_matches_nested_sqrt_form(rng):
    for _ in range(25):
        d = int(rng.integers(2, 5))
        a, b = rand_density(rng, d), rand_density(rng, d)
        assert abs(fidelity(a, b) - nested_sqrt_fidelity(a, b)) < 1e-9


def test_fidelity_symmetric_unitary_invariant(rng):
    for _ in range(25):
        d = int(rng.integers(2, 5))
        a, b = rand_density(rng, d), rand_density(rng, d)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9
        u = rand_unitary(rng, d)
        ua = DensityMatrix(u @ a.matrix @ u.conj().T, (d,))
        ub = DensityMatrix(u @ b.matrix @ u.conj().T, (d,))
        assert abs(fidelity(ua, ub) - fidelity(a, b)) < 1e-10


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(d=st.integers(1, 4), rank_a=st.integers(1, 4), rank_b=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fidelity_properties_on_rank_deficient_states(d, rank_a, rank_b, seed):
    rng = np.random.default_rng(seed)
    a = rand_rank_density(rng, d, min(rank_a, d))[0]
    b = rand_rank_density(rng, d, min(rank_b, d))[0]
    f = fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert abs(f - fidelity(b, a)) <= 1e-12
    assert abs(fidelity(a, a) - 1.0) <= 1e-12


def test_fidelity_pure_state_identity(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = rand_density(rng, d)
        psi = rand_pure_density(rng, d)
        direct = float(np.real(np.trace(rho.matrix @ psi.matrix)))
        assert abs(fidelity(rho, psi) - direct) < 1e-10


def test_fidelity_monotone_under_partial_trace(rng):
    for _ in range(20):
        a = rand_density(rng, 4, dims=(2, 2))
        b = rand_density(rng, 4, dims=(2, 2))
        ra = DensityMatrix(linalg.partial_trace(a.matrix, (2, 2), {0}), (2,))
        rb = DensityMatrix(linalg.partial_trace(b.matrix, (2, 2), {0}), (2,))
        assert fidelity(ra, rb) >= fidelity(a, b) - 1e-9


def test_fidelity_dimension_mismatch(rng):
    with pytest.raises(ValidationError):
        fidelity(rand_density(rng, 2), rand_density(rng, 3))


def test_double_concavity_block_diagonal(rng):
    # classical-quantum mixtures: F of block mixtures >= (sum p sqrt(F_i))^2
    for _ in range(5):
        e = rand_ensemble(rng, 2, 2)
        e2 = rand_ensemble(rng, 2, 2)
        blocks_a = scipy.linalg.block_diag(
            *[p * s.matrix for p, s in zip(e.probs, e.states)]
        )
        blocks_b = scipy.linalg.block_diag(
            *[p * s.matrix for p, s in zip(e.probs, e2.states)]
        )
        fa = DensityMatrix(blocks_a, (4,))
        fb = DensityMatrix(blocks_b, (4,))
        mixture = sum(
            p * np.sqrt(fidelity(a, b))
            for p, a, b in zip(e.probs, e.states, e2.states)
        ) ** 2
        assert fidelity(fa, fb) >= mixture - 1e-9


def test_canonical_purification(rng):
    psi = rand_pure_density(rng, 3)
    phi = canonical_purification(psi)
    red = linalg.partial_trace(np.outer(phi.amplitudes, phi.amplitudes.conj()), (3, 3), {0})
    assert np.abs(red - psi.matrix).max() < 1e-10

    half = canonical_purification(DensityMatrix(np.eye(2) / 2, (2,)))
    red = linalg.partial_trace(
        np.outer(half.amplitudes, half.amplitudes.conj()), (2, 2), {0}
    )
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12

    rho = rand_density(rng, 3)
    phi = canonical_purification(rho)
    red = linalg.partial_trace(np.outer(phi.amplitudes, phi.amplitudes.conj()), (3, 3), {0})
    assert np.abs(red - rho.matrix).max() < 1e-10
    # deterministic phase: first nonzero amplitude real positive
    nz = phi.amplitudes[np.flatnonzero(np.abs(phi.amplitudes) > 1e-14)[0]]
    assert abs(nz.imag) < 1e-12 and nz.real > 0


def test_optimal_purification_identity_case(rng):
    sig = rand_density(rng, 3)
    phi = canonical_purification(sig)
    phi2 = optimal_purification(sig, PureState(phi.amplitudes, (3, 3)))
    overlap = abs(np.vdot(phi.amplitudes, phi2.amplitudes)) ** 2
    assert abs(overlap - 1.0) < 1e-9
    phase = np.vdot(phi2.amplitudes, phi.amplitudes)
    assert np.abs(phi.amplitudes * (phase / abs(phase)).conj() - phi2.amplitudes).max() < 1e-7


def test_optimal_purification_known_value():
    rho = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    phi_prime = canonical_purification(DensityMatrix(np.eye(2) / 2, (2,)))
    phi = optimal_purification(rho, phi_prime)
    overlap = abs(np.vdot(phi_prime.amplitudes, phi.amplitudes)) ** 2
    assert abs(overlap - 0.5) < 1e-10


def _purification_cases(rng, d):
    """(rho, phi_prime) pairs: full rank, rank-deficient, orthogonal supports,
    sigma = rho, and a purifier of dimension rank(rho)."""
    yield rand_density(rng, d), canonical_purification(rand_density(rng, d))
    k = int(rng.integers(1, d))
    rho, u = rand_rank_density(rng, d, k)
    yield rho, canonical_purification(rand_density(rng, d))
    yield rand_density(rng, d), canonical_purification(rho)
    # sigma lives on ker(rho)
    w = rng.uniform(0.1, 1.0, size=d - k)
    sig = (u[:, k:] * (w / w.sum())) @ u[:, k:].conj().T
    yield rho, canonical_purification(DensityMatrix((sig + sig.conj().T) / 2.0, (d,)))
    yield rho, canonical_purification(rho)
    # both rank k, purifier dimension k, sigma's factor rotated on the purifier
    sig, _ = rand_rank_density(rng, d, k)
    amps = linalg.psd_factor(*linalg.psd_eig(sig.matrix)) @ rand_unitary(rng, k)
    yield rho, PureState(amps.reshape(-1), (d, k))


def test_optimal_purification_achieves_fidelity(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        for rho, phi_prime in _purification_cases(rng, d):
            sig = DensityMatrix(
                linalg.partial_trace(phi_prime.density().matrix, phi_prime.factor_dims, {0}),
                (d,),
            )
            phi = optimal_purification(rho, phi_prime)
            overlap = abs(np.vdot(phi_prime.amplitudes, phi.amplitudes)) ** 2
            assert abs(overlap - fidelity(rho, sig)) < 1e-12
            amps = phi.amplitudes.reshape(d, -1)
            assert np.abs(amps @ amps.conj().T - rho.matrix).max() < 1e-9


def test_purifications_vanish_on_the_kernel(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d))
        rho, u = rand_rank_density(rng, d, k)
        ker = u[:, k:]
        amps = canonical_purification(rho).amplitudes.reshape(d, d)
        assert np.abs(ker.conj().T @ amps).max() < 1e-12
        rpe = rand_density(rng, 2 * d, dims=(d, 2))
        ext = lemma_extension(rho, rpe)
        assert np.abs(np.kron(ker, np.eye(2)).conj().T @ ext.matrix).max() < 1e-12


def test_optimal_purification_purifier_too_small(rng):
    rho = rand_density(rng, 3)  # full rank
    small = PureState(np.array([1.0, 0, 0, 0, 0, 0]), (3, 2))
    with pytest.raises(ValidationError):
        optimal_purification(rho, small)


def test_lemma_extension_identity_case(rng):
    rpe = rand_density(rng, 4, dims=(2, 2))
    rho = DensityMatrix(linalg.partial_trace(rpe.matrix, (2, 2), {0}), (2,))
    ext = lemma_extension(rho, rpe)
    assert abs(fidelity(ext, rpe) - 1.0) < 1e-8


def test_lemma_extension_pure_system_factorizes(rng):
    psi = rand_pure_density(rng, 2)
    rpe = rand_density(rng, 4, dims=(2, 2))
    ext = lemma_extension(psi, rpe)
    anc = linalg.partial_trace(ext.matrix, (2, 2), {1})
    assert np.abs(ext.matrix - np.kron(psi.matrix, anc)).max() < 1e-8
    rho_prime = DensityMatrix(linalg.partial_trace(rpe.matrix, (2, 2), {0}), (2,))
    assert abs(fidelity(ext, rpe) - fidelity(psi, rho_prime)) < 1e-8


def test_lemma_extension_random_instances(rng):
    for _ in range(100):
        rho = rand_density(rng, 2)
        rpe = rand_density(rng, 4, dims=(2, 2))
        ext = lemma_extension(rho, rpe)
        red = linalg.partial_trace(ext.matrix, (2, 2), {0})
        assert linalg.trace_norm(red - rho.matrix) <= 1e-9
        rho_prime = DensityMatrix(linalg.partial_trace(rpe.matrix, (2, 2), {0}), (2,))
        assert abs(fidelity(ext, rpe) - fidelity(rho, rho_prime)) < 1e-8


def test_lemma_extension_reads_dims_from_its_states(rng):
    # the system dims are rho's, the ancilla dims the rest of the extension's
    rho = rand_density(rng, 4, dims=(2, 2))
    rpe = rand_density(rng, 12, dims=(2, 2, 3))
    ext = lemma_extension(rho, rpe)
    assert ext.factor_dims == (2, 2, 3)
    assert linalg.trace_norm(linalg.partial_trace(ext.matrix, (2, 2, 3), {0, 1})
                             - rho.matrix) <= 1e-9
    # an extension whose dims do not start with the system's is refused
    with pytest.raises(ValidationError, match="do not start with system dims"):
        lemma_extension(rho, rand_density(rng, 12, dims=(4, 3)))
    with pytest.raises(ValidationError, match="do not start with system dims"):
        lemma_extension(rand_density(rng, 3), rpe)
