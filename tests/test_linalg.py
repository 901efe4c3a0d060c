import numpy as np
import pytest

from qnoisebench.linalg import (
    adjoint,
    equal_up_to_phase,
    hermitian_eigenvalues,
    is_hermitian,
    is_unitary,
    kron_all,
    max_abs,
    phase_aligned_distance,
    phase_canonical_keys,
)
from qnoisebench.errors import NotHermitian


def random_unitary(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_adjoint_involution():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(adjoint(adjoint(a)), a)
    assert np.allclose(adjoint(a), a.conj().T)


def test_kron_all_matches_sequential():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(kron_all(mats), expected)


def test_max_abs():
    assert max_abs(np.array([[1.0, -3.0], [0.5, 2.0]])) == 3.0
    assert max_abs(np.array([3 + 4j])) == 5.0


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 2j], [-2j, 0.0]]))
    assert not is_hermitian(np.array([[1.0, 2j], [2j, 0.0]]))


def test_hermitian_eigenvalues_sorted_real():
    h = np.diag([3.0, -1.0, 2.0])
    eigs = hermitian_eigenvalues(h)
    assert np.allclose(eigs, [-1.0, 2.0, 3.0])


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_unitary():
    rng = np.random.default_rng(3)
    assert is_unitary(random_unitary(4, rng))
    assert not is_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_phase_aligned_distance_ignores_global_phase():
    rng = np.random.default_rng(4)
    u = random_unitary(4, rng)
    assert phase_aligned_distance(u, np.exp(0.7j) * u) < 1e-12
    assert equal_up_to_phase(u, np.exp(-1.2j) * u)
    assert not equal_up_to_phase(u, random_unitary(4, rng))


def test_phase_canonical_keys_collapse_phases():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    batch = np.stack([u, np.exp(0.3j) * u, -u, random_unitary(2, rng)])
    keys = phase_canonical_keys(batch)
    assert keys[0] == keys[1] == keys[2]
    assert keys[3] != keys[0]


def test_phase_canonical_keys_stable_under_drift():
    # Entries tied in magnitude must not flip the anchor on 1e-12 noise.
    u = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    wobble = u + 1e-12 * np.array([[1, -1], [0, 1]])
    keys = phase_canonical_keys(np.stack([u, wobble]))
    assert keys[0] == keys[1]
