import numpy as np
import pytest

from qnoisebench.errors import InvalidState, NotNormalized
from qnoisebench.states import (
    DensityMatrix,
    Ket,
    check_norms,
    check_traces,
    ket_to_density,
    measurement_distribution,
    random_product_kets,
    random_product_state,
    sample_measurements,
)


def test_ket_requires_normalization():
    Ket(np.array([1.0, 0.0]))
    with pytest.raises(NotNormalized):
        Ket(np.array([1.0, 1.0]))


def test_ket_basis():
    k = Ket.basis(2, 3)
    assert k.n_qubits == 2
    assert np.allclose(k.amplitudes, [0, 0, 0, 1])


def test_density_matrix_invariants():
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.6]])).validate()
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]])).validate()
    dm = DensityMatrix.maximally_mixed(2).validate()
    assert np.isclose(dm.purity(), 0.25)


def test_ket_to_density_pure():
    amps = np.array([np.sqrt(0.8), np.sqrt(0.2)])
    rho = ket_to_density(Ket(amps))
    assert np.allclose(rho.matrix, np.outer(amps, amps))
    assert np.isclose(rho.purity(), 1.0)


def test_random_product_state_is_product():
    ket = random_product_state(3, seed=11)
    assert np.isclose(np.linalg.norm(ket.amplitudes), 1.0)
    # Product states have rank-1 single-qubit marginals.
    rho = ket_to_density(ket).matrix
    part = rho.reshape(2, 4, 2, 4)
    marginal = np.trace(part, axis1=1, axis2=3)
    eigs = np.linalg.eigvalsh(marginal)
    assert np.isclose(max(eigs), 1.0)


def test_random_product_state_seeded():
    a = random_product_state(2, seed=5).amplitudes
    b = random_product_state(2, seed=5).amplitudes
    c = random_product_state(2, seed=6).amplitudes
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_measurement_distribution_msb_convention():
    # Qubit 0 is the most significant bit: |10> has index 2.
    amps = np.zeros(4)
    amps[2] = 1.0
    dist = measurement_distribution(ket_to_density(Ket(amps)))
    assert np.allclose(dist, [0, 0, 1, 0])


def test_sample_measurements_matches_distribution():
    rho = ket_to_density(Ket(np.array([np.sqrt(0.8), np.sqrt(0.2)])))
    counts = sample_measurements(rho, shots=20000, seed=9)
    assert counts.shape == (2,)
    assert counts.sum() == 20000
    assert abs(counts[0] / 20000 - 0.8) < 0.02


def test_one_uniform_call_is_the_scalar_pair_stream():
    """uniform(lows, highs) over 2n bounds draws what n scalar (phi, cos
    theta) pairs draw, and leaves the stream at the same place."""
    for seed in range(2000):
        n = 1 + seed % 8
        lows, highs = np.tile([0.0, -1.0], n), np.tile([2.0 * np.pi, 1.0], n)
        one, pairs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = one.uniform(lows, highs)
        want = [x for _ in range(n) for x in (pairs.uniform(0.0, 2.0 * np.pi),
                                              pairs.uniform(-1.0, 1.0))]
        np.testing.assert_array_equal(got, want)
        assert one.random() == pairs.random()


def test_random_product_kets_match_the_qubit_by_qubit_kron():
    seeds = [np.random.SeedSequence((4, 0, t)).spawn(3)[0] for t in range(40)]
    for n in range(1, 9):
        got = random_product_kets(n, seeds)
        assert got.shape == (len(seeds), 2 ** n)
        for seed, amps in zip(seeds, got):
            rng = np.random.default_rng(seed)
            want = np.ones(1, dtype=np.complex128)
            for _ in range(n):
                phi = rng.uniform(0.0, 2.0 * np.pi)
                theta = np.arccos(rng.uniform(-1.0, 1.0))
                want = np.kron(want, [np.cos(theta / 2.0),
                                      np.exp(1j * phi) * np.sin(theta / 2.0)])
            np.testing.assert_allclose(amps, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(
            random_product_state(n, seed=seeds[3]).amplitudes, got[3])


def test_batch_checks_reject_broken_states():
    rhos = np.stack([np.eye(2) / 2, np.diag([0.5, 0.5 + 1e-6])])
    check_traces(rhos[:1])
    with pytest.raises(InvalidState):
        check_traces(rhos)
    kets = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.81]])
    check_norms(kets[:2])
    with pytest.raises(InvalidState):
        check_norms(kets)
    with pytest.raises(NotNormalized):
        check_norms(kets, NotNormalized)
