import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnoisebench

from qnoisebench.errors import InvalidParams, InvalidState, NotNormalized
from qnoisebench.states import (
    ChildSeed,
    DensityMatrix,
    Ket,
    check_norms,
    check_traces,
    ket_to_density,
    measurement_distribution,
    product_kets,
    random_product_factors,
    random_product_kets,
    random_product_state,
    sample_measurements,
    spawn_children,
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
    dm = DensityMatrix(np.eye(4) / 4).validate()
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


@pytest.mark.parametrize("shots", [0, -1, 2.5, True, np.float64(3.0)])
def test_sample_measurements_needs_an_integer_shot_count(shots):
    """A fraction or a bool is not a shot count: no silent truncation."""
    with pytest.raises(InvalidParams, match="shots"):
        sample_measurements(DensityMatrix.basis(1, 0), shots, seed=0)


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
    traces = np.trace(rhos, axis1=1, axis2=2)
    check_traces(traces[:1])
    with pytest.raises(InvalidState):
        check_traces(traces)
    kets = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.81]])
    check_norms(kets[:2])
    with pytest.raises(InvalidState):
        check_norms(kets)
    with pytest.raises(NotNormalized):
        check_norms(kets, NotNormalized)


def test_nan_states_fail_every_check():
    """A NaN compares False against any tolerance, so each check must ask
    for a deviation within it rather than for one beyond it: an all-NaN
    batch, or one NaN among good states, raises InvalidState."""
    with pytest.raises(InvalidState):
        check_traces(np.full(3, np.nan))
    with pytest.raises(InvalidState):
        check_traces(np.array([1.0, np.nan]))
    with pytest.raises(InvalidState):
        check_norms(np.full((2, 4), np.nan))
    with pytest.raises(InvalidState):
        check_norms(np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(NotNormalized):
        Ket(np.array([np.nan, 0.0]))
    with pytest.raises(InvalidState):
        measurement_distribution(DensityMatrix(np.full((2, 2), np.nan)))
    with pytest.raises(InvalidState):
        measurement_distribution(DensityMatrix(np.diag([np.inf, 0.0])))


def test_random_product_kets_are_the_products_of_their_factors():
    """`random_product_kets` is `product_kets` of `random_product_factors`,
    and each factor is a unit qubit ket."""
    seeds = [np.random.SeedSequence((2, 1, t)) for t in range(5)]
    factors = random_product_factors(3, seeds)
    assert factors.shape == (5, 3, 2)
    np.testing.assert_allclose(np.linalg.norm(factors, axis=-1), 1.0,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(product_kets(factors),
                                  random_product_kets(3, seeds))
    with pytest.raises(NotNormalized):
        product_kets(2 * factors)


CHILD_SETS = [(0,), (2,), (0, 1), (0, 2), (0, 1, 2)]
TRIALS = [*range(41), 10 ** 7 - 1]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1,
                                  2 ** 200])
def test_spawned_children_are_numpys(seed):
    """Each child of every child set is numpy's
    `SeedSequence((seed, sweep, t)).spawn(3)[i]` by its PCG64 state, for
    seeds of one to seven words, sweeps 0, 1 and 999 and trials to 10^7."""
    for sweep in (0, 1, 999):
        want = [[c.generate_state(4, np.uint64).tolist() for c in
                 np.random.SeedSequence((seed, sweep, t)).spawn(3)]
                for t in TRIALS]
        for children in CHILD_SETS:
            got = spawn_children((seed, sweep), TRIALS, children)
            assert len(got) == len(children)
            for i, row in zip(children, got):
                assert [c.generate_state(4, np.uint64).tolist()
                        for c in row] == [w[i] for w in want]


def test_a_child_seed_makes_numpys_generators():
    """A PCG64, a `default_rng` and a `Generator` built from a ChildSeed
    draw what they draw from numpy's child; the ChildSeed answers no other
    state request."""
    (got,) = spawn_children((5, 2), [7], (1,))[0]
    want = np.random.SeedSequence((5, 2, 7)).spawn(2)[1]
    np.testing.assert_array_equal(np.random.PCG64(got).random_raw(9),
                                  np.random.PCG64(want).random_raw(9))
    np.testing.assert_array_equal(np.random.default_rng(got).random(5),
                                  np.random.default_rng(want).random(5))
    np.testing.assert_array_equal(
        np.random.Generator(np.random.PCG64(got)).integers(7, size=5),
        np.random.Generator(np.random.PCG64(want)).integers(7, size=5))
    assert isinstance(got, ChildSeed)
    assert isinstance(got, np.random.bit_generator.ISeedSequence)
    for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64),
                           (4, "garbage")]:
        with pytest.raises(InvalidParams):
            got.generate_state(n_words, dtype)


@pytest.mark.parametrize("entropy,trials,children", [
    ((-1, 0), [0], (0,)),
    ((1.5, 0), [0], (0,)),
    ((True, 0), [0], (0,)),
    ((1, 0), [-1], (0,)),
    ((1, 0), [1.0], (0,)),
    ((1, 0), [2 ** 32], (0,)),
    ((1, 0), [0], (-1,)),
])
def test_spawn_children_rejects_what_numpy_would(entropy, trials, children):
    with pytest.raises(InvalidParams):
        spawn_children(entropy, trials, children)


def test_import_leaves_numpy_random_unloaded():
    """numpy loads numpy.random on first use, and the package keeps it so
    (it costs a start-up about 40 ms and 5 MB): `ChildSeed` registers as an
    `ISeedSequence` on the first `spawn_children` call."""
    src = str(Path(qnoisebench.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qnoisebench; "
            "sys.exit('numpy.random' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src]).returncode == 0
