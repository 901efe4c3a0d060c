"""Metrics: closed-form oracles for fidelity, trace distance, Hellinger."""

import numpy as np
import pytest

from dense_helpers import gate_matrix
from qnoisebench.errors import DimMismatch, NotADistribution, OutOfRange
from qnoisebench.gates import I2, Gate
from qnoisebench.metrics import (
    average_gate_fidelity,
    fidelity_trace_bounds,
    hellinger,
    process_fidelity,
    trace_distance,
)
from qnoisebench.noise import AmplitudeDamping, CoherentNoise, NoNoise, PauliNoise
from qnoisebench.states import DensityMatrix, Ket, ket_to_density

rng = np.random.default_rng(77)


def pure(amplitudes):
    return ket_to_density(Ket(np.asarray(amplitudes, dtype=np.complex128)))


def random_pure(n):
    dim = 2 ** n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return pure(v / np.linalg.norm(v))


def test_process_fidelity_hand_values():
    zero = pure([1, 0])
    one = pure([0, 1])
    plus = pure([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert process_fidelity(zero, zero) == pytest.approx(1.0)
    assert process_fidelity(zero, one) == pytest.approx(0.0)
    assert process_fidelity(zero, plus) == pytest.approx(0.5)
    mixed = DensityMatrix(np.eye(2) / 2)
    assert process_fidelity(zero, mixed) == pytest.approx(0.5)


def test_process_fidelity_dim_mismatch():
    with pytest.raises(DimMismatch):
        process_fidelity(pure([1, 0]), pure([1, 0, 0, 0]))


def test_process_fidelity_warns_on_mixed_ideal():
    mixed = DensityMatrix(np.eye(2) / 2)
    with pytest.warns(UserWarning):
        process_fidelity(mixed, pure([1, 0]))


def test_agf_symmetric_pauli_closed_form():
    # Each axis state survives one Pauli and is flipped by the other two,
    # so the six-state mean is 1 - 2 eps for per-Pauli probability eps.
    for eps in (0.0, 0.01, 0.05):
        got = average_gate_fidelity(I2, PauliNoise(eps, eps, eps))
        assert got == pytest.approx(1.0 - 2.0 * eps, abs=1e-12)


def test_agf_coherent_z_closed_form():
    # Poles are invariant; the four equatorial states rotate by 2 theta,
    # giving overlap cos^2 theta each: (2 + 4 cos^2 theta) / 6.
    for theta in (0.0, 0.1, np.pi / 10, 0.7):
        got = average_gate_fidelity(I2, CoherentNoise("z", theta))
        want = (2.0 + 4.0 * np.cos(theta) ** 2) / 6.0
        assert got == pytest.approx(want, abs=1e-12)


def test_agf_amplitude_damping_closed_form():
    # |0>: 1;  |1>: 1-g;  each equatorial state: (1 + sqrt(1-g)) / 2.
    g = 0.2
    got = average_gate_fidelity(I2, AmplitudeDamping(g))
    want = (1.0 + (1.0 - g) + 4.0 * 0.5 * (1.0 + np.sqrt(1.0 - g))) / 6.0
    assert got == pytest.approx(want, abs=1e-12)


def test_agf_noise_acts_after_gate():
    # With an X gate first, |0> lands on |1> and then damps: same mean as
    # the identity case because the six-state set is permuted, not changed.
    x = gate_matrix(Gate("x", (0,)), 1)
    got = average_gate_fidelity(x, AmplitudeDamping(0.2))
    assert got == pytest.approx(average_gate_fidelity(I2, AmplitudeDamping(0.2)))


def test_agf_rejects_wrong_shape():
    with pytest.raises(DimMismatch):
        average_gate_fidelity(np.eye(4), NoNoise())


def test_trace_distance_hand_values():
    zero = pure([1, 0])
    one = pure([0, 1])
    plus = pure([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, zero) == pytest.approx(0.0)
    assert trace_distance(zero, plus) == pytest.approx(1.0 / np.sqrt(2))
    with pytest.raises(DimMismatch):
        trace_distance(zero, pure([1, 0, 0, 0]))


def test_fidelity_trace_bounds_values():
    lo, hi = fidelity_trace_bounds(0.75)
    assert lo == pytest.approx(1.0 - np.sqrt(0.75))
    assert hi == pytest.approx(0.5)
    assert fidelity_trace_bounds(1.0) == (0.0, 0.0)
    with pytest.raises(OutOfRange):
        fidelity_trace_bounds(1.2)
    with pytest.raises(OutOfRange):
        fidelity_trace_bounds(-0.1)


def test_bounds_sandwich_random_pure_pairs():
    """1 - sqrt(F) <= T <= sqrt(1 - F) on 500 random pure-state pairs; the
    upper bound is tight for pure states."""
    for _ in range(500):
        a, b = random_pure(2), random_pure(2)
        f = process_fidelity(a, b)
        t = trace_distance(a, b)
        lo, hi = fidelity_trace_bounds(f)
        assert lo - 1e-9 <= t <= hi + 1e-9
        assert t == pytest.approx(hi, abs=1e-9)


def test_hellinger_values():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    d, closeness = hellinger(p, q)
    # H^2 = 1 - sum sqrt(p q) = 1 - sqrt(0.5)
    assert d == pytest.approx(np.sqrt(1.0 - np.sqrt(0.5)))
    assert closeness == pytest.approx(1.0 - d)
    assert hellinger(q, q) == (0.0, 1.0)
    assert hellinger(p, np.array([0.0, 1.0]))[0] == pytest.approx(1.0)


def test_hellinger_rejects_bad_input():
    ok = np.array([0.5, 0.5])
    with pytest.raises(DimMismatch):
        hellinger(ok, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NotADistribution):
        hellinger(ok, np.array([-0.2, 1.2]))
    with pytest.raises(NotADistribution):
        hellinger(ok, np.array([0.5, 0.6]))
    with pytest.raises(NotADistribution):  # NaN slips past < and > checks
        hellinger(np.array([np.nan, 1.0]), ok)
