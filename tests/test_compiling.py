"""Clifford+T lowering and randomized compiling."""

import numpy as np
import pytest

from qnoisebench.benchmarks import QAOA_BETA_STAR, QAOA_GAMMA_STAR, build_random
from qnoisebench.circuits import (
    CLIFFORD_T,
    PARAM_ROTATIONS,
    Circuit,
    Cycle,
    circuit_unitary,
    identity_cycle,
    simulate,
)
from qnoisebench.compiling import (
    apply_pauli_frame,
    approx_rz,
    best_rz_error,
    euler_compose,
    euler_decompose,
    interleave_idle,
    is_easy_cycle,
    lower_controlled_rz,
    randomized_compile,
    rz_word_error,
    to_clifford_t,
)
from qnoisebench.errors import (
    DuplicateIndex,
    InvalidParams,
    NotInterleaved,
    NotUnitary,
    SearchExhausted,
)
from qnoisebench.gates import FIXED_MATRICES, Gate
from qnoisebench.linalg import equal_up_to_phase, kron_all, phase_aligned_distance
from qnoisebench.noise import PauliNoise
from qnoisebench.states import ket_to_density, random_product_state

rng = np.random.default_rng(55)

G = Gate


def random_unitary(dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Euler angles.


def test_euler_roundtrip_random_unitaries():
    for _ in range(30):
        u = random_unitary(2)
        beta, gamma, delta = euler_decompose(u)
        assert equal_up_to_phase(euler_compose(beta, gamma, delta), u, tol=1e-8)


def test_euler_handles_diagonal_and_antidiagonal():
    for u in (np.diag([1.0, np.exp(0.7j)]),
              np.array([[0, 1j], [1j, 0]], dtype=np.complex128)):
        beta, gamma, delta = euler_decompose(u)
        assert equal_up_to_phase(euler_compose(beta, gamma, delta), u, tol=1e-8)


def test_euler_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        euler_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotUnitary):
        euler_decompose(np.eye(4))


# ---------------------------------------------------------------------------
# Rz synthesis.


def test_approx_rz_exact_single_letters():
    assert approx_rz(np.pi / 4) == ["t"]
    assert approx_rz(np.pi / 2) == ["s"]
    assert approx_rz(-np.pi / 4) == ["tdg"]
    assert approx_rz(-np.pi / 2) == ["sdg"]
    assert approx_rz(0.0) == []


def test_approx_rz_exact_composite_angles():
    # Rz(pi) = Z = S S exactly; Rz(3 pi/4) = S T exactly.
    for theta in (np.pi, 3 * np.pi / 4):
        word = approx_rz(theta)
        assert len(word) == 2
        assert rz_word_error(word, theta) < 1e-12


def test_word_error_agrees_with_requested_eps():
    """Dual route: the synthesizer's claimed error is checked by direct
    matrix multiplication of the word."""
    for theta in (0.3, 1.1, 0.7, -0.8):
        word = approx_rz(theta, 0.05)
        assert rz_word_error(word, theta) <= 0.05 + 1e-12


def test_best_rz_error_monotone_in_depth():
    errs = [best_rz_error(0.3, d) for d in range(1, 9)]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


def test_approx_rz_rejects_tiny_eps():
    with pytest.raises(InvalidParams):
        approx_rz(0.3, 1e-9)


def test_approx_rz_exhausts_on_hard_angle():
    # pi/8 floors near 0.056 over this alphabet at the default depth budget.
    with pytest.raises(SearchExhausted):
        approx_rz(np.pi / 8, 0.05)


# ---------------------------------------------------------------------------
# Whole-circuit lowering.


def test_lower_controlled_rz_exact():
    theta = 0.9
    circ = lower_controlled_rz(theta, 0, 1)
    want = np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)])
    assert phase_aligned_distance(circuit_unitary(circ), want) < 1e-12


def test_lower_controlled_rz_rejects_equal_indices():
    with pytest.raises(DuplicateIndex):
        lower_controlled_rz(0.5, 2, 2)


def test_to_clifford_t_expands_rotations_in_lockstep():
    circ = Circuit(2, (Cycle((G.rz(0, 3 * np.pi / 4), G.x(1))),), PARAM_ROTATIONS)
    low = to_clifford_t(circ)
    assert low.gate_set == CLIFFORD_T
    assert low.depth == 2  # two-letter word for 3 pi/4
    on_1 = [[g.name for g in c.gates if 1 in g.qubits] for c in low.cycles]
    assert on_1[0] == ["x"]  # fixed gate fires in sub-cycle 0
    assert on_1[1] == []  # idle afterwards
    assert phase_aligned_distance(
        circuit_unitary(low), circuit_unitary(circ)) < 1e-12


def test_to_clifford_t_accepts_near_miss_angles():
    # approx_rz(pi/8, 0.05) exhausts, but lowering accepts the table's best
    # word when it lands within 2x of the request.
    circ = Circuit(1, (Cycle((G.rz(0, np.pi / 8),)),), PARAM_ROTATIONS)
    low = to_clifford_t(circ, eps=0.05)
    d = phase_aligned_distance(circuit_unitary(low), circuit_unitary(circ))
    assert d <= 0.10


def test_to_clifford_t_rejects_embedded_toffoli():
    circ = Circuit(3, (Cycle((G.toffoli(0, 1, 2),)),))
    with pytest.raises(InvalidParams):
        to_clifford_t(circ)


def counting_approx_rz(monkeypatch):
    """Route the lowering's approx_rz through a call log, cache cleared."""
    from qnoisebench import compiling

    compiling._word_with_fallback.cache_clear()
    calls = []
    real = compiling.approx_rz

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(compiling, "approx_rz", counting)
    return calls


def test_to_clifford_t_synthesizes_each_angle_once(monkeypatch):
    """The QAOA circuit's 20 rotations use 2 distinct angles: 2 searches,
    and none on a second lowering of the same circuit."""
    from qnoisebench.benchmarks import (QAOA_BETA_STAR, QAOA_GAMMA_STAR,
                                        MaxCutGraph, build_qaoa)

    calls = counting_approx_rz(monkeypatch)
    circ = build_qaoa(MaxCutGraph.hypercube(), QAOA_BETA_STAR, QAOA_GAMMA_STAR)
    first = to_clifford_t(circ)
    assert len(calls) == 2
    assert to_clifford_t(circ) == first
    assert len(calls) == 2


def test_rotation_word_is_a_fresh_list():
    from qnoisebench.compiling import _rotation_word

    for gate in (G.rz(0, 0.3), G.rx(0, 0.3)):
        word = _rotation_word(gate, 0.05)
        want = list(word)
        word[0] = "x"
        word.append("t")
        assert _rotation_word(gate, 0.05) == want


@pytest.mark.parametrize("gate, want", [
    # qft_ct: the halves of its controlled-Rz angles pi/2, pi/4, pi/8.
    (G.rz(0, np.pi / 4), ["t"]),
    (G.rz(0, -np.pi / 4), ["tdg"]),
    # pi/8 misses eps 0.05 at the depth budget and takes the fallback.
    (G.rz(0, np.pi / 8), ["h", "t", "h", "t", "h", "tdg", "h", "tdg", "h",
                          "tdg", "h", "t", "h", "t", "h"]),
    (G.rz(0, -np.pi / 8), ["h", "t", "h", "tdg", "h", "tdg", "h", "t", "h",
                           "tdg", "h", "tdg", "h", "t", "h"]),
    (G.rz(0, np.pi / 16), ["h", "s", "h", "tdg", "h", "tdg", "h", "t", "h",
                           "tdg", "h", "t", "h", "t", "h", "t", "h", "t", "h",
                           "t", "h"]),
    (G.rz(0, -np.pi / 16), ["h", "s", "t", "h", "t", "h", "tdg", "h", "t",
                            "h", "tdg", "h", "tdg", "h", "tdg", "h", "tdg",
                            "h", "tdg", "h", "s"]),
    # qaoa_ct: the phase separator rz and the mixer rx.
    (G.rz(0, QAOA_GAMMA_STAR), ["h", "s", "t", "h", "tdg", "h", "tdg", "h",
                                "tdg", "h", "tdg", "h", "t", "h", "tdg", "h",
                                "t", "h", "tdg", "h", "t"]),
    (G.rx(0, QAOA_BETA_STAR), ["h", "s", "t", "h"]),
], ids=["rz+pi/4", "rz-pi/4", "rz+pi/8", "rz-pi/8", "rz+pi/16", "rz-pi/16",
        "rz_gamma_star", "rx_beta_star"])
def test_benchmark_rotation_words_are_pinned(gate, want):
    from qnoisebench.compiling import _rotation_word

    assert _rotation_word(gate, 0.05) == want


def test_unreachable_eps_raises_on_every_repeat(monkeypatch):
    # pi/8 floors near 0.056, more than 2x above 0.02: the miss is real, and
    # it is not cached.
    calls = counting_approx_rz(monkeypatch)
    circ = Circuit(1, (Cycle((G.rz(0, np.pi / 8),)),), PARAM_ROTATIONS)
    for repeat in (1, 2):
        with pytest.raises(SearchExhausted):
            to_clifford_t(circ, eps=0.02)
        assert len(calls) == repeat


def test_distances_to_matches_full_matrix_formula():
    """Bit for bit against max |m - phase * Rz(theta)| over all four entries,
    so the search picks the same words."""
    from qnoisebench.compiling import _distances_to, _table
    from qnoisebench.gates import rz_matrix

    table = _table()
    table.extend_to(12)
    mats = table.mats[:table.level_bounds[13]]
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 41):
        target = rz_matrix(theta)
        ip = np.einsum("kij,ij->k", mats, target.conj())
        mag = np.abs(ip)
        phase = np.where(mag > 1e-300, ip / np.where(mag > 0, mag, 1.0), 1.0)
        want = np.max(np.abs(mats - phase[:, None, None] * target[None]),
                      axis=(1, 2))
        assert np.array_equal(_distances_to(mats, target), want)


# ---------------------------------------------------------------------------
# Idle interleaving.


def test_interleave_idle_separates_hard_cycles():
    circ = Circuit(2, (
        Cycle((G.h(0),)),
        Cycle((G.cnot(0, 1),)),
        Cycle((G.x(0),)),
        Cycle((G.t(1),)),
    ), CLIFFORD_T)
    out = interleave_idle(circ)
    assert out.depth == 5  # one idle between the two adjacent hard cycles
    hard = [not is_easy_cycle(c) for c in out.cycles]
    assert not any(a and b for a, b in zip(hard, hard[1:]))
    assert equal_up_to_phase(circuit_unitary(out), circuit_unitary(circ))


def test_interleave_idle_leaves_easy_circuits_alone():
    circ = Circuit(2, (Cycle((G.x(0),)), Cycle((G.z(1),))), CLIFFORD_T)
    assert interleave_idle(circ).depth == 2


# ---------------------------------------------------------------------------
# Randomized compiling.


def frame_unitary(frame):
    return kron_all([FIXED_MATRICES[p] for p in frame])


def test_rc_preserves_circuit_action():
    """Frame-corrected compiled unitary equals the original on 50 random
    Clifford+T circuits."""
    for k in range(50):
        circ = interleave_idle(build_random(3, 8, seed=1000 + k))
        compiled, frame = randomized_compile(circ, seed=k)
        assert compiled.depth == circ.depth
        dressed = frame_unitary(frame) @ circuit_unitary(compiled)
        assert equal_up_to_phase(dressed, circuit_unitary(circ), tol=1e-8)


def test_rc_noiseless_simulation_matches_reference():
    circ = interleave_idle(build_random(3, 10, seed=7))
    state = ket_to_density(random_product_state(3, seed=3))
    plain = simulate(circ, state)
    for seed in range(5):
        dressed = simulate(circ, state, rc=True, seed=seed)
        np.testing.assert_allclose(dressed.matrix, plain.matrix, atol=1e-10)


def test_rc_draws_vary_with_seed():
    circ = interleave_idle(build_random(3, 10, seed=7))
    a, _ = randomized_compile(circ, seed=0)
    b, _ = randomized_compile(circ, seed=1)
    assert a.cycles != b.cycles


def test_rc_twirl_before_t_stays_diagonal():
    # Only I and Z commute through a T gate without leaving the easy set.
    circ = Circuit(1, (identity_cycle(), Cycle((G.t(0),)), identity_cycle()),
                   CLIFFORD_T)
    for seed in range(50):
        compiled, _ = randomized_compile(circ, seed=seed)
        assert [g.name for g in compiled.cycles[0].gates] in ([], ["z"])


def test_rc_frame_labels_are_paulis():
    circ = interleave_idle(build_random(4, 12, seed=2))
    _, frame = randomized_compile(circ, seed=9)
    assert len(frame) == 4
    assert set(frame) <= {"i", "x", "y", "z"}


def test_one_vector_draw_is_the_scalar_draw_stream():
    """A trial draws all its twirl picks with one integers call over the
    option counts. That call returns what one scalar call per slot returns
    and leaves the generator in the same state."""
    meta = np.random.default_rng(1512)
    for stream in range(400):
        counts = meta.integers(1, 17, size=int(meta.integers(1, 601)))
        vector = np.random.default_rng(stream)
        scalar = np.random.default_rng(stream)
        np.testing.assert_array_equal(vector.integers(counts),
                                      [scalar.integers(c) for c in counts])
        assert vector.integers(1 << 62) == scalar.integers(1 << 62)


def test_one_option_slots_draw_nothing():
    fresh = np.random.default_rng(9).integers(1 << 62)
    rng = np.random.default_rng(9)
    assert rng.integers(1) == 0
    assert rng.integers(np.ones(40, dtype=np.int64)).tolist() == [0] * 40
    assert rng.integers(1 << 62) == fresh


def test_rc_rejects_rotations_and_adjacent_hard_cycles():
    rot = Circuit(1, (Cycle((G.rz(0, 0.3),)),), PARAM_ROTATIONS)
    with pytest.raises(InvalidParams):
        randomized_compile(rot)
    packed = Circuit(2, (Cycle((G.h(0),)), Cycle((G.cnot(0, 1),))), CLIFFORD_T)
    with pytest.raises(NotInterleaved):
        randomized_compile(packed)


def test_rc_all_hard_circuit_returns_identity_frame():
    circ = Circuit(2, (Cycle((G.cnot(0, 1),)),), CLIFFORD_T)
    compiled, frame = randomized_compile(circ, seed=0)
    assert compiled.cycles == circ.cycles
    assert frame == ("i", "i")


def test_rc_is_neutral_for_pauli_noise():
    """Single-qubit Pauli channels are invariant under Pauli-frame
    conjugation, so each compiled run reproduces the bare noisy output
    exactly, not just on average."""
    circ = interleave_idle(build_random(3, 10, seed=11))
    state = ket_to_density(random_product_state(3, seed=4))
    noise = PauliNoise.symmetric(0.03)
    bare = simulate(circ, state, noise=noise)
    for seed in range(5):
        dressed = simulate(circ, state, noise=noise, rc=True, seed=seed)
        np.testing.assert_allclose(dressed.matrix, bare.matrix, atol=1e-12)


def test_apply_pauli_frame():
    state = ket_to_density(random_product_state(2, seed=5))
    same = apply_pauli_frame(state, ("i", "i"))
    np.testing.assert_allclose(same.matrix, state.matrix)
    flipped = apply_pauli_frame(state, ("x", "i"))
    want = simulate(Circuit(2, (Cycle((G.x(0),)),)), state)
    np.testing.assert_allclose(flipped.matrix, want.matrix, atol=1e-14)
