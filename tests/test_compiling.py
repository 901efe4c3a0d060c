"""Clifford+T lowering and randomized compiling."""

import functools

import numpy as np
import pytest

from dense_helpers import equal_up_to_phase
from qnoisebench.benchmarks import (QAOA_BETA_STAR, QAOA_GAMMA_STAR,
                                    benchmark_plan, build_benchmark,
                                    build_random)
from qnoisebench.circuits import (
    CLIFFORD_T,
    PARAM_ROTATIONS,
    Circuit,
    Cycle,
    circuit_unitary,
    compile_plan,
    read_letters,
    simulate,
    toffoli_decomposition,
)
from qnoisebench.compiling import (
    _COUNTS,
    DEFAULT_DEPTH_BUDGET,
    _table,
    apply_pauli_frame,
    approx_rz,
    best_rz_error,
    hard_cycles,
    interleave_idle,
    lower_controlled_rz,
    lower_letters,
    randomized_compile,
    rz_word_error,
    to_clifford_t,
)
from qnoisebench.errors import (
    DuplicateIndex,
    InvalidParams,
    NotInterleaved,
    SearchExhausted,
)
from qnoisebench.gates import CLIFFORD_T_NAMES, FIXED_MATRICES, Gate
from qnoisebench.linalg import phase_aligned_distance
from qnoisebench.noise import PauliNoise
from qnoisebench.states import (ket_to_density, random_product_state,
                                spawn_children)

G = Gate


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


def test_synthesis_rejects_bad_arguments():
    """theta and eps must be finite and the depth an integer in
    0..DEFAULT_DEPTH_BUDGET, checked before the table grows."""
    size = len(_table())
    cap = DEFAULT_DEPTH_BUDGET + 1
    for call in (
        lambda: best_rz_error(0.3, -3),
        lambda: best_rz_error(0.3, 2.5),
        lambda: best_rz_error(0.3, True),
        lambda: best_rz_error(0.3, cap),
        lambda: best_rz_error(np.nan, 3),
        lambda: best_rz_error(np.inf, 3),
        lambda: approx_rz(np.inf),
        lambda: approx_rz(0.3, np.nan),
        lambda: approx_rz(0.3, np.inf),
        lambda: approx_rz(0.3, 0.05, -1),
        lambda: approx_rz(0.3, 0.05, 2.5),
        lambda: approx_rz(0.3, 0.05, cap),
    ):
        with pytest.raises(InvalidParams):
            call()
    assert len(_table()) == size


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


def test_toffoli_enters_lowering_only_decomposed():
    """A raw Toffoli is no gate, so no circuit holds one; its decomposition
    is already Clifford+T, and lowering leaves each cycle's gates as they
    are (a cycle is written CNOTs first, so compare them as sets)."""
    with pytest.raises(InvalidParams, match="unknown gate"):
        G("toffoli", (0, 1, 2))
    circ = toffoli_decomposition(0, 1, 2)
    low = to_clifford_t(circ)
    assert low.n_qubits == circ.n_qubits and low.gate_set == circ.gate_set
    assert [set(c.gates) for c in low.cycles] == [set(c.gates)
                                                  for c in circ.cycles]


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


def lowered_word(gate):
    """The word `lower_letters` spells for one rotation on one qubit."""
    letters, _, keys = lower_letters(*read_letters(
        Circuit(1, (Cycle((gate,)),))), 0.05)
    return [keys[k][0] for k in letters[:, 0]]


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
    assert lowered_word(gate) == want


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
    hard = hard_cycles(*read_letters(out)[:2])
    assert hard.tolist() == [True, False, True, False, True]
    assert equal_up_to_phase(circuit_unitary(out), circuit_unitary(circ))


def test_interleave_idle_leaves_easy_circuits_alone():
    circ = Circuit(2, (Cycle((G.x(0),)), Cycle((G.z(1),))), CLIFFORD_T)
    assert interleave_idle(circ).depth == 2


# ---------------------------------------------------------------------------
# Randomized compiling.


def frame_unitary(frame):
    return functools.reduce(np.kron, [FIXED_MATRICES[p] for p in frame])


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
    circ = Circuit(1, (Cycle(), Cycle((G.t(0),)), Cycle()),
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


def test_every_slot_count_is_a_power_of_two():
    """Lemire's draw over a power-of-two count never rejects, so
    `Twirl.draw` reads exactly one half word per slot of count > 1."""
    assert all(c >= 1 and c & (c - 1) == 0 for c in _COUNTS.tolist())


@pytest.mark.parametrize("bench", ["qft_ct", "qaoa_ct", "adder"])
def test_chunk_draw_is_each_seeds_integers_call(bench):
    """One chunk draw over 50 seeds, as integers and as the RC children the
    harness hands on, equals one `default_rng(seed).integers(counts)` per
    seed."""
    twirl = benchmark_plan(bench, None, True).twirl
    children = spawn_children((3, 1), range(50), (2,))[0]
    for seeds in (range(50), children):
        want = [np.random.default_rng(s).integers(twirl.counts) for s in seeds]
        np.testing.assert_array_equal(twirl.draw(seeds), want)


def test_rc_rejects_rotations_and_adjacent_hard_cycles():
    rot = Circuit(1, (Cycle((G.rz(0, 0.3),)),), PARAM_ROTATIONS)
    with pytest.raises(InvalidParams):
        randomized_compile(rot)
    packed = Circuit(2, (Cycle((G.h(0),)), Cycle((G.cnot(0, 1),))), CLIFFORD_T)
    with pytest.raises(NotInterleaved):
        randomized_compile(packed)
    # The plan's letters and segments alone reject the same circuits, naming
    # the gate; the rotation sits between easy cycles.
    for gate in (G.rz(1, 0.3), G.rx(0, -1.1)):
        circ = Circuit(3, (Cycle((G.x(0),)), Cycle((gate,)), Cycle()))
        with pytest.raises(InvalidParams, match=f"found {gate.name}"):
            compile_plan(circ, rc=True)
    both = Circuit(2, (Cycle((G.h(0), G.s(1))), Cycle((G.t(0),))), CLIFFORD_T)
    cnots = Circuit(3, (Cycle(), Cycle((G.cnot(0, 1),)),
                        Cycle((G.cnot(2, 1),)), Cycle()), CLIFFORD_T)
    late = Circuit(2, (Cycle(), Cycle((G.t(1),)), Cycle((G.x(0),)),
                       Cycle((G.cnot(1, 0),)), Cycle((G.h(0), G.z(1)))),
                   CLIFFORD_T)
    for circ in (packed, both, cnots, late):
        with pytest.raises(NotInterleaved):
            compile_plan(circ, rc=True)
        compile_plan(circ)  # without rc the same circuit compiles


# The per-gate reading of a circuit into `Twirl` tables that the plan-letter
# builder must reproduce field for field: gate names per qubit and cycle, and
# the fresh-Pauli options of each slot from those names.
_X_FREE = {"s": (0, 2), "sdg": (0, 2)}
_A, _B = np.divmod(np.arange(16), 4)
_REF_CROSS = np.array([_A, (_A & 1) << 1 | _A >> 1, _A ^ (_A & 1) << 1,
                       _A & 1 | (_A ^ _B) & 2, (_A ^ _B) & 1 | _B & 2])
_KIND = {"h": 1, "s": 2, "sdg": 2}
_PLAN_LETTERS = ("i", "x", "z", "y", "s", "sdg")  # the easy gates


def _lone_options(gate, mid, landing):
    return tuple((p, p) for p in _X_FREE.get(gate, (0, 1, 3, 2))
                 if not (mid in ("t", "tdg") and p & 1)
                 and not (landing in _X_FREE
                          and _REF_CROSS[_KIND.get(mid, 0), 5 * p] & 1))


def _pair_options(gate_c, gate_t, land_c, land_t):
    return tuple((pc, pt) for pc in _X_FREE.get(gate_c, (0, 1, 3, 2))
                 for pt in _X_FREE.get(gate_t, (0, 1, 3, 2))
                 if not (land_c in _X_FREE and _REF_CROSS[3, 4 * pc + pt] & 1)
                 and not (land_t in _X_FREE and _REF_CROSS[4, 4 * pc + pt] & 1))


def reference_twirl(circ):
    """Twirl fields of an idle-interleaved Clifford+T circuit, gate by gate."""
    n, cycles = circ.n_qubits, circ.cycles
    hard = [any(g.name not in _PLAN_LETTERS for g in c.gates) for c in cycles]
    on = [["i"] * n for _ in range(len(cycles) + 2)]  # gate name per qubit
    for k, c in enumerate(cycles):
        for g in c.gates:
            for q in g.qubits:
                on[k][q] = g.name
    easy = [k for k, h in enumerate(hard) if not h]

    cells, options = [], []
    for e, k in enumerate(easy):
        mid = k + 1 < len(cycles) and hard[k + 1]
        land = on[k + 2] if mid else on[k + 1]
        for g in cycles[k + 1].gates if mid else ():
            if g.name == "cnot":
                c, t = g.qubits
                cells.append((e * n + c, e * n + t))
                options.append(_pair_options(on[k][c], on[k][t],
                                             land[c], land[t]))
        for q in range(n):
            if not (mid and on[k + 1][q] == "cnot"):
                cells.append((e * n + q,) * 2)
                options.append(_lone_options(
                    on[k][q], on[k + 1][q] if mid else "i", land[q]))

    # Row e crosses the hard cycle before easy cycle e; the last, the one after.
    before = [k - 1 for k in easy] + [easy[-1] + 1 if easy else -1]
    cross = [[(0, q, q) for q in range(n)] for _ in before]
    for row, j in enumerate(before):
        for g in cycles[j].gates if 0 <= j < len(cycles) and hard[j] else ():
            if g.name == "cnot":
                c, t = g.qubits
                cross[row][c], cross[row][t] = (3, c, t), (4, c, t)
            else:
                cross[row][g.qubits[0]] = (_KIND.get(g.name, 0), *g.qubits * 2)
    counts = np.array([len(o) for o in options], dtype=np.int64)
    return dict(
        easy=np.array(easy, dtype=np.intp),
        base=np.array([[_PLAN_LETTERS.index(name) for name in on[k]]
                       for k in easy], dtype=np.intp).reshape(len(easy), n),
        counts=counts,
        first=np.cumsum(counts) - counts,
        cells=np.array(cells, dtype=np.intp).reshape(-1, 2),
        opts=np.array([pair for o in options for pair in o],
                      dtype=np.intp).reshape(-1, 2),
        cross=np.array(cross, dtype=np.intp),
    )


def assert_twirl_matches_reference(circ):
    twirl = compile_plan(circ, rc=True).twirl
    for name, want in reference_twirl(circ).items():
        got = getattr(twirl, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def random_clifford_t(n, depth, rng):
    """Cycles over every Clifford+T gate, a CNOT in about a third of them."""
    cycles = []
    for _ in range(depth):
        qubits = [int(q) for q in rng.permutation(n)]
        gates = []
        if n > 1 and rng.random() < 0.35:
            gates.append(G.cnot(qubits.pop(), qubits.pop()))
        for q in qubits:
            name = sorted(CLIFFORD_T_NAMES - {"cnot"})[rng.integers(9)]
            if rng.random() < 0.7:
                gates.append(G(name, (q,)))
        cycles.append(Cycle(tuple(gates)))
    return interleave_idle(Circuit(n, tuple(cycles), CLIFFORD_T))


def test_twirl_tables_match_per_gate_reference():
    """The plan-letter `Twirl` equals the per-gate reading in every field,
    dtype and shape: idle at every allowed depth, the fixed Clifford+T
    benchmarks, 138 interleaved random circuits (two at each allowed depth)
    and 60 over the whole Clifford+T set."""
    for depth in range(2, 71):
        assert_twirl_matches_reference(build_benchmark("idle", depth=depth))
    for bench in ("adder", "qft_ct", "qaoa_ct"):
        assert_twirl_matches_reference(build_benchmark(bench))
    for k, depth in enumerate(2 * list(range(2, 71))):
        assert_twirl_matches_reference(
            interleave_idle(build_random(4, depth, seed=500 + k)))
    rng = np.random.default_rng(17)
    for k in range(60):
        assert_twirl_matches_reference(
            random_clifford_t(int(rng.integers(1, 6)), int(rng.integers(1, 16)),
                              rng))


@pytest.mark.parametrize("cycles", [
    [[G.cnot(0, 1)], [G.x(0)], [G.h(1)]],                  # a CNOT in cycle 0
    [[G.cnot(1, 0), G.h(2)]],                              # all hard
    [],                                                    # no cycles
    [[G.s(0), G.sdg(1)], [G.cnot(0, 1)], [G.s(0), G.sdg(1), G.z(2)],
     [G.h(0), G.t(1)], [G.sdg(0), G.s(1)]],                # s/sdg landings
    [[G.y(0), G.s(1)], [G.t(0), G.tdg(1), G.h(2)], [G.z(1)],
     [G.tdg(2), G.s(0)]],                                  # t/tdg after easy
], ids=["cnot-first", "all-hard", "empty", "phase-landings", "t-after-easy"])
def test_twirl_tables_edge_cases(cycles):
    circ = Circuit(3, tuple(Cycle(tuple(c)) for c in cycles), CLIFFORD_T)
    assert_twirl_matches_reference(circ)


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
