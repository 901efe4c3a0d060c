"""The superoperator kernel of `simulate` against slow dense oracles.

The oracle conjugates the full 2^n x 2^n density matrix by each gate's
`gate_matrix`, then applies the channel to every qubit as an explicit sum of
embedded Kraus operators. Seeded loops, no property-testing library.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from qnoisebench import circuits, linalg, states
from qnoisebench.benchmarks import (build_benchmark, build_random,
                                    optimize_qaoa_angles, random_plan)
from qnoisebench.circuits import (CLIFFORD_T, Circuit, CircuitPlan, Cycle,
                                  apply_cycle, apply_local_unitary,
                                  apply_superoperators, circuit_unitary,
                                  compile_plan, from_pauli, pauli_diagonals,
                                  pauli_fidelities, product_pauli, simulate,
                                  to_pauli, toffoli_decomposition)
from qnoisebench.compiling import (apply_pauli_frame, interleave_idle,
                                   randomized_compile)
from qnoisebench.errors import (InvalidParams, InvalidState, NotHermitian,
                                WidthMismatch)
from qnoisebench.gates import (CLIFFORD_T_NAMES, CNOT, GATE_ARITY, I2,
                              H, X, Y, Z, Gate, embed_unitary, gate_matrix)
from qnoisebench.metrics import average_gate_fidelity
from qnoisebench.noise import (
    NOISE_KINDS,
    PAULI_BASIS,
    AmplitudeDamping,
    CoherentNoise,
    NoNoise,
    PauliNoise,
    PauliPlusCoherent,
    PhaseDamping,
    apply_channel_all,
    kraus_operators,
    noise_level_table,
    pair_superoperator,
    pauli_transfer,
    superoperator,
)
from qnoisebench.protocols import (clifford_group, quantum_volume,
                                   random_model_circuit, rb_experiment,
                                   rb_sequence_indices)
from qnoisebench.states import DensityMatrix

MODELS = [
    NoNoise(),
    PauliNoise(0.02, 0.01, 0.03),
    CoherentNoise("z", 0.2),
    CoherentNoise("x", 0.15),
    PauliPlusCoherent(0.05, 0.1),
    AmplitudeDamping(0.3),
    PhaseDamping(0.2),
]
ATOL = 1e-12


def random_density(n, rng):
    dim = 2 ** n
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def make_gate(name, qubits, rng):
    angle = float(rng.uniform(-np.pi, np.pi)) if name in ("rz", "rx") else None
    return Gate(name, tuple(qubits), angle)


def dense_oracle(circ, rho, model):
    n = circ.n_qubits
    kraus = [[embed_unitary(k, (q,), n) for k in kraus_operators(model)]
             for q in range(n)]
    for cycle in circ.cycles:
        for g in cycle.gates:
            u = gate_matrix(g, n)
            rho = u @ rho @ u.conj().T
        for ops in kraus:
            rho = sum(k @ rho @ k.conj().T for k in ops)
    return rho


def random_cycle(n, rng, names):
    """Gates on disjoint qubits in random order: both CNOT orientations and
    every qubit position come up."""
    free = list(rng.permutation(n))
    gates = []
    while free:
        name = names[rng.integers(len(names))]
        k = GATE_ARITY[name]
        if k > len(free):
            continue
        qubits, free = free[:k], free[k:]
        gates.append(make_gate(name, qubits, rng))
        if free and rng.random() < 0.3:
            free.pop()  # leave a qubit idle
    return Cycle(tuple(gates))


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_gate_at_every_placement(model, n):
    rng = np.random.default_rng(n)
    for name, k in GATE_ARITY.items():
        for qubits in itertools.permutations(range(n), k):
            gate = make_gate(name, qubits, rng)
            circ = Circuit(n, (Cycle((gate,)),))
            rho = random_density(n, rng)
            got = simulate(circ, DensityMatrix(rho), noise=model).matrix
            np.testing.assert_allclose(got, dense_oracle(circ, rho, model),
                                       atol=ATOL, err_msg=f"{name}@{qubits}")
            u = gate_matrix(gate, n)
            np.testing.assert_allclose(
                apply_cycle(DensityMatrix(rho), circ.cycles[0]).matrix,
                u @ rho @ u.conj().T, atol=ATOL, err_msg=f"{name}@{qubits}")


def test_apply_local_unitary_rejects_other_operators():
    """Only one-qubit gates and the CNOT have a kernel; an operator that is
    neither (the Toffoli's matrix among them), or one wider than the
    register, is refused."""
    rho = random_density(2, np.random.default_rng(0))
    with pytest.raises(InvalidParams):
        apply_local_unitary(rho, np.kron(H, H), (0, 1), 2)
    with pytest.raises(InvalidParams):
        apply_local_unitary(rho, H, (0, 1), 2)
    toffoli = np.eye(8, dtype=np.complex128)[[0, 1, 2, 3, 4, 5, 7, 6]]
    with pytest.raises(InvalidParams):
        apply_local_unitary(random_density(3, np.random.default_rng(0)),
                            toffoli, (0, 1, 2), 3)
    with pytest.raises(WidthMismatch):
        apply_local_unitary(rho, H, (2,), 2)


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("n", range(1, 9))
def test_random_circuits_match_dense_oracle(model, n):
    """Multi-cycle circuits, so single-qubit maps compose across cycles and
    meet CNOTs on the way; fewer samples at the larger widths."""
    rng = np.random.default_rng(100 + n)
    names = sorted(GATE_ARITY) + ["cnot"] * 3
    samples, depth = (6, 6) if n <= 5 else (1, 4)
    for _ in range(samples):
        circ = Circuit(n, tuple(random_cycle(n, rng, names)
                                for _ in range(depth)))
        rho = random_density(n, rng)
        got = simulate(circ, DensityMatrix(rho), noise=model).matrix
        np.testing.assert_allclose(got, dense_oracle(circ, rho, model),
                                   atol=ATOL)


@pytest.mark.parametrize("n", range(1, 7))
def test_ket_pass_matches_circuit_unitary(n):
    """The plan's 2x2 pass over the basis kets gives the dense unitary, with
    rz/rx letters and the CNOT orders on kets."""
    rng = np.random.default_rng(300 + n)
    names = sorted(GATE_ARITY) + ["cnot"] * 3
    for _ in range(4):
        circ = Circuit(n, tuple(random_cycle(n, rng, names) for _ in range(8)))
        plan = compile_plan(circ)
        got = plan.run(np.eye(2 ** n, dtype=np.complex128))
        np.testing.assert_allclose(got.T, circuit_unitary(circ), atol=ATOL)


@pytest.mark.parametrize("slice_bytes", [None, 512])
@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_drawn_batch_matches_dense_oracle(monkeypatch, model, slice_bytes):
    """Random circuits drawn into one plan, each trial with its own letters
    and CNOTs, run as one batch of Pauli vectors and one of kets (whole, or
    in slices of one Pauli vector and two kets); each trial equals its own
    circuit's dense oracle."""
    if slice_bytes is not None:
        monkeypatch.setattr(circuits, "_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(11)
    seeds, depth = range(6), 9
    plan = random_plan(4, depth, seeds)
    rhos = np.stack([random_density(4, rng) for _ in seeds])
    kets = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    got = from_pauli(plan.run(to_pauli(rhos, 4), model), 4)
    got_kets = plan.run(kets)
    for t, seed in enumerate(seeds):
        circ = build_random(4, depth, seed=seed)
        np.testing.assert_allclose(got[t], dense_oracle(circ, rhos[t], model),
                                   atol=ATOL)
        np.testing.assert_allclose(got_kets[t], circuit_unitary(circ) @ kets[t],
                                   atol=ATOL)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_superoperator_is_kraus_sum(model):
    want = sum(np.kron(k, k.conj()) for k in kraus_operators(model))
    np.testing.assert_allclose(superoperator(model), want, atol=1e-15)
    rho = random_density(1, np.random.default_rng(5))
    out = sum(k @ rho @ k.conj().T for k in kraus_operators(model))
    np.testing.assert_allclose(superoperator(model) @ rho.reshape(-1),
                               out.reshape(-1), atol=ATOL)


@pytest.mark.parametrize("n", range(1, 9))
def test_paired_layout_round_trip(n):
    """`to_pauli` and `from_pauli` undo each other on Hermitian matrices,
    and the real Pauli vector is a fresh array; identity maps in the kernel
    leave its digit order alone."""
    rng = np.random.default_rng(n)
    if n <= 6:
        rho = random_density(n, rng)
    else:
        rho = rng.standard_normal((2 ** n,) * 2)
        rho += rho.T
    v = to_pauli(rho, n)
    assert v.dtype == np.float64 and v.shape == (4 ** n,)
    assert not np.shares_memory(v, rho)
    np.testing.assert_allclose(from_pauli(v, n), rho, rtol=0, atol=1e-14)
    # Identity maps, in runs or everywhere, leave the digit order alone.
    maps = [None if rng.random() < 0.5 else np.eye(4) for _ in range(n)]
    np.testing.assert_array_equal(apply_superoperators(v, maps), v)
    np.testing.assert_array_equal(apply_superoperators(v, [None] * n), v)


@pytest.mark.parametrize("n", range(1, 5))
def test_paired_order_is_one_base4_digit_per_qubit(n):
    """Pauli entry sum_q p_q 4^(n-1-q) is Tr(P rho) / 2^n, where P is the
    string with Pauli code p_q = x + 2z (I, X, Z, Y) on qubit q, qubit 0
    most significant: for one matrix and for each row of a batch. A matrix
    of another width is no n-qubit state."""
    rng = np.random.default_rng(40 + n)
    rhos = np.stack([random_density(n, rng) for _ in range(3)])
    want = np.empty((3, 4 ** n))
    for i, digits in enumerate(itertools.product(range(4), repeat=n)):
        p = np.ones((1, 1))
        for d in digits:
            p = np.kron(p, (I2, X, Z, Y)[d])
        want[:, i] = np.trace(p @ rhos, axis1=1, axis2=2).real / 2 ** n
    np.testing.assert_allclose(to_pauli(rhos[0], n), want[0], atol=1e-15)
    np.testing.assert_allclose(to_pauli(rhos, n), want, atol=1e-15)
    np.testing.assert_allclose(from_pauli(want, n), rhos, atol=1e-15)
    with pytest.raises(ValueError):
        to_pauli(rhos, n + 1)


def random_clifford_t(n, depth, rng):
    names = sorted(CLIFFORD_T_NAMES)
    cycles = tuple(random_cycle(n, rng, names) for _ in range(depth))
    return interleave_idle(Circuit(n, cycles, CLIFFORD_T))


def test_noiseless_rc_equals_plain_circuit():
    """Randomized compiling with its closing frame undone is exact without
    noise (Wallman & Emerson, arXiv:1512.01098), on 200 random circuits."""
    rng = np.random.default_rng(1512)
    for trial in range(200):
        n = int(rng.integers(1, 5))
        circ = random_clifford_t(n, int(rng.integers(1, 12)), rng)
        state = DensityMatrix(random_density(n, rng))
        plain = simulate(circ, state).matrix
        dressed = simulate(circ, state, rc=True, seed=trial).matrix
        np.testing.assert_allclose(dressed, plain, atol=ATOL,
                                   err_msg=f"trial {trial}")


@pytest.mark.parametrize("kind", NOISE_KINDS + ("none",))
def test_plan_rc_equals_compiled_circuit(kind):
    """simulate(rc=True) draws and runs the twirl on the circuit plan; the
    oracle simulates the circuit randomized_compile writes out from the same
    seed, then undoes its closing frame densely: 200 random Clifford+T
    circuits x 3 seeds at n = 1..5."""
    model = NoNoise() if kind == "none" else noise_level_table(kind, 3)
    rng = np.random.default_rng(4321)
    for trial in range(200):
        n = trial % 5 + 1
        circ = random_clifford_t(n, int(rng.integers(1, 10)), rng)
        state = DensityMatrix(random_density(n, rng))
        for seed in range(3):
            compiled, frame = randomized_compile(circ, seed)
            want = apply_pauli_frame(simulate(compiled, state, noise=model),
                                     frame).matrix
            got = simulate(circ, state, noise=model, rc=True, seed=seed).matrix
            np.testing.assert_allclose(got, want, atol=ATOL,
                                       err_msg=f"trial {trial} seed {seed}")


@pytest.mark.parametrize("model", [
    PauliNoise(1 / 3 + 1e-13, 1 / 3, 1 / 3),
    PauliNoise(-1e-13, 0.0, 0.0),
    PauliPlusCoherent(1 + 1e-13, 0.1),
    AmplitudeDamping(1 + 1e-13),
    PhaseDamping(-1e-13),
], ids=repr)
def test_superoperator_at_the_validation_tolerance(model):
    """Probabilities a rounding step past [0, 1] still give a finite,
    trace-preserving map instead of NaNs from a negative square root."""
    s = superoperator(model.validate())
    assert np.isfinite(s).all()
    # Trace preservation: vec(I)^T N = vec(I)^T in the row-major convention.
    np.testing.assert_allclose(np.eye(2).reshape(-1) @ s, np.eye(2).reshape(-1),
                               atol=1e-11)


def product_chain(plan, model, seeds=None):
    """The paired maps of every segment as complex products, one cycle at a
    time with the closing frame last: the formula `_compose` had before it
    multiplied Pauli transfer matrices."""
    pair_maps = pair_superoperator(plan.unitaries)
    table = pair_maps
    if not isinstance(model, NoNoise):
        table = superoperator(model) @ table
    letters, frames = plan.letters, None
    if seeds is not None:
        merged, frames = plan.twirl.sample([plan.twirl.draw(s) for s in seeds])
        letters = np.repeat(letters, len(merged), axis=0)
        letters[:, plan.twirl.easy] = merged
    cycle_maps = table[letters]
    segs = []
    for start, stop, _ in plan.segments:
        m = cycle_maps[:, start]
        for k in range(start + 1, stop):
            m = cycle_maps[:, k] @ m
        segs.append(m)
    if frames is not None:
        segs[-1] = pair_maps[frames] @ segs[-1]
    return np.stack(segs, axis=1)


@pytest.mark.parametrize("rc", [False, True])
@pytest.mark.parametrize("bench", ["qft_ct", "adder"])
def test_compose_matches_complex_product_chain(bench, rc):
    """The Pauli-transfer products are the transfer matrices of the complex
    product chain's maps under every noise model, with 5 twirl seeds or
    without RC."""
    circ = build_benchmark(bench)
    plan = compile_plan(interleave_idle(circ) if rc else circ, rc)
    seeds = range(5) if rc else None
    for model in MODELS:
        np.testing.assert_allclose(plan._compose(model, seeds),
                                   pauli_transfer(product_chain(plan, model,
                                                                seeds)),
                                   rtol=0, atol=ATOL, err_msg=repr(model))


def segment_lengths_circuit():
    """Three qubits, CNOT cycles at 0, 1 and 3: segments of 1, 2 and 3
    cycles, the last of odd length, so it ends in a lone word."""
    G = Gate
    return Circuit(3, (Cycle((G.cnot(0, 1), G.t(2))),
                       Cycle((G.cnot(1, 2), G.h(0))),
                       Cycle((G.s(0), G.t(1), G.h(2))),
                       Cycle((G.cnot(2, 0), G.h(1))),
                       Cycle((G.t(0), G.sdg(1))),
                       Cycle((G.h(0), G.x(2), G.tdg(1)))), CLIFFORD_T)


def assert_compose_matches_chain(plan, seeds=None):
    for model in MODELS:
        np.testing.assert_allclose(
            plan._compose(model, seeds),
            pauli_transfer(product_chain(plan, model, seeds)),
            rtol=0, atol=ATOL, err_msg=repr(model))


def test_word_compose_over_segments_of_one_two_and_three_cycles():
    """Two-cycle words give the per-cycle chain's maps on segments of 1, 2
    and 3 cycles, for the compiled trial and for five trials of random
    letters over the same table."""
    plan = compile_plan(segment_lengths_circuit())
    assert [b - a for a, b, _ in plan.segments] == [1, 2, 3]
    assert_compose_matches_chain(plan)
    letters = np.random.default_rng(3).integers(
        0, len(plan.unitaries), (5,) + plan.letters.shape[1:])
    assert_compose_matches_chain(CircuitPlan(3, letters, plan.unitaries,
                                             plan.segments))


def test_word_compose_puts_the_frame_on_a_one_cycle_last_segment():
    """A twirled circuit that ends in a CNOT cycle: its closing frame lands
    on a one-cycle segment after segments of several cycles."""
    G = Gate
    circ = Circuit(2, (Cycle((G.h(0), G.t(1))), Cycle((G.s(0),)),
                       Cycle((G.x(1),)), Cycle((G.cnot(0, 1),)),
                       Cycle((G.sdg(0), G.z(1))), Cycle((G.cnot(1, 0),))),
                   CLIFFORD_T)
    plan = compile_plan(circ, rc=True)
    assert [b - a for a, b, _ in plan.segments] == [3, 2, 1]
    assert_compose_matches_chain(plan, range(5))


def test_word_compose_of_a_plan_without_cycles():
    """No cycles, no segments: an empty map stack per trial, with or
    without twirl seeds, as Pauli or ket maps."""
    plan = compile_plan(Circuit(2, (), CLIFFORD_T), rc=True)
    for model in MODELS:
        assert plan._compose(model).shape == (1, 0, 2, 4, 4)
        assert plan._compose(model, range(3)).shape == (3, 0, 2, 4, 4)
    assert plan._compose(ket=True).shape == (1, 0, 2, 2, 2)


@pytest.mark.parametrize("m", [1, 2, 63, 64])
def test_word_compose_of_rb_sequences(m):
    """RB's one-segment plan over the 24 Cliffords, one trial of letters
    per sequence: m + 1 cycles, odd or even. 50 sequences of one word are
    fewer than twice the 24^2 pair codes, so each word is multiplied as it
    stands; 50 of 32 words are more, so each pair present is multiplied
    once."""
    rng = np.random.default_rng(m)
    cliffords = clifford_group()[0]
    letters = np.array([rb_sequence_indices(m, rng) for _ in range(50)])
    plan = CircuitPlan(1, letters[:, :, None], np.stack(cliffords),
                       ((0, m + 1, ((),)),))
    assert_compose_matches_chain(plan)


def test_word_compose_of_quantum_volume_circuits():
    """A QV model circuit at m = 8 has a letter per rotation, so few letter
    pairs recur. With its CNOT cycles its segments are single cycles; with
    them dropped it is one 8-cycle segment over 32 rotation letters."""
    circ = random_model_circuit(8, 8, np.random.default_rng(8))
    one_qubit = Circuit(circ.n_qubits, [
        Cycle(tuple(g for g in c.gates if len(g.qubits) == 1))
        for c in circ.cycles])
    for c in (circ, one_qubit):
        assert_compose_matches_chain(compile_plan(c))
    assert len(compile_plan(one_qubit).unitaries) == 6 + 32


def test_word_compose_of_many_letters_allocates_no_pair_code_table():
    """A one-qubit segment of 3000 distinct rotations has 3006^2 pair codes
    but 1500 words, and one of 6200 cycles over the same angles 3100 words:
    the words are multiplied as they stand, and composing stays within a few
    MB (a table over the codes would take 72 MB). The branch counts the
    words of every trial and qubit, not those times the depth."""
    angles = np.random.default_rng(4).uniform(0, 2 * np.pi, 3000)
    model = PauliNoise(0.02, 0.01, 0.03)
    for depth in (3000, 6200):
        plan = compile_plan(Circuit(1, [Cycle((Gate.rz(0, a),))
                                        for a in np.resize(angles, depth)]))
        assert len(plan.unitaries) == 6 + 3000
        tracemalloc.start()
        try:
            maps = plan._compose(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, (depth, peak)
        np.testing.assert_allclose(
            maps, pauli_transfer(product_chain(plan, model)), rtol=0, atol=ATOL)


@pytest.mark.parametrize("bench", ["segments", "qft_ct", "adder"])
def test_ket_word_compose_is_the_circuit_unitary(bench):
    """The 2x2 ket maps of each segment, tensored over the qubits after the
    segment's flips, multiply to `circuit_unitary` exactly up to rounding."""
    circ = (segment_lengths_circuit() if bench == "segments"
            else build_benchmark(bench))
    n = circ.n_qubits
    plan = compile_plan(circ)
    maps = plan._compose(ket=True)[0]
    u = np.eye(2 ** n, dtype=np.complex128)
    for (_, _, (flips,)), seg in zip(plan.segments, maps):
        flip = circuit_unitary(Circuit(n, (Cycle(tuple(
            Gate.cnot(*f) for f in flips)),)))
        u = functools.reduce(np.kron, seg) @ flip @ u
    np.testing.assert_allclose(u, circuit_unitary(circ), rtol=0, atol=ATOL)


def test_pauli_transfer_matrices_are_real():
    """B^-1 M B is real for every letter's map under every model; a wrong
    column of B would show here as an imaginary part, which the real
    products would otherwise drop unseen."""
    plan = compile_plan(interleave_idle(build_benchmark("qft_ct")), rc=True)
    inverse = PAULI_BASIS.conj().T / 2
    np.testing.assert_allclose(inverse @ PAULI_BASIS, np.eye(4), atol=1e-15)
    for model in MODELS:
        for m in superoperator(model) @ pair_superoperator(plan.unitaries):
            assert np.abs((inverse @ m @ PAULI_BASIS).imag).max() <= 1e-15


def test_idle_segment_map_stays_exact_identity(monkeypatch):
    """Noise-free, a qubit idle through a multi-cycle segment gets exactly
    the identity from `_compose`, and `run` skips it (passes None) in its
    one segment pass, whose maps are real; the conversion passes of
    `to_pauli` and `from_pauli` (complex B maps) are not counted."""
    circ = Circuit(2, (Cycle((Gate.h(0),)), Cycle((Gate.t(0),)),
                       Cycle((Gate.s(0),))))
    plan = compile_plan(circ)
    maps = plan._compose()
    assert maps.shape == (1, 1, 2, 4, 4)
    assert np.array_equal(maps[0, 0, 1], np.eye(4))
    seen = []

    def recording(v, maps):
        if not any(np.iscomplexobj(m) for m in maps):
            seen.append(list(maps))
        return apply_superoperators(v, maps)

    monkeypatch.setattr(circuits, "apply_superoperators", recording)
    rho = random_density(2, np.random.default_rng(7))
    got = from_pauli(plan.run(to_pauli(rho[None], 2))[0], 2)
    assert len(seen) == 1 and seen[0][1] is None
    assert seen[0][0].dtype == np.float64
    u = circuit_unitary(circ)
    np.testing.assert_allclose(got, u @ rho @ u.conj().T, atol=ATOL)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_run_takes_kets_or_density_matrices_by_width(n):
    """A float64 batch (T, 4^n) is Pauli vectors (here of density
    matrices), run under each model's maps; one (T, 2^n) is kets, run under
    the unitaries. Each matches its dense oracle, and twirled kets with their
    closing frames undone are the plain circuit up to a global phase."""
    rng = np.random.default_rng(900 + n)
    circ = random_clifford_t(n, 8, rng)
    plan = compile_plan(circ, rc=True)
    rhos = np.stack([random_density(n, rng) for _ in range(3)])
    for model in MODELS:
        got = from_pauli(plan.run(to_pauli(rhos, n), model), n)
        for rho, g in zip(rhos, got):
            np.testing.assert_allclose(g, dense_oracle(circ, rho, model),
                                       atol=ATOL, err_msg=repr(model))
    kets = rhos[:, :, 0] / np.linalg.norm(rhos[:, :, 0], axis=1, keepdims=True)
    want = kets @ circuit_unitary(circ).T
    np.testing.assert_allclose(plan.run(kets), want, atol=ATOL)
    twirled = plan.run(kets, NoNoise(), range(3))
    np.testing.assert_allclose(np.abs((twirled.conj() * want).sum(axis=1)), 1.0,
                               atol=ATOL)


def test_run_rejects_other_widths_noisy_kets_and_uneven_batches():
    """A batch neither kets (T, 2^n) nor float64 Pauli vectors (T, 4^n)
    raises WidthMismatch: density matrices (T, 2^n, 2^n) and a complex
    (T, 4^n) batch included (float64 ones run, see
    `test_pauli_batch_equals_converted_matrix_batch`). An empty batch of kets
    or Pauli vectors raises InvalidParams, and so do kets under a noise
    model, maps for a different number of trials than the batch has states
    and seeds for a plan without RC tables."""
    circ = interleave_idle(Circuit(2, (Cycle((Gate.h(0), Gate.t(1))),
                                       Cycle((Gate.cnot(0, 1),))), CLIFFORD_T))
    plan = compile_plan(circ, rc=True)
    for shape in [(1, 2), (1, 8), (1, 64), (16,), (1, 16), (1, 2, 2),
                  (1, 4, 8), (1, 4, 4)]:
        with pytest.raises(WidthMismatch):
            plan.run(np.zeros(shape, dtype=np.complex128))
    for empty in [np.zeros((0, 4), dtype=np.complex128), np.zeros((0, 16))]:
        with pytest.raises(InvalidParams, match="empty"):
            plan.run(empty)
    kets = np.eye(4, dtype=np.complex128)
    with pytest.raises(InvalidParams, match="noise-free"):
        plan.run(kets, PauliNoise(0.01, 0.0, 0.0))
    with pytest.raises(InvalidParams, match="batch of 4"):
        plan.run(kets, NoNoise(), range(3))
    with pytest.raises(InvalidParams, match="rc"):
        compile_plan(circ).run(kets, NoNoise(), range(4))


def per_trial_toffoli_plan():
    """A 3-qubit plan whose trial 0 is the Toffoli with controls 2 and 0 and
    target 1, as `toffoli_decomposition` writes it, and trial 1 a CNOT and
    h and x letters padded with idle cycles, with each trial's circuit. Its
    segments open on the decomposition's CNOT cycles, where trial 1 flips
    another CNOT once and nothing after."""
    names = ("i", "h", "x", "t", "tdg")
    toffoli = toffoli_decomposition(2, 0, 1, 3)
    other = Circuit(3, (Cycle((Gate.h(2),)), Cycle((Gate.cnot(1, 0),)),
                        Cycle((Gate.x(0), Gate.h(1))))
                    + (Cycle(),) * (toffoli.depth - 3))
    circs = [toffoli, other]
    letters = np.zeros((2, toffoli.depth, 3), dtype=np.intp)
    flips = {}
    for t, circ in enumerate(circs):
        for k, cycle in enumerate(circ.cycles):
            for g in cycle.gates:
                if g.name == "cnot":
                    flips.setdefault(k, [(), ()])[t] += (g.qubits,)
                else:
                    letters[t, k, g.qubits[0]] = names.index(g.name)
    starts = sorted({0, *flips})
    segments = tuple((a, b, tuple(flips.get(a, ((),))))
                     for a, b in zip(starts, starts[1:] + [toffoli.depth]))
    unitaries = np.stack([gate_matrix(Gate(name, (0,)), 1) for name in names])
    return CircuitPlan(3, letters, unitaries, segments), circs


def pauli_oracle_plans(rng):
    """(plan, seeds or None, [(circuit, closing frame or None)] per trial):
    a 3-qubit Clifford+T plan as written and twirled, a 2-qubit one on one
    state (a (1, 16) batch), and one idle cycle (noise-free, every map is
    skipped). A twirled trial is the circuit `randomized_compile` writes out
    from its seed."""
    circ3 = random_clifford_t(3, 10, rng)
    circ2 = interleave_idle(Circuit(
        2, (Cycle((Gate.h(0), Gate.t(1))), Cycle((Gate.cnot(0, 1),))),
        CLIFFORD_T))
    plan3, plan2 = compile_plan(circ3, rc=True), compile_plan(circ2, rc=True)
    idle = Circuit(3, (Cycle(()),))
    return [(plan3, None, [(circ3, None)] * 3),
            (plan3, range(3), [randomized_compile(circ3, s) for s in range(3)]),
            (plan2, None, [(circ2, None)]),
            (plan2, [5], [randomized_compile(circ2, 5)]),
            (compile_plan(idle), None, [(idle, None)] * 2)]


def framed_oracle(circ, frame, rho, model):
    """The dense oracle, then the closing Pauli frame noise-free."""
    rho = dense_oracle(circ, rho, model)
    if frame is None:
        return rho
    f = circuit_unitary(Circuit(circ.n_qubits, (
        Cycle(tuple(Gate(p, (q,)) for q, p in enumerate(frame))),)))
    return f @ rho @ f.conj().T


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("slice_bytes", [None, 64])
def test_pauli_batch_equals_converted_matrix_batch(monkeypatch, model,
                                                   slice_bytes):
    """`run` on float64 Pauli vectors (T, 4^n) returns Pauli vectors, and
    they are `to_pauli` of each trial's dense oracle: noisy, with RC draws
    (the circuit `randomized_compile` writes, then its closing frame), at
    width 16 (a one-state (1, 16) batch at n = 2), whole and in one-state
    slices. The input is left as it
    was, and the output is a fresh array even where no map touched it."""
    if slice_bytes is not None:
        monkeypatch.setattr(circuits, "_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(23)
    for plan, seeds, cases in pauli_oracle_plans(rng):
        n = plan.n_qubits
        rhos = np.stack([random_density(n, rng) for _ in cases])
        v = to_pauli(rhos, n)
        before = v.copy()
        got = plan.run(v, model, seeds)
        assert got.dtype == np.float64 and got.shape == (len(cases), 4 ** n)
        np.testing.assert_array_equal(v, before)
        assert not np.shares_memory(got, v)
        want = [framed_oracle(circ, frame, rho, model)
                for (circ, frame), rho in zip(cases, rhos)]
        np.testing.assert_allclose(got, to_pauli(np.stack(want), n),
                                   rtol=0, atol=ATOL)


def test_run_rejects_non_finite_and_non_float64_pauli_vectors():
    """A Pauli-vector batch with a NaN or an infinity raises InvalidState
    (no Hermiticity check sees it); one of another dtype raises
    WidthMismatch."""
    plan = compile_plan(Circuit(2, (Cycle((Gate.h(0),)),
                                    Cycle((Gate.cnot(0, 1),)))))
    v = to_pauli(random_density(2, np.random.default_rng(4))[None], 2)
    for bad in (np.nan, np.inf):
        broken = np.concatenate([v, v])
        broken[1, 5] = bad
        with pytest.raises(InvalidState):
            plan.run(broken, AmplitudeDamping(0.1))
    for dtype in (np.complex128, np.float32, np.int64):
        with pytest.raises(WidthMismatch):
            plan.run(v.astype(dtype))


@pytest.mark.parametrize("n", range(1, 7))
def test_product_pauli_is_the_projector_pauli_vector(n):
    """`product_pauli` of qubit factors equals `to_pauli` of the kron'd
    projector, for random product kets and for |0...0>."""
    rng = np.random.default_rng(60 + n)
    factors = (rng.standard_normal((4, n, 2))
               + 1j * rng.standard_normal((4, n, 2)))
    factors /= np.linalg.norm(factors, axis=-1, keepdims=True)
    zero = np.zeros((1, n, 2))
    zero[:, :, 0] = 1.0
    for fs in (factors, zero):
        kets = []
        for f in fs:
            ket = np.ones(1)
            for q in range(n):
                ket = np.kron(ket, f[q])
            kets.append(ket)
        kets = np.array(kets)
        want = to_pauli(kets[:, :, None] * kets.conj()[:, None, :], n)
        got = product_pauli(fs)
        assert got.dtype == np.float64 and got.shape == (len(fs), 4 ** n)
        np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_diagonals_and_fidelities_read_the_matrices(n):
    """`pauli_diagonals(v)` is the diagonal of `from_pauli(v)`, and
    `pauli_fidelities(v, kets)` is Re <psi| rho |psi> per trial."""
    rng = np.random.default_rng(70 + n)
    rhos = np.stack([random_density(n, rng) for _ in range(3)])
    v = to_pauli(rhos, n)
    np.testing.assert_allclose(
        pauli_diagonals(v, n),
        np.diagonal(from_pauli(v, n), axis1=1, axis2=2).real, rtol=0, atol=ATOL)
    kets = rng.standard_normal((3, 2 ** n)) + 1j * rng.standard_normal((3, 2 ** n))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    want = np.einsum("ti,tij,tj->t", kets.conj(), rhos, kets).real
    np.testing.assert_allclose(pauli_fidelities(v, kets), want,
                               rtol=0, atol=ATOL)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_per_trial_toffoli_segment_matches_dense_oracle(model):
    """A Toffoli, written as its CNOT decomposition, in one trial and a CNOT
    in the other: their segments gather each trial's own CNOTs, or none, and
    each trial equals its circuit's dense oracle. Noise-free, the Toffoli
    trial is the Toffoli's permutation of the matrix."""
    plan, circs = per_trial_toffoli_plan()
    rng = np.random.default_rng(17)
    rhos = np.stack([random_density(3, rng) for _ in circs])
    got = from_pauli(plan.run(to_pauli(rhos, 3), model), 3)
    for t, circ in enumerate(circs):
        np.testing.assert_allclose(got[t], dense_oracle(circ, rhos[t], model),
                                   atol=ATOL)
    if isinstance(model, NoNoise):  # controls 2 and 0 set: |101> <-> |111>
        order = [0, 1, 2, 3, 4, 7, 6, 5]
        np.testing.assert_allclose(got[0], rhos[0][order][:, order],
                                   atol=ATOL)


# Per trial of a 4-qubit plan, the flips opening each of its three per-trial
# segments: sets repeat across trials and segments, some hold two CNOTs, some
# trials flip nothing, and trial 4 alone opens segment 0 with its set. The
# last segment's one CNOT is shared by every trial.
FLIP_TABLE_FLIPS = (
    (((0, 1),), ((0, 1), (2, 3)), (), ((0, 1),), ((1, 3), (2, 0))),
    (((2, 3), (1, 0)), (), ((0, 1), (2, 3)), (), ()),
    ((), ((3, 2),), ((0, 1),), ((0, 1), (2, 3)), ((3, 2),)),
)
FLIP_TABLE_STARTS = (0, 2, 3, 6, 7)  # segments of 2, 1, 3 and 1 cycles
FLIP_TABLE_NAMES = ("i", "h", "s", "t", "x")


def flip_table_plan():
    """The plan of FLIP_TABLE_FLIPS with random letters (idle on a flip's
    qubits in its segment's first cycle), and each trial's circuit."""
    rng = np.random.default_rng(29)
    trials, depth, n = 5, FLIP_TABLE_STARTS[-1], 4
    letters = rng.integers(len(FLIP_TABLE_NAMES), size=(trials, depth, n))
    segments = tuple(zip(FLIP_TABLE_STARTS, FLIP_TABLE_STARTS[1:],
                         (*FLIP_TABLE_FLIPS, (((1, 2),),))))
    circs = []
    for t in range(trials):
        cycles = []
        for start, stop, flips in segments:
            (flips_t,) = flips if len(flips) == 1 else (flips[t],)
            for q in {q for f in flips_t for q in f}:
                letters[t, start, q] = 0
            for k in range(start, stop):
                gates = [Gate.cnot(*f) for f in (flips_t if k == start else ())]
                gates += [Gate(FLIP_TABLE_NAMES[a], (q,))
                          for q, a in enumerate(letters[t, k]) if a]
                cycles.append(Cycle(tuple(gates)))
        circs.append(Circuit(n, tuple(cycles)))
    unitaries = np.stack([gate_matrix(Gate(name, (0,)), 1)
                          for name in FLIP_TABLE_NAMES])
    return CircuitPlan(n, letters, unitaries, segments), circs


def test_flip_table_codes_each_distinct_set_once():
    """() is code 0, the per-trial segments' sets come next (the `gathered`
    sets `run` tabulates), then the shared one; a repeated set has one code.
    A compiled plan shares every segment's flips, so it tabulates nothing."""
    plan, _ = flip_table_plan()
    per_trial = {f for flips in FLIP_TABLE_FLIPS for f in flips} - {()}
    assert plan.flip_sets[0] == ()
    assert set(plan.flip_sets[1:plan.gathered]) == per_trial
    assert plan.flip_sets[plan.gathered:] == (((1, 2),),)
    for codes, (_, _, flips) in zip(plan.flip_codes, plan.segments):
        assert [plan.flip_sets[c] for c in codes] == list(flips)
    circ = random_clifford_t(4, 12, np.random.default_rng(37))
    for compiled in (compile_plan(circ), compile_plan(circ, rc=True)):
        assert compiled.gathered == 0
        assert all(len(codes) == 1 for codes in compiled.flip_codes)


@pytest.mark.parametrize("slice_bytes", [None, 512])
@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_flip_table_matches_dense_oracle(monkeypatch, model, slice_bytes):
    """Per-trial flips gathered through the plan's code table, as Pauli
    vectors and as kets, whole and with the code arrays sliced (one Pauli
    vector, two kets a slice): each trial equals its circuit's dense oracle
    and `circuit_unitary`."""
    if slice_bytes is not None:
        monkeypatch.setattr(circuits, "_SLICE_BYTES", slice_bytes)
    plan, circs = flip_table_plan()
    rng = np.random.default_rng(31)
    rhos = np.stack([random_density(4, rng) for _ in circs])
    kets = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    got = from_pauli(plan.run(to_pauli(rhos, 4), model), 4)
    got_kets = plan.run(kets)
    for t, circ in enumerate(circs):
        np.testing.assert_allclose(got[t], dense_oracle(circ, rhos[t], model),
                                   atol=ATOL)
        np.testing.assert_allclose(got_kets[t], circuit_unitary(circ) @ kets[t],
                                   atol=ATOL)


def test_plan_rejects_flips_for_another_number_of_trials():
    """A segment's flips are one set for every trial or one per trial of
    letters; any other count raises InvalidParams when the plan is built,
    and so does a flip that is not a CNOT on two distinct qubits of the
    register: three qubits, a repeated one, one past the width or not a
    qubit index, or a bare pair where a set of pairs belongs."""
    letters = np.zeros((3, 2, 2), dtype=np.intp)
    with pytest.raises(InvalidParams, match="2 flips for 3 trials"):
        CircuitPlan(2, letters, I2[None],
                    ((0, 1, (((0, 1),), ())), (1, 2, ((),))))
    with pytest.raises(InvalidParams, match="0 flips for 3 trials"):
        CircuitPlan(2, letters, I2[None], ((0, 2, ()),))
    wide = np.zeros((3, 2, 3), dtype=np.intp)
    for flips in [((2, 0, 1),), ((1, 1),), ((0, 3),), ((-1, 0),), ((0.5, 1),),
                  (0, 1)]:
        with pytest.raises(InvalidParams, match="not a CNOT"):
            CircuitPlan(3, wide, I2[None],
                        ((0, 1, ((), ((0, 1),), flips)), (1, 2, ((),))))


def test_plan_rejects_flips_on_non_integer_qubits():
    """A float or bool qubit equal to an int makes a flip equal to a valid
    one, (0.0, 1) == (0, 1), so the plan checks each type of qubit its flips
    hold: any but a Python or numpy integer raises InvalidParams, also when
    a valid flip of equal value comes first. Numpy integers pass."""
    letters = np.zeros((2, 1, 3), dtype=np.intp)
    for flips in [(((0.0, 1),), ((0, 1),)), (((0, 1),), ((0.0, 1),)),
                  (((True, 2),), ()), ((), ((2, np.float64(0)),))]:
        with pytest.raises(InvalidParams, match="not a CNOT"):
            CircuitPlan(3, letters, I2[None], ((0, 1, flips),))
    plan = CircuitPlan(3, letters, I2[None],
                       ((0, 1, (((np.int64(0), 1),), ((2, np.uint8(1)),))),))
    assert plan.flip_sets[1:] == (((0, 1),), ((2, 1),))


@pytest.mark.parametrize("slice_bytes", [None, 64])
def test_run_rejects_non_hermitian_density_matrices(monkeypatch, slice_bytes):
    """A real Pauli vector cannot hold a non-Hermitian matrix, so the matrix
    edge (`simulate` and `apply_local_unitary`) raises NotHermitian for one
    that deviates by more than HERMITICITY_TOL, or holds a NaN, instead of
    dropping the difference; a deviation inside the tolerance runs. The
    check comes before `run` slices anything, so no slice size skips it."""
    if slice_bytes is not None:
        monkeypatch.setattr(circuits, "_SLICE_BYTES", slice_bytes)
    circ = Circuit(2, (Cycle((Gate.h(0), Gate.t(1))), Cycle((Gate.cnot(0, 1),))))
    rho = random_density(2, np.random.default_rng(3))
    skewed, nan, near = rho.copy(), rho.copy(), rho.copy()
    skewed[0, 1] += 1e-6
    nan[1, 1] = np.nan
    near[0, 1] += 1e-10
    for state in (skewed, nan):
        with pytest.raises(NotHermitian):
            simulate(circ, DensityMatrix(state), PauliNoise(0.01, 0.0, 0.0))
        with pytest.raises(NotHermitian):
            apply_local_unitary(state, H, (0,), 2)
    np.testing.assert_allclose(simulate(circ, DensityMatrix(near)).matrix,
                               dense_oracle(circ, rho, NoNoise()), atol=1e-9)
    h = embed_unitary(H, (0,), 2)
    np.testing.assert_allclose(apply_local_unitary(near, H, (0,), 2),
                               h @ rho @ h, atol=1e-9)


def test_every_state_update_runs_through_plan_run(monkeypatch):
    """The dense side paths, the channel on every qubit, the gate fidelity
    and the QAOA angle search each reach `CircuitPlan.run`, the one code path
    that moves a state; `apply_local_unitary` still matches its oracle."""
    calls = []
    real = circuits.CircuitPlan.run

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(circuits.CircuitPlan, "run", counting)
    rho = random_density(3, np.random.default_rng(11))
    dm = DensityMatrix(rho)
    for u, targets in [(H, (1,)), (CNOT, (2, 0))]:
        calls.clear()
        full = embed_unitary(u, targets, 3)
        np.testing.assert_allclose(apply_local_unitary(rho, u, targets, 3),
                                   full @ rho @ full.conj().T, atol=ATOL)
        assert calls, f"apply_local_unitary on {targets} never reached run"
    paths = {
        "apply_cycle": lambda: apply_cycle(dm, Cycle((Gate.h(0),))),
        "apply_pauli_frame": lambda: apply_pauli_frame(dm, ("x", "i", "z")),
        "apply_channel_all": lambda: apply_channel_all(
            rho, AmplitudeDamping(0.1), 3),
        "average_gate_fidelity": lambda: average_gate_fidelity(
            H, AmplitudeDamping(0.1)),
        "optimize_qaoa_angles": lambda: optimize_qaoa_angles(resolution=0.5),
    }
    for name, call in paths.items():
        calls.clear()
        call()
        assert calls, f"{name} never reached run"


def test_protocols_and_gate_fidelity_make_no_matrix_conversions(monkeypatch):
    """RB, quantum volume and the average gate fidelity start from
    `product_pauli` inputs and read the Pauli vectors back without a
    `to_pauli`, `from_pauli` or `is_hermitian` call, wherever a module looks
    them up, and give the numbers they give without the counters; the
    counters do see the one conversion each way at `simulate`'s edge."""
    def protocols():
        return (rb_experiment((1, 4, 9), 5, AmplitudeDamping(0.1), seed=3),
                quantum_volume(PauliNoise(0.01, 0.01, 0.01), 3, 3, seed=2),
                average_gate_fidelity(H, AmplitudeDamping(0.1)))

    want = protocols()
    calls = dict.fromkeys(("to_pauli", "from_pauli", "is_hermitian"), 0)

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for module in (circuits, linalg, states):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    rb, qv, fidelity = protocols()
    np.testing.assert_array_equal(rb, want[0])
    assert (qv, fidelity) == want[1:]
    assert calls == {"to_pauli": 0, "from_pauli": 0, "is_hermitian": 0}
    simulate(Circuit(1, (Cycle((Gate.h(0),)),)), DensityMatrix.basis(1, 0))
    assert calls == {"to_pauli": 1, "from_pauli": 1, "is_hermitian": 1}
