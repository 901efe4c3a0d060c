"""The superoperator kernel of `simulate` against slow dense oracles.

The oracle conjugates the full 2^n x 2^n density matrix by each gate's
`gate_matrix`, then applies the channel to every qubit as an explicit sum of
embedded Kraus operators. Seeded loops, no property-testing library.
"""

import itertools

import numpy as np
import pytest

from qnoisebench import circuits
from qnoisebench.benchmarks import build_random, random_plan
from qnoisebench.circuits import (CLIFFORD_T, Circuit, Cycle, apply_cycle,
                                  apply_local_unitary, circuit_unitary,
                                  compile_plan, simulate)
from qnoisebench.compiling import (apply_pauli_frame, interleave_idle,
                                   randomized_compile)
from qnoisebench.errors import InvalidParams, WidthMismatch
from qnoisebench.gates import (CLIFFORD_T_NAMES, GATE_ARITY, H, Gate, embed_unitary,
                              gate_matrix)
from qnoisebench.noise import (
    NOISE_KINDS,
    AmplitudeDamping,
    CoherentNoise,
    NoNoise,
    PauliNoise,
    PauliPlusCoherent,
    PhaseDamping,
    apply_superoperators,
    from_paired,
    kraus_operators,
    noise_level_table,
    superoperator,
    to_paired,
)
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
    """Only one-qubit gates, CNOT and Toffoli have a kernel; an operator
    that is neither, or one wider than the register, is refused."""
    rho = random_density(2, np.random.default_rng(0))
    with pytest.raises(InvalidParams):
        apply_local_unitary(rho, np.kron(H, H), (0, 1), 2)
    with pytest.raises(InvalidParams):
        apply_local_unitary(rho, H, (0, 1), 2)
    with pytest.raises(WidthMismatch):
        apply_local_unitary(rho, H, (2,), 2)


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("n", range(1, 9))
def test_random_circuits_match_dense_oracle(model, n):
    """Multi-cycle circuits, so single-qubit maps compose across cycles and
    meet CNOTs and Toffolis on the way; fewer samples at the larger widths."""
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
    rz/rx letters and the CNOT and Toffoli orders on kets."""
    rng = np.random.default_rng(300 + n)
    names = sorted(GATE_ARITY) + ["cnot"] * 3
    for _ in range(4):
        circ = Circuit(n, tuple(random_cycle(n, rng, names) for _ in range(8)))
        plan = compile_plan(circ)
        got = plan.run(np.eye(2 ** n, dtype=np.complex128),
                       plan.compose(ket=True))
        np.testing.assert_allclose(got.T, circuit_unitary(circ), atol=ATOL)


@pytest.mark.parametrize("slice_bytes", [None, 512])
@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_drawn_batch_matches_dense_oracle(monkeypatch, model, slice_bytes):
    """Random circuits drawn into one plan, each trial with its own letters
    and CNOTs, run as one batch of density matrices and one of kets (whole,
    or in slices of one density matrix and two kets); each trial equals its
    own circuit's dense oracle."""
    if slice_bytes is not None:
        monkeypatch.setattr(circuits, "_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(11)
    seeds, depth = range(6), 9
    plan = random_plan(4, depth, seeds)
    rhos = np.stack([random_density(4, rng) for _ in seeds])
    kets = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    got = from_paired(plan.run(to_paired(rhos, 4), plan.compose(model)), 4)
    got_kets = plan.run(kets, plan.compose(ket=True))
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
    rng = np.random.default_rng(n)
    rho = random_density(n, rng) if n <= 6 else rng.standard_normal((2 ** n,) * 2)
    v = to_paired(rho, n)
    assert not np.shares_memory(v, rho)
    np.testing.assert_array_equal(from_paired(v, n), rho)
    # Identity maps, in runs or everywhere, leave the digit order alone.
    maps = [None if rng.random() < 0.5 else np.eye(4) for _ in range(n)]
    np.testing.assert_array_equal(apply_superoperators(v, maps), v)
    np.testing.assert_array_equal(apply_superoperators(v, [None] * n), v)


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
