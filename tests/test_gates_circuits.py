import hashlib

import numpy as np
import pytest

from qnoisebench.circuits import (
    CLIFFORD_T,
    PARAM_ROTATIONS,
    Circuit,
    Cycle,
    apply_cycle,
    circuit_unitary,
    simulate,
    toffoli_decomposition,
)
from qnoisebench.errors import (
    DuplicateIndex,
    InvalidParams,
    WidthMismatch,
)
from qnoisebench.gates import (
    CNOT,
    FIXED_MATRICES,
    H,
    S,
    T,
    Gate,
    gate_matrix,
    rx_matrix,
    rz_matrix,
    word_table,
)
from qnoisebench.linalg import phase_canonical_keys
from qnoisebench.noise import PauliNoise
from qnoisebench.states import DensityMatrix, Ket, ket_to_density


def test_fixed_gate_literals():
    assert np.allclose(H @ H, np.eye(2))
    assert np.allclose(S @ S, np.array([[1, 0], [0, -1]]))
    assert np.allclose(T @ T, S)


def test_rz_convention():
    # Rz(theta) = diag(1, e^{i theta}); T is Rz(pi/4).
    assert np.allclose(rz_matrix(np.pi / 4), T)
    assert np.allclose(rz_matrix(np.pi / 2), S)


def test_rx_is_hadamard_conjugated_rz():
    theta = 0.731
    assert np.allclose(rx_matrix(theta), H @ rz_matrix(theta) @ H)


def test_gate_validation():
    with pytest.raises(InvalidParams):
        Gate("bogus", (0,))
    with pytest.raises(InvalidParams):
        Gate("h", (0, 1))
    with pytest.raises(DuplicateIndex):
        Gate("cnot", (1, 1))
    with pytest.raises(InvalidParams):
        Gate("rz", (0,))
    with pytest.raises(InvalidParams):
        Gate("h", (0,), 0.3)


def test_gate_qubit_indices_must_be_integers():
    """A float or bool index raises InvalidParams when the gate is made, even
    one equal to an int; Python and numpy integers pass."""
    for name, qubits in [("h", (0.5,)), ("h", (1.0,)), ("h", (True,)),
                         ("cnot", (0.0, 1)), ("cnot", (0, np.float64(2))),
                         ("cnot", (False, 1)), ("x", ("0",))]:
        with pytest.raises(InvalidParams, match="must be integers"):
            Gate(name, qubits)
    assert Gate("cnot", (np.int64(0), np.uint8(1))).qubits == (0, 1)
    assert Gate.h(np.intp(2)).matrix() is H


def test_gate_angle_coerced_to_float():
    g = Gate("rz", (0,), np.float64(0.25))
    assert type(g.angle) is float


def test_gate_matrix_msb_convention():
    # Qubit 0 is the most significant bit: X on qubit 0 of 2 maps
    # |00> -> |10>, i.e. column 0 hits row 2.
    u = gate_matrix(Gate.x(0), 2)
    assert u[2, 0] == 1.0
    u = gate_matrix(Gate.x(1), 2)
    assert u[1, 0] == 1.0


def test_cnot_embedding_control_below_target():
    # cnot(1, 0) on 2 qubits: control is qubit 1 (LSB).
    u = gate_matrix(Gate.cnot(1, 0), 2)
    expected = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            out = ((a ^ b) << 1) | b
            expected[out, (a << 1) | b] = 1.0
    assert np.allclose(u, expected)


def test_cycle_rejects_overlap():
    with pytest.raises(DuplicateIndex):
        Cycle((Gate.h(0), Gate.x(0)))


def test_circuit_width_must_be_a_positive_integer():
    for n in (0, 2.5, "a", True):
        with pytest.raises(InvalidParams):
            Circuit(n)
    assert Circuit(np.int64(2)).n_qubits == 2


def test_circuit_gate_set_enforced():
    with pytest.raises(InvalidParams):
        Circuit(1, (Cycle((Gate.rz(0, 0.5),)),), CLIFFORD_T)
    Circuit(1, (Cycle((Gate.rz(0, 0.5),)),), PARAM_ROTATIONS)


def test_simulate_rejects_width_mismatch():
    circ = Circuit(2, (Cycle((Gate.h(0),)),), CLIFFORD_T)
    with pytest.raises(WidthMismatch):
        simulate(circ, DensityMatrix.basis(3, 0))


def test_noise_fires_after_every_cycle_on_every_qubit():
    # Two idle cycles under pure X flips: flip probability composes as
    # two applications of p on each qubit independently.
    p = 0.2
    noise = PauliNoise(p, 0.0, 0.0)
    circ = Circuit(1, (Cycle(()), Cycle(())), CLIFFORD_T)
    out = simulate(circ, DensityMatrix.basis(1, 0), noise=noise)
    # After one flip channel: diag(1-p, p); after two: stays |0> with
    # (1-p)^2 + p^2.
    stay = (1 - p) ** 2 + p ** 2
    assert np.allclose(np.diag(out.matrix).real, [stay, 1 - stay])


def test_toffoli_decomposition_truth_table():
    circ = toffoli_decomposition(0, 1, 2)
    u = circuit_unitary(circ)
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]  # |110> <-> |111>
    phase = u[0, 0]
    assert np.allclose(u / phase, expected, atol=1e-10)


def test_toffoli_decomposition_needs_distinct_qubits():
    with pytest.raises(DuplicateIndex):
        toffoli_decomposition(0, 0, 1)


def test_circuit_unitary_matches_simulation():
    rng = np.random.default_rng(8)
    circ = Circuit(2, (
        Cycle((Gate.h(0),)),
        Cycle((Gate.cnot(0, 1),)),
        Cycle((Gate.t(1), Gate.s(0))),
    ), CLIFFORD_T)
    u = circuit_unitary(circ)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    rho = ket_to_density(Ket(amps))
    direct = u @ rho.matrix @ u.conj().T
    assert np.allclose(simulate(circ, rho).matrix, direct)


def product_of_embeddings(circ):
    """The plain formula: one dense 2^n x 2^n `gate_matrix` per gate,
    multiplied in order, later gates on the left."""
    u = np.eye(2 ** circ.n_qubits, dtype=np.complex128)
    for c in circ.cycles:
        for g in c.gates:
            u = gate_matrix(g, circ.n_qubits) @ u
    return u


@pytest.mark.parametrize("n", range(1, 7))
def test_circuit_unitary_matches_product_of_embeddings(n):
    """Every gate matrix here is symmetric except Y (Y^T = -Y), so the y
    gates are what would show a gate contracted on its output axes."""
    rng = np.random.default_rng(900 + n)
    makers = [(1, lambda q: Gate.rz(*q, rng.uniform(-np.pi, np.pi))),
              (1, lambda q: Gate.rx(*q, rng.uniform(-np.pi, np.pi))),
              (1, lambda q: Gate.h(*q)), (1, lambda q: Gate.t(*q)),
              (1, lambda q: Gate.y(*q)),
              (2, lambda q: Gate.cnot(*q))]
    for _ in range(3):
        cycles = []
        for _ in range(10):
            free, gates = list(rng.permutation(n)), []
            while free:
                k, make = makers[rng.integers(len(makers))]
                if k <= len(free):
                    gates.append(make([int(q) for q in free[:k]]))
                    free = free[k:]
            cycles.append(Cycle(tuple(gates)))
        circ = Circuit(n, tuple(cycles))
        np.testing.assert_allclose(circuit_unitary(circ),
                                   product_of_embeddings(circ), atol=1e-12)


def test_apply_cycle_is_noiseless():
    rho = DensityMatrix.basis(1, 0)
    out = apply_cycle(rho, Cycle((Gate.x(0),)))
    assert np.allclose(out.matrix, [[0, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Word tables.


def check_parent_letter_products(table):
    """Each word's matrix is its last letter times its parent's matrix."""
    assert table.parent[0] == -1
    letters = np.stack([FIXED_MATRICES[name] for name in table.letters])
    built = letters[table.letter[1:]] @ table.mats[table.parent[1:]]
    assert np.abs(built - table.mats[1:]).max() < 1e-12


def test_rz_word_table_pinned_to_depth_25():
    table = word_table(("h", "s", "sdg", "t", "tdg"))
    table.extend_to(25)
    assert np.diff(table.level_bounds[:27]).tolist() == [
        1, 5, 11, 24, 43, 71, 89, 132, 160, 248, 336, 528, 640, 992, 1344,
        2112, 2560, 3968, 5376, 8448, 10240, 15872, 21504, 33792, 40960,
        63488]
    words = [()]
    for parent, letter in zip(table.parent[1:].tolist(),
                              table.letter[1:].tolist()):
        words.append(words[parent] + (table.letters[letter],))
    assert all(table.word(i) == words[i] for i in range(0, len(words), 97))
    spelled = "\n".join(" ".join(w) for w in words)
    assert hashlib.sha256(spelled.encode()).hexdigest() == (
        "fc7ae444c83dfd747e2e85de898d7815c6b84b416d5bf1acd2f661816f17fe25")
    check_parent_letter_products(table)


def test_clifford_word_table_pinned():
    table = word_table(("h", "s")).closure()
    assert table.level_bounds == [0, 1, 3, 6, 11, 16, 21, 24, 24]
    check_parent_letter_products(table)
    # Every word's key finds that word; a key outside the table finds -1.
    keys = phase_canonical_keys(table.mats)
    assert table.find(keys).tolist() == list(range(24))
    assert table.find(phase_canonical_keys(T[None])).tolist() == [-1]
