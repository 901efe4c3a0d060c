"""Dense helpers that only the tests use: a gate's full 2^n x 2^n matrix,
and equality of two matrices up to a global phase."""

import numpy as np

from qnoisebench.gates import Gate, embed_unitary
from qnoisebench.linalg import phase_aligned_distance


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n unitary for one gate."""
    if any(q >= n for q in gate.qubits):
        raise IndexError(f"gate {gate.name} on {gate.qubits} exceeds width {n}")
    return embed_unitary(gate.matrix(), gate.qubits, n)


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    return phase_aligned_distance(u, v) <= tol
