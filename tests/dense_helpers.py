"""Dense helpers that only the tests use: an operator embedded in the full
2^n x 2^n space, a gate's full matrix, and equality of two matrices up to a
global phase."""

import numpy as np

from qnoisebench.errors import DuplicateIndex, InvalidParams
from qnoisebench.gates import Gate
from qnoisebench.linalg import as_complex, phase_aligned_distance


def embed_unitary(u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit operator acting on `targets` into the full 2^n space."""
    u = as_complex(u)
    k = len(targets)
    if u.shape != (2 ** k, 2 ** k):
        raise InvalidParams(f"operator shape {u.shape} does not match {k} targets")
    if len(set(targets)) != k:
        raise DuplicateIndex(f"repeated qubit in {targets}")
    if any(q < 0 or q >= n for q in targets):
        raise IndexError(f"targets {targets} out of range for {n} qubits")
    dim = 2 ** n
    shifts = [n - 1 - q for q in targets]  # bit position of each target
    full = np.zeros((dim, dim), dtype=np.complex128)
    target_mask = 0
    for sh in shifts:
        target_mask |= 1 << sh

    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    for pos, sh in enumerate(shifts):
        sub |= ((idx >> sh) & 1) << (k - 1 - pos)
    base = idx & ~target_mask

    # Group rows by their non-target bits; the operator acts within each group.
    for col_sub in range(2 ** k):
        col_bits = 0
        for pos, sh in enumerate(shifts):
            col_bits |= ((col_sub >> (k - 1 - pos)) & 1) << sh
        cols = base | col_bits
        full[idx, cols] = u[sub, col_sub]
    return full


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n unitary for one gate."""
    if any(q >= n for q in gate.qubits):
        raise IndexError(f"gate {gate.name} on {gate.qubits} exceeds width {n}")
    return embed_unitary(gate.matrix(), gate.qubits, n)


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    return phase_aligned_distance(u, v) <= tol
