"""Quality metrics for states and operations."""

from __future__ import annotations

import warnings

import numpy as np

from .circuits import CircuitPlan, product_pauli
from .errors import DimMismatch, NotADistribution, OutOfRange
from .gates import I2
from .linalg import hermitian_eigenvalues
from .noise import NoiseModel
from .states import DensityMatrix

PURITY_WARN = 1.0 - 1e-6

# |0>, |1>, |+>, |->, |+i>, |-i>.
_AXIS_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]]
                      ) / np.sqrt([1.0, 1.0, 2.0, 2.0, 2.0, 2.0])[:, None]


def process_fidelity(ideal: DensityMatrix, noisy: DensityMatrix) -> float:
    """Overlap Tr[ideal * noisy]; meaningful as a fidelity when ideal is pure."""
    if ideal.matrix.shape != noisy.matrix.shape:
        raise DimMismatch(
            f"state dims differ: {ideal.matrix.shape} vs {noisy.matrix.shape}"
        )
    if ideal.purity() < PURITY_WARN:
        warnings.warn("ideal state is not pure; overlap is not a fidelity",
                      stacklevel=2)
    return float(np.trace(ideal.matrix @ noisy.matrix).real)


def average_gate_fidelity(u: np.ndarray, noise: NoiseModel) -> float:
    """Mean process fidelity of a noisy single-qubit gate over the six axis
    states, where noise acts after the gate: they run through a one-qubit
    plan of u as kets for the ideal outputs and as Pauli vectors under noise,
    and Tr(ideal noisy) is 2 sum_P r_P s_P over the two Pauli vectors."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DimMismatch(f"expected a 2x2 unitary, got {u.shape}")
    plan = CircuitPlan(1, np.ones((1, 1, 1), dtype=np.intp),
                       np.stack([I2, u]), ((0, 1, ((),)),))
    ideal = product_pauli(plan.run(_AXIS_KETS)[:, None])
    noisy = plan.run(product_pauli(_AXIS_KETS[:, None]), noise)
    return 2 * float(np.einsum("tp,tp->", ideal, noisy)) / len(_AXIS_KETS)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of a - b."""
    if a.matrix.shape != b.matrix.shape:
        raise DimMismatch(f"state dims differ: {a.matrix.shape} vs {b.matrix.shape}")
    eigs = hermitian_eigenvalues(a.matrix - b.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))


def fidelity_trace_bounds(f: float) -> tuple[float, float]:
    """Bounds (1 - sqrt(f), sqrt(1 - f)) on trace distance given fidelity f."""
    if f < -1e-9 or f > 1.0 + 1e-9:
        raise OutOfRange(f"fidelity {f} outside [0, 1]")
    f = min(max(f, 0.0), 1.0)
    return 1.0 - np.sqrt(f), np.sqrt(1.0 - f)


def hellinger(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Hellinger distance between two distributions and 1 - distance."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimMismatch(f"length mismatch: {p.shape} vs {q.shape}")
    for name, vec in (("p", p), ("q", q)):
        if np.any(vec < -1e-12):
            raise NotADistribution(f"{name} has negative entries")
        if abs(vec.sum() - 1.0) > 1e-8:
            raise NotADistribution(f"{name} sums to {vec.sum()}, not 1")
    diff = np.sqrt(np.clip(p, 0.0, None)) - np.sqrt(np.clip(q, 0.0, None))
    distance = float(np.sqrt(0.5 * np.sum(diff * diff)))
    return distance, 1.0 - distance
