"""Pure and mixed state containers plus measurement utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, InvalidState, NotNormalized
from .linalg import as_complex, is_hermitian

NORM_TOL = 1e-9
TRACE_TOL = 1e-9
DIAG_CLAMP = -1e-8  # diagonal mass below this is an error, above it is noise


def _check_power_of_two(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2 ** n != dim:
        raise InvalidParams(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class Ket:
    """Normalized pure state over n qubits; qubit 0 is the most-significant bit."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        _check_power_of_two(amps.size)
        check_norms(amps, NotNormalized)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @classmethod
    def basis(cls, n: int, index: int) -> "Ket":
        if not 0 <= index < 2 ** n:
            raise IndexError(f"basis index {index} out of range for {n} qubits")
        amps = np.zeros(2 ** n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, PSD up to numerical tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidState(f"density matrix must be square, got {m.shape}")
        _check_power_of_two(m.shape[0])

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def validate(self, psd_tol: float = -1e-9) -> "DensityMatrix":
        """Check trace, hermiticity, and positivity; returns self."""
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace {tr} differs from 1")
        if not is_hermitian(self.matrix):
            raise InvalidState("density matrix is not Hermitian")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals[0] < psd_tol:
            raise InvalidState(f"negative eigenvalue {evals[0]:.3e}")
        return self

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityMatrix":
        a = ket.amplitudes
        return cls(np.outer(a, a.conj()))

    @classmethod
    def basis(cls, n: int, index: int) -> "DensityMatrix":
        return cls.from_ket(Ket.basis(n, index))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        dim = 2 ** n
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def ket_to_density(ket: Ket) -> DensityMatrix:
    return DensityMatrix.from_ket(ket)


def random_product_state(n: int, seed=None) -> Ket:
    """Tensor product of independent single-qubit states uniform on the sphere.

    Each factor is cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> with
    phi ~ U[0, 2pi) and cos(theta) ~ U[-1, 1].
    """
    return Ket(random_product_kets(n, [seed])[0])


def random_product_kets(n: int, seeds) -> np.ndarray:
    """`random_product_state` for each seed, as a (T, 2^n) batch. Each seed's
    draws are one `uniform(lows, highs)` call, the same stream as the scalar
    (phi, cos theta) pairs qubit by qubit. Raises NotNormalized if any ket's
    norm is off by more than NORM_TOL."""
    if n < 1:
        raise InvalidParams("need at least one qubit")
    lows, highs = np.tile([0.0, -1.0], n), np.tile([2.0 * np.pi, 1.0], n)
    draws = np.array([np.random.default_rng(s).uniform(lows, highs)
                      for s in seeds]).reshape(-1, n, 2)
    phi, theta = draws[..., 0], np.arccos(draws[..., 1])
    factors = np.stack([np.cos(theta / 2.0),
                        np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)
    amps = factors[:, 0]
    for q in range(1, n):
        amps = (amps[:, :, None] * factors[:, q, None, :]).reshape(len(amps), -1)
    check_norms(amps, NotNormalized)
    return amps


def check_norms(kets: np.ndarray, error=InvalidState) -> None:
    """Raise `error` unless every ket of the batch (T, 2^n) has norm 1 within
    NORM_TOL."""
    dev = np.abs(np.linalg.norm(kets, axis=-1) - 1.0)
    if np.any(dev > NORM_TOL):
        raise error(f"state norm off 1 by {dev.max():.3e}")


def check_traces(rhos: np.ndarray) -> None:
    """Raise InvalidState unless every density matrix of the batch
    (T, 2^n, 2^n) has trace 1 within TRACE_TOL."""
    dev = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    if np.any(dev > TRACE_TOL):
        raise InvalidState(f"trace off 1 by {dev.max():.3e}")


def measurement_distribution(dm: DensityMatrix) -> np.ndarray:
    """Computational-basis outcome probabilities from the diagonal.

    Diagonal entries in (DIAG_CLAMP, 0) are clamped to zero and the vector is
    renormalized; anything below DIAG_CLAMP means the state is broken.
    """
    diag = np.real(np.diag(dm.matrix)).copy()
    if diag.min() < DIAG_CLAMP:
        raise InvalidState(f"diagonal entry {diag.min():.3e} below {DIAG_CLAMP}")
    np.clip(diag, 0.0, None, out=diag)
    total = diag.sum()
    if total <= 0.0:
        raise InvalidState("measurement distribution has no mass")
    return diag / total


def sample_measurements(dm: DensityMatrix, shots: int, seed=None) -> np.ndarray:
    """Multinomial counts over basis outcomes; deterministic for a fixed seed."""
    if shots < 1:
        raise InvalidParams("shots must be >= 1")
    probs = measurement_distribution(dm)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)
