"""Pure and mixed state containers plus measurement utilities."""

from __future__ import annotations

import numbers
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
    """`random_product_state` for each seed, as a (T, 2^n) batch: the
    `product_kets` of `random_product_factors`."""
    return product_kets(random_product_factors(n, seeds))


def random_product_factors(n: int, seeds) -> np.ndarray:
    """The qubit factors (T, n, 2) of `random_product_state` for each seed.
    Each seed's draws are one `uniform(lows, highs)` call, the same stream as
    the scalar (phi, cos theta) pairs qubit by qubit."""
    if n < 1:
        raise InvalidParams("need at least one qubit")
    lows, highs = np.tile([0.0, -1.0], n), np.tile([2.0 * np.pi, 1.0], n)
    draws = np.array([np.random.default_rng(s).uniform(lows, highs)
                      for s in seeds]).reshape(-1, n, 2)
    phi, theta = draws[..., 0], np.arccos(draws[..., 1])
    return np.stack([np.cos(theta / 2.0),
                     np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)


def product_kets(factors: np.ndarray) -> np.ndarray:
    """Kets (T, 2^n) of the products of qubit factors (T, n, 2), qubit 0 most
    significant. Raises NotNormalized if any ket's norm is off by more than
    NORM_TOL."""
    amps = factors[:, 0]
    for q in range(1, factors.shape[1]):
        amps = (amps[:, :, None] * factors[:, q, None, :]).reshape(len(amps), -1)
    check_norms(amps, NotNormalized)
    return amps


def check_count(name: str, value) -> None:
    """Raise InvalidParams unless a count is an integer >= 1, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise InvalidParams(f"{name}: {value!r} must be an integer >= 1")


def check_norms(kets: np.ndarray, error=InvalidState) -> None:
    """Raise `error` unless every ket of the batch (T, 2^n) has norm 1 within
    NORM_TOL (a NaN fails)."""
    dev = np.abs(np.linalg.norm(kets, axis=-1) - 1.0)
    if not np.all(dev <= NORM_TOL):
        raise error(f"state norm off 1 by {np.max(dev):.3e}")


def check_traces(traces: np.ndarray) -> None:
    """Raise InvalidState unless every trace of a batch of density states
    is 1 within TRACE_TOL (a NaN fails)."""
    dev = np.abs(traces - 1.0)
    if not np.all(dev <= TRACE_TOL):
        raise InvalidState(f"trace off 1 by {np.max(dev):.3e}")


def measurement_distribution(dm: DensityMatrix) -> np.ndarray:
    """Computational-basis outcome probabilities from the diagonal."""
    return diagonal_distribution(np.real(np.diag(dm.matrix)))


def diagonal_distribution(diag: np.ndarray) -> np.ndarray:
    """Outcome probabilities from a density matrix's real diagonal: entries
    in (DIAG_CLAMP, 0) are clamped to zero and the vector renormalized;
    anything below DIAG_CLAMP, or a NaN, means the state is broken."""
    if not np.isfinite(diag).all():
        raise InvalidState("diagonal holds a non-finite entry")
    if diag.min() < DIAG_CLAMP:
        raise InvalidState(f"diagonal entry {diag.min():.3e} below {DIAG_CLAMP}")
    diag = np.clip(diag, 0.0, None)
    total = diag.sum()
    if total <= 0.0:
        raise InvalidState("measurement distribution has no mass")
    return diag / total


def sample_measurements(dm: DensityMatrix, shots: int, seed=None) -> np.ndarray:
    """Multinomial counts over basis outcomes; deterministic for a fixed seed."""
    check_count("shots", shots)
    probs = measurement_distribution(dm)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)
