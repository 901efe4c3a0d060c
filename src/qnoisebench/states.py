"""Pure and mixed state containers plus measurement utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParams, InvalidState, NotADistribution,
                     NotNormalized, is_integer)
from .linalg import as_complex, is_hermitian

NORM_TOL = 1e-9
TRACE_TOL = 1e-9
DIAG_CLAMP = -1e-8  # diagonal mass below this is an error, above it is noise
DIST_NEG_TOL = 1e-12  # a distribution entry may dip this far below zero
DIST_SUM_TOL = 1e-8  # and its entries must sum to 1 within this
MAX_SHOTS = int(np.iinfo(np.int64).max)  # multinomial counts are int64


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


def pcg64(seed) -> np.random.PCG64:
    """`np.random.PCG64(seed)` for a seed of None, an integer >= 0, a
    sequence of them or a `SeedSequence`; any other seed (a float, a
    negative integer, a `Generator`) raises InvalidParams."""
    try:
        return np.random.PCG64(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"seed {seed!r}: {exc}") from exc


def random_product_factors(n: int, seeds) -> np.ndarray:
    """The qubit factors (T, n, 2) of `random_product_state` for each seed:
    `default_rng(seed)`'s uniform (phi, cos theta) draws qubit by qubit, each
    low + (high - low) * (the top 53 bits of a raw PCG64 word) / 2^53."""
    if n < 1:
        raise InvalidParams("need at least one qubit")
    raw = np.array([pcg64(s).random_raw(2 * n) for s in seeds],
                   dtype=np.uint64).reshape(-1, n, 2)
    draws = [0.0, -1.0] + [2.0 * np.pi, 2.0] * ((raw >> 11) * 2.0 ** -53)
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


def check_count(name: str, value, cap: int | None = None,
                cap_name: str = "") -> None:
    """Raise InvalidParams unless a count is an integer >= 1, not a bool,
    and at most `cap` (the bound `cap_name`) if one is given."""
    if not is_integer(value) or value < 1:
        raise InvalidParams(f"{name}: {value!r} must be an integer >= 1")
    if cap is not None and value > cap:
        raise InvalidParams(f"{name}: {value} is over {cap_name} = {cap}")


def check_distribution(name: str, p, shape=None) -> np.ndarray:
    """p as float64; NotADistribution unless it converts to float64, has
    `shape` (if given), and its entries are finite, at least -DIST_NEG_TOL
    and sum to 1 ± DIST_SUM_TOL."""
    try:
        p = np.asarray(p, dtype=np.float64)
    except (TypeError, ValueError):
        raise NotADistribution(f"{name} is not an array of reals") from None
    if shape is not None and p.shape != shape:
        raise NotADistribution(f"{name} of shape {p.shape}, not {shape}")
    if not np.isfinite(p).all():
        raise NotADistribution(f"{name} has a non-finite entry")
    if np.any(p < -DIST_NEG_TOL):
        raise NotADistribution(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > DIST_SUM_TOL:
        raise NotADistribution(f"{name} sums to {p.sum()}, not 1")
    return p


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


def check_purities(purities: np.ndarray) -> None:
    """Raise InvalidState unless every purity Tr(rho^2) of a batch of
    states that should be pure is 1 within NORM_TOL (a NaN fails)."""
    dev = np.abs(purities - 1.0)
    if not np.all(dev <= NORM_TOL):
        raise InvalidState(f"reference purity off 1 by {np.max(dev):.3e}")


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
    check_count("shots", shots, MAX_SHOTS, "states.MAX_SHOTS")
    probs = measurement_distribution(dm)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)
