"""Single-qubit noise channels applied per cycle to every qubit.

All channels are exact maps on the density matrix, never Monte Carlo:

  Pauli          N(rho) = (1-e) rho + ex X rho X + ey Y rho Y + ez Z rho Z
  Coherent       N(rho) = e^{i theta P} rho e^{-i theta P},  P in {X, Z}
  Pauli+Coherent coherent X rotation followed by an X-flip channel
  AmplitudeDamping  Kraus K0 = [[1,0],[0,sqrt(1-g)]], K1 = [[0,sqrt(g)],[0,0]]
  PhaseDamping   Z flip with probability lambda

Each channel is one 4x4 superoperator, sum_k K (x) conj(K) over its Kraus
operators (Wood, Biamonte & Cory, arXiv:1111.6950). The simulator in
`circuits` runs its real Pauli transfer matrix (`pauli_transfer`) on one
qubit's digit of a state's Pauli vector, fused with the qubit's gate u of the
cycle as R(N) R(u (x) conj(u)), so one cycle is one real 4x4 map per qubit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, UnknownLevel, is_integer, is_real
from .states import DensityMatrix

_PROB_TOL = 1e-12


def _check_real(*params) -> None:
    """Refuse a channel parameter that is a bool or not a real number: the
    range checks would coerce it or raise TypeError."""
    for p in params:
        if not is_real(p):
            raise InvalidParams(f"noise parameter {p!r} is not a real number")


@dataclass(frozen=True)
class NoiseModel:
    """Base marker; `NoNoise()` is the explicit do-nothing model."""

    def validate(self) -> "NoiseModel":
        return self

    @functools.cached_property
    def ptm(self) -> np.ndarray:
        """The channel's real Pauli transfer matrix, read-only, built once
        per model object: a protocol runs one model over many plans."""
        ptm = pauli_transfer(superoperator(self))
        ptm.flags.writeable = False
        return ptm


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    pass


@dataclass(frozen=True)
class PauliNoise(NoiseModel):
    ex: float
    ey: float
    ez: float

    def validate(self):
        probs = (self.ex, self.ey, self.ez)
        _check_real(*probs)
        # Asked as "inside" so that a NaN, which fails every comparison, fails.
        if not (all(p >= -_PROB_TOL for p in probs)
                and sum(probs) <= 1.0 + _PROB_TOL):
            raise InvalidParams(f"Pauli probabilities {probs} outside [0, 1]")
        return self

    @classmethod
    def symmetric(cls, total: float) -> "PauliNoise":
        return cls(total / 3.0, total / 3.0, total / 3.0).validate()


@dataclass(frozen=True)
class CoherentNoise(NoiseModel):
    axis: str  # "x" or "z"
    theta: float

    def validate(self):
        if self.axis not in ("x", "z"):
            raise InvalidParams(f"coherent axis must be x or z, got {self.axis!r}")
        _check_real(self.theta)
        if not np.isfinite(self.theta):
            raise InvalidParams("coherent angle must be finite")
        return self


@dataclass(frozen=True)
class PauliPlusCoherent(NoiseModel):
    """Static X rotation by theta followed by an X flip with probability ex."""

    ex: float
    theta: float

    def validate(self):
        _check_real(self.ex, self.theta)
        if not 0.0 - _PROB_TOL <= self.ex <= 1.0 + _PROB_TOL:
            raise InvalidParams(f"flip probability {self.ex} outside [0, 1]")
        if not np.isfinite(self.theta):
            raise InvalidParams("rotation angle must be finite")
        return self


@dataclass(frozen=True)
class AmplitudeDamping(NoiseModel):
    gamma: float

    def validate(self):
        _check_real(self.gamma)
        if not 0.0 - _PROB_TOL <= self.gamma <= 1.0 + _PROB_TOL:
            raise InvalidParams(f"gamma {self.gamma} outside [0, 1]")
        return self


@dataclass(frozen=True)
class PhaseDamping(NoiseModel):
    lam: float

    def validate(self):
        _check_real(self.lam)
        if not 0.0 - _PROB_TOL <= self.lam <= 1.0 + _PROB_TOL:
            raise InvalidParams(f"lambda {self.lam} outside [0, 1]")
        return self


def kraus_operators(model: NoiseModel) -> list[np.ndarray]:
    """Kraus representation of the single-qubit channel. Probabilities that
    `validate` lets past by rounding (down to -1e-12) count as 0."""
    from .gates import I2, X, Y, Z, rx_matrix

    def root(p):
        return np.sqrt(max(p, 0.0))

    if isinstance(model, NoNoise):
        return [I2.copy()]
    if isinstance(model, PauliNoise):
        keep = 1.0 - (model.ex + model.ey + model.ez)
        ops = [root(keep) * I2]
        for p, mat in ((model.ex, X), (model.ey, Y), (model.ez, Z)):
            if p:
                ops.append(root(p) * mat)
        return ops
    if isinstance(model, CoherentNoise):
        if model.axis == "z":
            u = np.diag([np.exp(1j * model.theta), np.exp(-1j * model.theta)])
        else:
            u = rx_matrix(-2.0 * model.theta) * np.exp(1j * model.theta)
        return [u.astype(np.complex128)]
    if isinstance(model, PauliPlusCoherent):
        rot = kraus_operators(CoherentNoise("x", model.theta))[0]
        return [root(1.0 - model.ex) * rot, root(model.ex) * (X @ rot)]
    if isinstance(model, AmplitudeDamping):
        g = model.gamma
        k0 = np.array([[1, 0], [0, root(1 - g)]], dtype=np.complex128)
        k1 = np.array([[0, root(g)], [0, 0]], dtype=np.complex128)
        return [k0, k1]
    if isinstance(model, PhaseDamping):
        return [root(1.0 - model.lam) * I2, root(model.lam) * Z]
    raise InvalidParams(f"unknown noise model {model!r}")


# ---------------------------------------------------------------------------
# Superoperators and Pauli transfer matrices.


def superoperator(model: NoiseModel) -> np.ndarray:
    """The channel as one 4x4 map, sum_k K (x) conj(K), on the row-major
    vectorization (index 2*r + c) of a qubit's 2x2 block."""
    return sum(pair_superoperator(k) for k in kraus_operators(model))


def pair_superoperator(k: np.ndarray) -> np.ndarray:
    """K (x) conj(K) for one 2x2 operator, or for each of a stack (..., 2, 2):
    rho -> K rho K^dagger."""
    k = np.asarray(k)
    outer = k[..., :, None, :, None] * k.conj()[..., None, :, None, :]
    return outer.reshape(k.shape[:-2] + (4, 4))


# B: column p = x + 2z is the row-major vectorization (index 2*r + c) of
# I, X, Z, Y, as in `circuits.PLAN_LETTERS`; B^-1 = B^dagger / 2.
PAULI_BASIS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1],
                        [0, -1j, 1j, 0]]).T
PAULI_INV = PAULI_BASIS.conj().T / 2


def pauli_transfer(m: np.ndarray) -> np.ndarray:
    """The Pauli transfer matrix B^-1 m B of a 4x4 paired map, or of each of
    a stack (..., 4, 4): real for every map that keeps Hermitian matrices
    Hermitian, as Kraus sums and u (x) conj(u) do (arXiv:1111.6950)."""
    return (PAULI_INV @ m @ PAULI_BASIS).real


def apply_channel_all(rho: np.ndarray, model: NoiseModel, n: int) -> np.ndarray:
    """Apply the channel to every qubit, idle or not: one idle cycle under
    `model`."""
    from .circuits import Circuit, Cycle, simulate  # circuits imports this module

    return simulate(Circuit(n, (Cycle(),)), DensityMatrix(rho), model).matrix


# ---------------------------------------------------------------------------
# Calibrated strength ladder shared by the benchmarks.

# Channel parameter at each strength level 0..3, as `noise_model_for` takes
# it. Level 0 is always noise-free in effect: zero probabilities / zero angle.
LEVEL_PARAMS = {
    "pauli": (0.0, 0.01, 0.02, 0.03),
    "coherent": (0.0, np.pi / 30, np.pi / 15, np.pi / 10),
    "pauli_coherent": (0.0, 0.01, 0.02, 0.03),
    "amplitude_damping": (0.0, 0.01, 0.02, 0.03),
}
NOISE_KINDS = tuple(LEVEL_PARAMS)


def noise_level_table(kind: str, level: int) -> NoiseModel:
    """Model for one of the four standard kinds at strength level 0..3."""
    if kind not in NOISE_KINDS:
        raise UnknownLevel(f"unknown noise kind {kind!r}")
    if not is_integer(level) or not 0 <= level <= 3:
        raise UnknownLevel(f"level {level!r} is not an integer in 0..3")
    return noise_model_for(kind, LEVEL_PARAMS[kind][level])


def noise_model_for(kind: str, param: float) -> NoiseModel:
    """Model of the given kind at an arbitrary strength (fine-grained sweeps)."""
    if kind == "none":
        return NoNoise()
    if kind not in NOISE_KINDS:
        raise UnknownLevel(f"unknown noise kind {kind!r}")
    _check_real(param)
    if kind == "pauli":
        return PauliNoise.symmetric(param)
    if kind == "coherent":
        return CoherentNoise("z", param).validate()
    if kind == "pauli_coherent":
        # Strength pairs follow the table's ratio: eps = p, theta = p * (pi/10)/0.03.
        return PauliPlusCoherent(param, param * (np.pi / 10) / 0.03).validate()
    return AmplitudeDamping(param).validate()
