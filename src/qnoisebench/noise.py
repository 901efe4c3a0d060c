"""Single-qubit noise channels applied per cycle to every qubit.

All channels are exact maps on the density matrix, never Monte Carlo:

  Pauli          N(rho) = (1-e) rho + ex X rho X + ey Y rho Y + ez Z rho Z
  Coherent       N(rho) = e^{i theta P} rho e^{-i theta P},  P in {X, Z}
  Pauli+Coherent coherent X rotation followed by an X-flip channel
  AmplitudeDamping  Kraus K0 = [[1,0],[0,sqrt(1-g)]], K1 = [[0,sqrt(g)],[0,0]]
  PhaseDamping   Z flip with probability lambda

Each channel is one 4x4 superoperator, sum_k K (x) conj(K) over its Kraus
operators (Wood, Biamonte & Cory, arXiv:1111.6950), acting on one qubit's
digit of the paired layout (see `to_paired`). The simulator fuses it with the
qubit's gate u of the cycle as N (u (x) conj(u)), so one cycle is one 4x4 map
per qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, UnknownLevel

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Base marker; `NoNoise()` is the explicit do-nothing model."""

    def validate(self) -> "NoiseModel":
        return self


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
        if any(p < -_PROB_TOL for p in probs) or sum(probs) > 1.0 + _PROB_TOL:
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
        if not np.isfinite(self.theta):
            raise InvalidParams("coherent angle must be finite")
        return self


@dataclass(frozen=True)
class PauliPlusCoherent(NoiseModel):
    """Static X rotation by theta followed by an X flip with probability ex."""

    ex: float
    theta: float

    def validate(self):
        if not 0.0 - _PROB_TOL <= self.ex <= 1.0 + _PROB_TOL:
            raise InvalidParams(f"flip probability {self.ex} outside [0, 1]")
        if not np.isfinite(self.theta):
            raise InvalidParams("rotation angle must be finite")
        return self


@dataclass(frozen=True)
class AmplitudeDamping(NoiseModel):
    gamma: float

    def validate(self):
        if not 0.0 - _PROB_TOL <= self.gamma <= 1.0 + _PROB_TOL:
            raise InvalidParams(f"gamma {self.gamma} outside [0, 1]")
        return self


@dataclass(frozen=True)
class PhaseDamping(NoiseModel):
    lam: float

    def validate(self):
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
# Superoperators and the paired layout.


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


def to_paired(rho: np.ndarray, n: int) -> np.ndarray:
    """rho as a flat vector with axes (r0, c0, r1, c1, ...): one base-4 digit
    2*r_q + c_q per qubit, qubit 0 most significant. A batch (T, 2^n, 2^n)
    gives (T, 4^n). Always a fresh copy."""
    lead = rho.shape[:-2]
    k = len(lead)
    order = [*range(k), *(k + a for q in range(n) for a in (q, n + q))]
    return np.array(rho.reshape(lead + (2,) * (2 * n)).transpose(order)
                    ).reshape(lead + (-1,))


def from_paired(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `to_paired`: the 2^n x 2^n matrix, or one per batch row."""
    lead = v.shape[:-1]
    k = len(lead)
    order = [*range(k), *range(k, k + 2 * n, 2), *range(k + 1, k + 2 * n, 2)]
    return v.reshape(lead + (2,) * (2 * n)).transpose(order).reshape(
        lead + (2 ** n, 2 ** n))


def apply_superoperators(v: np.ndarray, maps) -> np.ndarray:
    """Apply maps[q] to qubit q of a state, for every qubit.

    v is one state or a batch (T, d^n) of them: paired density matrices (4x4
    maps; see `to_paired`) or kets (2x2 maps). maps[q] is one (d, d) map for
    every state, a (T, d, d) stack with one per state, or None for the
    identity.

    Each step is one GEMM per state, (m @ x).T computed as x.T @ m.T so that
    it writes the leading digit straight to the back; after one pass the
    digits are in their original order again. A run of identity maps is one
    rotation by the run's length.
    """
    d = next((m.shape[-1] for m in maps if m is not None), 1)
    w = v.reshape(-1, v.shape[-1])
    t = len(w)
    skip = 0
    for m in maps:
        if m is None:
            skip += 1
            continue
        if skip:
            w = w.reshape(t, d ** skip, -1).swapaxes(1, 2).reshape(t, -1)
            skip = 0
        w = (w.reshape(t, d, -1).swapaxes(1, 2) @ m.swapaxes(-1, -2)
             ).reshape(t, -1)
    if skip and skip < len(maps):
        w = w.reshape(t, d ** skip, -1).swapaxes(1, 2).reshape(t, -1)
    return w.reshape(v.shape)


def apply_qubit_map(rho: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply one 4x4 map to qubit q of an n-qubit density matrix."""
    maps = [None] * n
    maps[q] = m
    return from_paired(apply_superoperators(to_paired(rho, n), maps), n)


def apply_channel(rho: np.ndarray, model: NoiseModel, q: int, n: int) -> np.ndarray:
    """Apply one noise channel to qubit q of an n-qubit density matrix."""
    return apply_qubit_map(rho, superoperator(model), q, n)


def apply_channel_all(rho: np.ndarray, model: NoiseModel, n: int) -> np.ndarray:
    """Apply the channel to every qubit, idle or not."""
    if isinstance(model, NoNoise):
        return rho
    v = apply_superoperators(to_paired(rho, n), [superoperator(model)] * n)
    return from_paired(v, n)


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
    if not 0 <= level <= 3:
        raise UnknownLevel(f"level {level} outside 0..3")
    return noise_model_for(kind, LEVEL_PARAMS[kind][level])


def noise_model_for(kind: str, param: float) -> NoiseModel:
    """Model of the given kind at an arbitrary strength (fine-grained sweeps)."""
    if kind == "pauli":
        return PauliNoise.symmetric(param)
    if kind == "coherent":
        return CoherentNoise("z", param).validate()
    if kind == "pauli_coherent":
        # Strength pairs follow the table's ratio: eps = p, theta = p * (pi/10)/0.03.
        return PauliPlusCoherent(param, param * (np.pi / 10) / 0.03).validate()
    if kind == "amplitude_damping":
        return AmplitudeDamping(param).validate()
    if kind == "none":
        return NoNoise()
    raise UnknownLevel(f"unknown noise kind {kind!r}")
