"""Pure and mixed state containers plus measurement utilities."""

from __future__ import annotations

import functools
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
    sequence of them, a `SeedSequence` or a `ChildSeed`; any other seed (a
    float, a negative integer, a `Generator`) raises InvalidParams."""
    try:
        return np.random.PCG64(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"seed {seed!r}: {exc}") from exc


def raw_words(seeds, size: int) -> np.ndarray:
    """The first `size` raw 64-bit words of each seed's `pcg64`, stacked
    (T, size) as uint64."""
    rows = [pcg64(s).random_raw(size) for s in seeds]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), size)


# numpy's `SeedSequence` hash (numpy/random/bit_generator.pyx): a pool of
# _POOL uint32 words, each hashmix taking the next power of its multiplier.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = 0 .. count - 1, as uint32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _words(value: int) -> list[int]:
    """An integer >= 0 as little-endian uint32 words; 0 is one word."""
    return [value >> 32 * k & _MASK32
            for k in range(max(1, -(-value.bit_length() // 32)))]


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ v >> _XSHIFT


@functools.cache
def _hash_constants(length: int) -> tuple:
    """numpy's hashmix constants for `length` entropy words, which do not
    depend on the data: the (xor, multiply) pairs (2, _POOL) that hash the
    first _POOL words, then one per mixing step k. Step k < _POOL mixes pool
    word k into the others (its own column is unused), and step k >= _POOL
    entropy word k into all of them."""
    h = _powers(_INIT_A, _MULT_A, _POOL * length + 1)
    pairs, j = [np.stack([h[:_POOL], h[1:_POOL + 1]])], _POOL
    for k in range(length):
        cols = [d for d in range(_POOL) if d != k]
        pair = np.zeros((2, _POOL), dtype=np.uint32)
        pair[:, cols] = h[j:j + len(cols)], h[j + 1:j + len(cols) + 1]
        pairs.append(pair)
        j += len(cols)
    return tuple(pairs)


_GENERATE = _powers(_INIT_B, _MULT_B, 2 * _POOL + 1)


def _child_states(entropy: np.ndarray) -> np.ndarray:
    """numpy's `SeedSequence` pool of each row of uint32 entropy words
    (R, L), L > _POOL, and its `generate_state(4, np.uint64)`, as uint64
    rows (R, 4)."""
    def hashmix(v, pair):
        return _xorshift((v ^ pair[0]) * pair[1])

    first, *steps = _hash_constants(entropy.shape[1])
    pool = hashmix(entropy[:, :_POOL], first)
    for k, pair in enumerate(steps):
        word = pool[:, k, None] if k < _POOL else entropy[:, k, None]
        mixed = _xorshift(pool * _MIX_MULT_L
                          - hashmix(word, pair) * _MIX_MULT_R)
        if k < _POOL:  # a pool word does not mix into itself
            mixed[:, k] = pool[:, k]
        pool = mixed
    state = hashmix(np.tile(pool, 2), (_GENERATE[:-1], _GENERATE[1:]))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class ChildSeed:
    """A `SeedSequence` child reduced to what a PCG64 asks of it: its
    `generate_state(4, np.uint64)`, hashed ahead by `spawn_children`. Any
    other request raises InvalidParams. It is registered as a numpy
    `ISeedSequence` on the first `spawn_children` call, not at import:
    `import numpy` leaves numpy.random unloaded, and loading it with the
    package would add about 40 ms and 5 MB to every start-up."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype not in (np.uint64, np.dtype(np.uint64)):
            raise InvalidParams(f"a ChildSeed makes 4 uint64 words, not "
                                f"{n_words!r} of {dtype!r}")
        return self._state.copy()


@functools.cache
def _register_child_seed() -> None:
    np.random.bit_generator.ISeedSequence.register(ChildSeed)


def spawn_children(entropy, trials, children) -> list[list[ChildSeed]]:
    """For each child i of `children`, the list over trials t of
    `SeedSequence((*entropy, t)).spawn(i + 1)[i]`, as `ChildSeed`s whose
    states are numpy's, hashed in one array pass over the (child, trial)
    rows. `entropy` holds integers >= 0 of any size, and each trial and
    child is an integer in 0 .. 2^32 - 1 (one word); anything else raises
    InvalidParams."""
    trials, children = list(trials), list(children)
    if not all(is_integer(x) and x >= 0
               for x in (*entropy, *trials, *children)):
        raise InvalidParams(f"entropy {entropy!r}, trials and children "
                            "must be integers >= 0")
    if max(trials + children, default=0) > _MASK32:
        raise InvalidParams("a trial or child index is over one uint32 word")
    _register_child_seed()
    head = [w for x in entropy for w in _words(int(x))]
    # The run entropy is zero-padded to the pool size before the spawn key.
    width = max(len(head) + 1, _POOL) + 1
    rows = np.zeros((len(children), len(trials), width), dtype=np.uint32)
    rows[..., :len(head)] = head
    rows[..., len(head)] = trials
    rows[..., -1] = np.array(children)[:, None]
    states = iter(_child_states(rows.reshape(-1, width)))
    return [[ChildSeed(next(states)) for _ in trials] for _ in children]


def random_product_factors(n: int, seeds) -> np.ndarray:
    """The qubit factors (T, n, 2) of `random_product_state` for each seed:
    `default_rng(seed)`'s uniform (phi, cos theta) draws qubit by qubit, each
    low + (high - low) * (the top 53 bits of a raw PCG64 word) / 2^53."""
    if n < 1:
        raise InvalidParams("need at least one qubit")
    raw = raw_words(seeds, 2 * n).reshape(-1, n, 2)
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
