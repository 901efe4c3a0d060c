"""Gate alphabet, matrices, and the table of words over one-qubit letters.

Qubit 0 is the most-significant bit of the computational basis index, so for
an n-qubit register the basis state |q0 q1 ... q_{n-1}> has index
sum(q_k * 2^(n-1-k)). The two-qubit matrices below follow that convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateIndex, InvalidParams, is_integer
from .linalg import phase_canonical_keys

SQ2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = SQ2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
SDG = S.conj().T
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
TDG = T.conj().T

CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=np.complex128,
)


def rz_matrix(theta: float) -> np.ndarray:
    """Z rotation in the phase convention: diag(1, e^{i theta})."""
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=np.complex128)


def rx_matrix(theta: float) -> np.ndarray:
    """X rotation, H Rz(theta) H."""
    return H @ rz_matrix(theta) @ H


FIXED_MATRICES = {
    "i": I2, "x": X, "y": Y, "z": Z, "h": H,
    "s": S, "sdg": SDG, "t": T, "tdg": TDG,
    "cnot": CNOT,
}

GATE_ARITY = {
    "i": 1, "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1,
    "t": 1, "tdg": 1, "rz": 1, "rx": 1, "cnot": 2,
}

CLIFFORD_T_NAMES = frozenset(
    ["i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cnot"]
)


@dataclass(frozen=True)
class Gate:
    """One gate application: a name, target qubits, and an optional angle."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise InvalidParams(f"unknown gate {self.name!r}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise InvalidParams(
                f"{self.name} takes {GATE_ARITY[self.name]} qubit(s), "
                f"got {self.qubits}"
            )
        if not all(map(is_integer, self.qubits)):
            raise InvalidParams(f"qubit indices {self.qubits} must be integers")
        if any(q < 0 for q in self.qubits):
            raise IndexError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise DuplicateIndex(f"repeated qubit in {self.qubits}")
        if self.name in ("rz", "rx"):
            if self.angle is None or not np.isfinite(self.angle):
                raise InvalidParams(f"{self.name} requires a finite angle")
            # Plain float so serialized angles read back (repr of numpy
            # scalars does not).
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise InvalidParams(f"{self.name} takes no angle")

    # Constructors so circuits read like circuits.
    @classmethod
    def i(cls, q):       return cls("i", (q,))
    @classmethod
    def x(cls, q):       return cls("x", (q,))
    @classmethod
    def y(cls, q):       return cls("y", (q,))
    @classmethod
    def z(cls, q):       return cls("z", (q,))
    @classmethod
    def h(cls, q):       return cls("h", (q,))
    @classmethod
    def s(cls, q):       return cls("s", (q,))
    @classmethod
    def sdg(cls, q):     return cls("sdg", (q,))
    @classmethod
    def t(cls, q):       return cls("t", (q,))
    @classmethod
    def tdg(cls, q):     return cls("tdg", (q,))
    @classmethod
    def rz(cls, q, theta): return cls("rz", (q,), float(theta))
    @classmethod
    def rx(cls, q, theta): return cls("rx", (q,), float(theta))
    @classmethod
    def cnot(cls, control, target): return cls("cnot", (control, target))

    def matrix(self) -> np.ndarray:
        if self.name == "rz":
            return rz_matrix(self.angle)
        if self.name == "rx":
            return rx_matrix(self.angle)
        return FIXED_MATRICES[self.name]


class WordTable:
    """Breadth-first table of distinct words over a one-qubit alphabet.

    Level L holds the words of length L whose matrices no shorter word reaches
    up to global phase. Children run parent first, then letter in alphabet
    order, and the first word to reach a key keeps it. Word i is stored as
    `parent[i]` and `letter[i]` (an index into `letters`) and spelled only on
    request by `word(i)`; `find` looks `phase_canonical_keys` keys up in the
    sorted keys of the whole table. Grown lazily.
    """

    def __init__(self, letters: tuple[str, ...]):
        self.letters = letters
        self._letter_mats = np.stack([FIXED_MATRICES[name] for name in letters])
        # Preallocated buffers, grown geometrically; the first
        # level_bounds[-1] rows are the table.
        self._mats = np.eye(2, dtype=np.complex128)[None]
        self._parent = np.full(1, -1, dtype=np.int32)
        self._letter = np.full(1, -1, dtype=np.int8)
        self.level_bounds = [0, 1]  # level L occupies [bounds[L], bounds[L+1])
        self._keys = phase_canonical_keys(self._mats)  # sorted
        self._key_word = np.zeros(1, dtype=np.int32)  # word index of each key

    def __len__(self) -> int:
        return self.level_bounds[-1]

    @property
    def depth(self) -> int:
        return len(self.level_bounds) - 2

    @property
    def mats(self) -> np.ndarray:
        return self._mats[:len(self)]

    @property
    def parent(self) -> np.ndarray:
        return self._parent[:len(self)]

    @property
    def letter(self) -> np.ndarray:
        return self._letter[:len(self)]

    def word(self, i: int) -> tuple[str, ...]:
        """Word i, spelled by walking its parents back to the empty word."""
        out = []
        i = int(i)
        while i > 0:
            out.append(self.letters[self._letter[i]])
            i = int(self._parent[i])
        return tuple(reversed(out))

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Word index of each key, -1 where the table has none."""
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, self._key_word[pos], -1)

    def extend_to(self, depth: int) -> None:
        while self.depth < depth:
            lo, hi = self.level_bounds[-2], self.level_bounds[-1]
            if lo == hi:  # previous level empty; nothing more to reach
                self.level_bounds.append(hi)
                continue
            children = np.einsum("gij,pjk->pgik", self._letter_mats,
                                 self.mats[lo:hi])
            children = children.reshape(-1, 2, 2)
            # First occurrence of each key in child order, then only the keys
            # no earlier level holds.
            keys, first = np.unique(phase_canonical_keys(children),
                                    return_index=True)
            pos = np.searchsorted(self._keys, keys)
            fresh = self._keys[np.minimum(pos, len(self._keys) - 1)] != keys
            keys, first, pos = keys[fresh], first[fresh], pos[fresh]
            order = np.argsort(first)
            fresh_idx = first[order]
            end = hi + len(fresh_idx)
            self._reserve(end)
            self._mats[hi:end] = children[fresh_idx]
            self._parent[hi:end] = lo + fresh_idx // len(self.letters)
            self._letter[hi:end] = fresh_idx % len(self.letters)
            word_of_key = np.empty(len(keys), dtype=np.int32)
            word_of_key[order] = np.arange(hi, end, dtype=np.int32)
            self._keys = np.insert(self._keys, pos, keys)
            self._key_word = np.insert(self._key_word, pos, word_of_key)
            self.level_bounds.append(end)

    def _reserve(self, size: int) -> None:
        cap = len(self._mats)
        if size <= cap:
            return
        cap = max(size, 2 * cap)
        for name in ("_mats", "_parent", "_letter"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:len(self)] = old[:len(self)]
            setattr(self, name, new)

    def closure(self) -> "WordTable":
        """Grow until a level adds nothing; the alphabet must generate a
        finite group up to phase."""
        while self.level_bounds[-2] < self.level_bounds[-1]:
            self.extend_to(self.depth + 1)
        return self

    def level_slice(self, level: int) -> slice:
        return slice(self.level_bounds[level], self.level_bounds[level + 1])


@functools.cache
def word_table(letters: tuple[str, ...]) -> WordTable:
    """The process-wide table over `letters`."""
    return WordTable(letters)
