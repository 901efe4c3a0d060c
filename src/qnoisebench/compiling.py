"""Lowering to the Clifford+T alphabet and randomized compiling.

Gate classification for randomized compiling: easy gates are the Paulis,
phase gates, and the identity (PLAN_LETTERS); everything else (H, T, Tdg,
CNOT) is hard. A cycle counts as hard if any of its gates is hard.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .circuits import (CLIFFORD_T, PARAM_ROTATIONS, PLAN_LETTERS, Circuit,
                       Cycle, circuit_of, read_letters)
from .errors import (DuplicateIndex, InvalidParams, NotInterleaved,
                     SearchExhausted, is_integer)
from .gates import Gate, WordTable, rz_matrix, word_table

DEFAULT_SYNTH_EPS = 0.05
DEFAULT_DEPTH_BUDGET = 25


# ---------------------------------------------------------------------------
# Rz synthesis: iterative-deepening search over {h, s, sdg, t, tdg} words.

_LETTERS = ("h", "s", "sdg", "t", "tdg")


def _table() -> WordTable:
    return word_table(_LETTERS)


def _check_synthesis_args(depth, *reals) -> None:
    """Raise InvalidParams unless every real (theta, eps) is a finite number
    and depth an integer in 0..DEFAULT_DEPTH_BUDGET: the table grows about
    1.2-1.6x per level, so a deeper search would exhaust memory first."""
    for x in reals:
        if (isinstance(x, bool) or not isinstance(x, numbers.Real)
                or not np.isfinite(x)):
            raise InvalidParams(f"{x!r} is not a finite number")
    if not is_integer(depth) or not 0 <= depth <= DEFAULT_DEPTH_BUDGET:
        raise InvalidParams(
            f"depth {depth!r} must be an integer in 0..{DEFAULT_DEPTH_BUDGET}")


def _distances_to(mats: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Phase-aligned max-abs distance of each matrix to the diagonal target.

    The target's off-diagonal entries are zero, so those two terms are the
    magnitudes |m01| and |m10|; only the diagonal needs the aligned phase.
    """
    ip = np.einsum("kij,ij->k", mats, target.conj())
    mag = np.abs(ip)
    phase = np.where(mag > 1e-300, ip / np.where(mag > 0, mag, 1.0), 1.0)
    dist = np.abs(mats[:, 0, 0] - phase * target[0, 0])
    np.maximum(dist, np.abs(mats[:, 1, 1] - phase * target[1, 1]), out=dist)
    np.maximum(dist, np.abs(mats[:, 0, 1]), out=dist)
    np.maximum(dist, np.abs(mats[:, 1, 0]), out=dist)
    return dist


def approx_rz(theta: float, eps: float = DEFAULT_SYNTH_EPS,
              max_depth: int = DEFAULT_DEPTH_BUDGET) -> list[str]:
    """Shortest word over {h, s, sdg, t, tdg} within eps of Rz(theta).

    Distance is min over global phase of the max-abs entry difference. Ties at
    equal length and equal error break lexicographically (h < s < sdg < t < tdg).
    Raises SearchExhausted when the depth budget runs out.
    """
    _check_synthesis_args(max_depth, theta, eps)
    if eps < 1e-4:
        raise InvalidParams("eps below 1e-4 is outside the supported range")
    target = rz_matrix(theta)
    table = _table()
    for level in range(max_depth + 1):
        table.extend_to(level)
        sl = table.level_slice(level)
        if sl.start == sl.stop:
            continue
        errs = _distances_to(table.mats[sl], target)
        hits = np.nonzero(errs <= eps)[0]
        if hits.size:
            rounded = np.round(errs[hits], 12)
            best = rounded.min()
            words = [table.word(sl.start + i) for i in hits[rounded == best]]
            return list(min(words))
    raise SearchExhausted(
        f"no word within {eps} of Rz({theta}) at depth {max_depth}"
    )


def best_rz_error(theta: float, depth: int) -> float:
    """Best achievable synthesis error using words of length <= depth."""
    _check_synthesis_args(depth, theta)
    target = rz_matrix(theta)
    table = _table()
    table.extend_to(depth)
    end = table.level_bounds[depth + 1]
    return float(_distances_to(table.mats[:end], target).min())


def rz_word_error(word, theta: float) -> float:
    """Independent check of a word's distance to Rz(theta)."""
    from .gates import FIXED_MATRICES
    from .linalg import phase_aligned_distance

    u = np.eye(2, dtype=np.complex128)
    for name in word:
        u = FIXED_MATRICES[name] @ u
    return phase_aligned_distance(u, rz_matrix(theta))


# ---------------------------------------------------------------------------
# Controlled rotations.


def lower_controlled_rz(theta: float, control: int, target: int,
                        n_qubits: int | None = None) -> Circuit:
    """Controlled-Rz(theta) as Rz and CNOT cycles.

    The returned circuit's unitary is exactly diag(1, 1, 1, e^{i theta}) on the
    (control, target) pair.
    """
    if control == target:
        raise DuplicateIndex("control and target must differ")
    n = n_qubits if n_qubits is not None else max(control, target) + 1
    half = theta / 2.0
    cycles = (
        Cycle((Gate.rz(control, half), Gate.rz(target, half))),
        Cycle((Gate.cnot(control, target),)),
        Cycle((Gate.rz(target, -half),)),
        Cycle((Gate.cnot(control, target),)),
    )
    return Circuit(n, cycles, PARAM_ROTATIONS)


# ---------------------------------------------------------------------------
# Clifford+T lowering of whole circuits.


@functools.lru_cache(maxsize=1024)
def _word_with_fallback(theta: float, eps: float) -> tuple[str, ...]:
    # Some angles floor just above a given eps at the depth budget (the gate
    # set converges non-uniformly). Accept the table's best word when it is
    # within 2x of the request; beyond that the miss is real.
    # Memoized per (theta, eps) for the process, like the Rz table; a
    # SearchExhausted is not cached and is raised again on every repeat.
    try:
        return tuple(approx_rz(theta, eps))
    except SearchExhausted:
        floor = best_rz_error(theta, DEFAULT_DEPTH_BUDGET)
        if floor > 2.0 * eps:
            raise
        return tuple(approx_rz(theta, floor + 1e-9))


def lower_letters(letters: np.ndarray, flips, keys,
                  eps: float = DEFAULT_SYNTH_EPS) -> tuple[np.ndarray, list, tuple]:
    """A letters triple (see `circuits.read_letters`) with every rz/rx
    replaced by its synthesized word, cycle-aligned (rx = h rz h).

    A cycle expands into as many sub-cycles as its longest word, by one
    gather from a table of each key's word: shorter words pad with idles,
    the other gates and the CNOTs stay on the first sub-cycle, and a
    rotation whose word is empty idles there. An angle whose best word at
    the depth budget misses eps by at most 2x is accepted at its achieved
    error; a larger miss raises SearchExhausted. Words are memoized per
    (theta, eps) for the process, so each distinct rotation is synthesized
    once however often it recurs.
    """
    index = {key: k for k, key in enumerate(keys[:len(PLAN_LETTERS)])}
    words = []
    for name, angle in keys:
        word = (name,)
        if name in ("rz", "rx"):
            word = _word_with_fallback(angle, eps)
            word = ("h", *word, "h") if name == "rx" else word
        words.append([index.setdefault((w, None), len(index)) for w in word]
                     or [0])
    width = max(map(len, words))
    table = np.array([word + [0] * (width - len(word)) for word in words],
                     dtype=np.intp)
    spans = np.array([len(word) for word in words])[letters].max(axis=1)
    cycle = np.repeat(np.arange(len(spans)), spans)
    step = np.arange(len(cycle)) - (np.cumsum(spans) - spans)[cycle]
    flips = [() if s else flips[k]
             for k, s in zip(cycle.tolist(), step.tolist())]
    return table[letters[cycle], step[:, None]], flips, tuple(index)


def to_clifford_t(circ: Circuit, eps: float = DEFAULT_SYNTH_EPS) -> Circuit:
    """The circuit with every rz/rx replaced by a synthesized word, as
    `lower_letters` lowers its letters."""
    return circuit_of(circ.n_qubits, *lower_letters(*read_letters(circ), eps),
                      CLIFFORD_T)


# ---------------------------------------------------------------------------
# Idle interleaving and randomized compiling.


def hard_cycles(letters: np.ndarray, flips) -> np.ndarray:
    """Which cycles of a letters triple are hard: a letter past PLAN_LETTERS
    or a CNOT."""
    return ((letters >= len(PLAN_LETTERS)).any(axis=1)
            | np.array([bool(pairs) for pairs in flips], dtype=bool))


def interleave_letters(letters: np.ndarray, flips,
                       keys) -> tuple[np.ndarray, list, tuple]:
    """A letters triple with an all-idle (easy) cycle inserted between
    consecutive hard cycles."""
    hard = hard_cycles(letters, flips)
    at = np.flatnonzero(hard[1:] & hard[:-1]) + 1
    flips = list(flips)
    for k in reversed(at.tolist()):
        flips.insert(k, ())
    return np.insert(letters, at, 0, axis=0), flips, keys


def interleave_idle(circ: Circuit) -> Circuit:
    """Insert an all-idle (easy) cycle between consecutive hard cycles."""
    return circuit_of(circ.n_qubits,
                      *interleave_letters(*read_letters(circ)), circ.gate_set)


# Twirl Paulis are codes x-bit + 2 * z-bit (PLAN_LETTERS[:4]); a product up to
# phase is an XOR. A qubit's role in a cycle: 0 an idle or Pauli, 1 h, 2 s or
# sdg, 3 and 4 a CNOT's control and target, 5 t or tdg.
_ROLE = {"h": 1, "s": 2, "sdg": 2, "t": 5, "tdg": 5}
_A, _B = np.divmod(np.arange(16), 4)
# _CROSS[role, 4 * a + b]: a qubit's frame after its gate in a hard cycle, from
# frame a on it (or a CNOT's control) and b on a CNOT's target; t keeps it.
_CROSS = np.array([_A, (_A & 1) << 1 | _A >> 1, _A ^ (_A & 1) << 1,
                   _A & 1 | (_A ^ _B) & 2, (_A ^ _B) & 1 | _B & 2, _A])


# Each slot's fresh Paulis (in the order i, x, y, z, padded to 16) by its code.
# Phase flags are 1 for s or sdg. No fresh x sits on an s or sdg (whose letter
# it joins) or ahead of t, or leaves an x for a landing s or sdg to absorb. A
# lone qubit's code is 12 * its easy gate's flag + 2 * the role it crosses +
# its landing flag; a CNOT's, 24 + 8 * its control's easy-gate flag + 4 * its
# target's + 2 * its control's landing flag + its target's.
_SLOT_OPTIONS = [
    [(p, p) for p in (0, 1, 3, 2) if not (p & 1 and (g or mid == 5))
     and not (land and _CROSS[mid, 5 * p] & 1)]
    for g in (0, 1) for mid in range(6) for land in (0, 1)] + [
    [(pc, pt) for pc in (0, 1, 3, 2) for pt in (0, 1, 3, 2)
     if not (gc and pc & 1 or gt and pt & 1)
     and not (lc and _CROSS[3, 4 * pc + pt] & 1)
     and not (lt and _CROSS[4, 4 * pc + pt] & 1)]
    for gc in (0, 1) for gt in (0, 1) for lc in (0, 1) for lt in (0, 1)]
_COUNTS = np.array([len(o) for o in _SLOT_OPTIONS], dtype=np.int64)
_OPTS = np.array([o + [(0, 0)] * (16 - len(o)) for o in _SLOT_OPTIONS],
                 dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Twirl:
    """Randomized compiling of one circuit as tables. A trial picks one
    option per slot: per easy cycle, the next hard cycle's CNOT pairs in gate
    order, then the other qubits ascending. Row e of `cross` carries easy
    cycle e - 1's fresh Paulis through the hard cycle between to the frame
    easy cycle e merges; its last row gives the closing frame."""

    easy: np.ndarray     # cycle index of each easy cycle
    base: np.ndarray     # (easy, n) their letters as written
    counts: np.ndarray   # options per slot
    first: np.ndarray    # start of each slot's options in `opts`
    cells: np.ndarray    # (slot, 2) flat easy cycle * n + qubit it sets
    opts: np.ndarray     # (option, 2) Pauli codes for those cells
    cross: np.ndarray    # (easy + 1, n, 3) _CROSS row, qubits of a and b

    @classmethod
    def of_plan(cls, letters: np.ndarray, flips, keys) -> "Twirl":
        """Tables of a letters triple (see `circuits.read_letters`). Its
        circuit must be Clifford+T and idle-interleaved: no two cycles that
        `hard_cycles` marks touch."""
        bad = sorted({name for name, angle in keys if angle is not None})
        if bad:
            raise InvalidParams("randomized compiling needs a Clifford+T "
                                f"circuit; found {', '.join(bad)}")
        depth, n = letters.shape
        at, c, t = np.array([(k, *g) for k, pairs in enumerate(flips)
                             for g in pairs], dtype=np.intp).reshape(-1, 3).T
        # Two idle cycles past the end, for the last easy cycle to cross and
        # land on; index -1 reads the second.
        hard = np.append(hard_cycles(letters, flips), [False] * 2)
        if (hard[1:] & hard[:-1]).any():
            raise NotInterleaved("adjacent hard cycles; interleave idles first")
        role = np.zeros((depth + 2, n), dtype=np.intp)
        role[:depth] = np.array([_ROLE.get(name, 0) for name, _ in keys])[letters]
        role[at, c], role[at, t] = 3, 4
        easy = np.flatnonzero(~hard[:depth])
        mid = hard[easy + 1]
        # Flat over the (easy, n) grid, cell e * n + q: the role each qubit
        # crosses (0 if no hard cycle follows) and the phase flags of its easy
        # gate and of the gate it lands on.
        crossed = role[np.where(mid, easy + 1, depth)].ravel()
        gate, land = role[easy].ravel() == 2, role[easy + 1 + mid].ravel() == 2

        # Slots: easy cycle e's CNOT pairs in gate order, then the qubits they
        # leave alone, ascending; a stable sort by e keeps that order. A CNOT
        # in cycle 0 has no slot.
        pair = (at > 0) & ~hard[at - 1]
        e = (np.cumsum(~hard) - 1)[at[pair] - 1]
        pc, pt = e * n + c[pair], e * n + t[pair]
        lone = np.flatnonzero((crossed != 3) & (crossed != 4))
        code = np.concatenate([
            24 + 8 * gate[pc] + 4 * gate[pt] + 2 * land[pc] + land[pt],
            (12 * gate + 2 * crossed + land)[lone]])
        cells = np.stack([np.concatenate([pc, lone]),
                          np.concatenate([pt, lone])], axis=1)
        order = np.argsort(cells[:, 0] // n, kind="stable")
        cells, code = cells[order], code[order]
        counts = _COUNTS[code]
        first = np.cumsum(counts) - counts
        slot = np.repeat(np.arange(len(code)), counts)

        # Row e crosses the hard cycle before easy cycle e; the last, the one
        # after. A row with no hard cycle there crosses the idle cycle `depth`.
        before = np.append(easy - 1, easy[-1] + 1 if easy.size else -1)
        before[~hard[before]] = depth
        cross = np.empty((depth + 1, n, 3), dtype=np.intp)
        cross[..., 0] = np.where(role[:-1] == 5, 0, role[:-1])  # t's row is 0's
        cross[..., 1:] = np.arange(n)[:, None]
        cross[at, t, 1], cross[at, c, 2] = c, t
        return cls(easy, letters[easy], counts, first, cells,
                   _OPTS[code[slot], np.arange(len(slot)) - first[slot]],
                   cross[before])

    def draw(self, seed) -> np.ndarray:
        """One trial's picks: one `integers` call, one scalar draw per slot."""
        return np.random.default_rng(seed).integers(self.counts)

    def sample(self, picks) -> tuple[np.ndarray, np.ndarray]:
        """For T trials' picks: the merged easy-cycle letters (T, easy, n),
        indexing PLAN_LETTERS, and the closing frames (T, n) as Pauli codes."""
        e, n = self.base.shape
        flat = self.first + np.asarray(picks, dtype=np.intp)
        fresh = np.zeros((len(flat), e * n), dtype=np.intp)
        fresh[:, self.cells[:, 1]] = self.opts[flat, 1]
        fresh[:, self.cells[:, 0]] = self.opts[flat, 0]
        fresh = fresh.reshape(len(flat), e, n)
        prev = np.pad(fresh, ((0, 0), (1, 0), (0, 0)))
        rows = np.arange(e + 1)[:, None]
        kind, a, b = np.moveaxis(self.cross, -1, 0)
        frame = _CROSS[kind, 4 * prev[:, rows, a] + prev[:, rows, b]]
        into = frame[:, :e]
        # A Pauli letter takes the product; s and sdg swap on one z.
        return (np.where(self.base < 4, fresh ^ self.base ^ into,
                         self.base ^ (fresh ^ into) >> 1), frame[:, e])


def randomized_compile(circ: Circuit, seed=None) -> tuple[Circuit, tuple[str, ...]]:
    """Dress easy cycles with fresh random Paulis, folding each correction into
    the next easy cycle. Returns the rewritten circuit and the closing Pauli
    frame left over after the last cycle, one label per qubit.

    Applying the frame to the output (a perfect operation, equivalent to
    relabeling measurement outcomes) recovers the original circuit's action up
    to global phase. Deferring it past the end means every noise injection in
    the run, the final one included, sits inside a random Pauli frame.

    Requires no two adjacent hard cycles (run `interleave_idle` first). Depth
    is preserved: twirls merge into existing easy gates. Built from the same
    `Twirl` draws that `simulate(..., rc=True, seed=seed)` runs.
    """
    letters, flips, keys = read_letters(circ)
    twirl = Twirl.of_plan(letters, flips, keys)
    merged, frame = twirl.sample([twirl.draw(seed)])
    letters[twirl.easy] = merged[0]
    return (circuit_of(circ.n_qubits, letters, flips, keys, circ.gate_set),
            tuple(PLAN_LETTERS[p] for p in frame[0]))


def apply_pauli_frame(dm, frame: tuple[str, ...]):
    """Apply one Pauli per qubit to a state, noise-free. Undoes the closing
    frame from `randomized_compile`; labels are {i, x, y, z}."""
    from .circuits import apply_cycle

    gates = tuple(Gate(p, (q,)) for q, p in enumerate(frame) if p != "i")
    if not gates:
        return dm
    return apply_cycle(dm, Cycle(gates))
