"""Lowering to the Clifford+T alphabet and randomized compiling.

Gate classification for randomized compiling: easy gates are the Paulis,
phase gates, and the identity; everything else (H, T, Tdg, CNOT) is hard.
A cycle counts as hard if any of its gates is hard.
"""

from __future__ import annotations

import functools

import numpy as np

from .circuits import CLIFFORD_T, PARAM_ROTATIONS, Circuit, Cycle, identity_cycle
from .errors import (
    DuplicateIndex,
    InvalidParams,
    NotInterleaved,
    NotUnitary,
    SearchExhausted,
)
from .gates import Gate, WordTable, rz_matrix, word_table
from .linalg import as_complex, is_unitary

EASY_NAMES = frozenset(["i", "x", "y", "z", "s", "sdg"])

DEFAULT_SYNTH_EPS = 0.05
DEFAULT_DEPTH_BUDGET = 25


def is_easy_cycle(cycle: Cycle) -> bool:
    return all(g.name in EASY_NAMES for g in cycle.gates)


# ---------------------------------------------------------------------------
# Euler angles.


def euler_decompose(u: np.ndarray, tol: float = 1e-9) -> tuple[float, float, float]:
    """Angles (beta, gamma, delta) with Rz(beta) H Rz(gamma) H Rz(delta) = u
    up to global phase."""
    u = as_complex(u)
    if u.shape != (2, 2) or not is_unitary(u, tol):
        raise NotUnitary("euler_decompose needs a 2x2 unitary")
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    c = abs(su[0, 0])
    s = abs(su[0, 1])
    gamma = 2.0 * np.arctan2(s, c)
    if s < 1e-12:
        beta = -2.0 * np.angle(su[0, 0])
        delta = 0.0
    elif c < 1e-12:
        beta = -2.0 * (np.angle(su[0, 1]) + np.pi / 2.0)
        delta = 0.0
    else:
        sum_bd = -2.0 * np.angle(su[0, 0])
        diff_bd = -2.0 * np.angle(su[0, 1]) - np.pi
        beta = 0.5 * (sum_bd + diff_bd)
        delta = 0.5 * (sum_bd - diff_bd)
    return float(beta), float(gamma), float(delta)


def euler_compose(beta: float, gamma: float, delta: float) -> np.ndarray:
    from .gates import H

    return rz_matrix(beta) @ H @ rz_matrix(gamma) @ H @ rz_matrix(delta)


# ---------------------------------------------------------------------------
# Rz synthesis: iterative-deepening search over {h, s, sdg, t, tdg} words.

_LETTERS = ("h", "s", "sdg", "t", "tdg")


def _table() -> WordTable:
    return word_table(_LETTERS)


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
            words = [table.words[sl.start + int(i)]
                     for i in hits[rounded == best]]
            return list(min(words))
    raise SearchExhausted(
        f"no word within {eps} of Rz({theta}) at depth {max_depth}"
    )


def best_rz_error(theta: float, depth: int) -> float:
    """Best achievable synthesis error using words of length <= depth."""
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


def _rotation_word(gate: Gate, eps: float) -> list[str]:
    word = _word_with_fallback(gate.angle, eps)
    if gate.name == "rz":
        return list(word)
    # rx = h rz h
    return ["h", *word, "h"]


def to_clifford_t(circ: Circuit, eps: float = DEFAULT_SYNTH_EPS) -> Circuit:
    """Replace every rz/rx with a synthesized word, cycle-aligned.

    Rotations in the same cycle expand in lockstep sub-cycles (shorter words
    pad with idles); non-rotation gates fire in the first sub-cycle. An angle
    whose best word at the depth budget misses eps by at most 2x is accepted
    at its achieved error; a larger miss raises SearchExhausted.

    Words are memoized per (theta, eps) for the life of the process, so each
    distinct rotation is synthesized once however often it recurs.
    """
    out: list[Cycle] = []
    for cycle in circ.cycles:
        words: dict[int, list[str]] = {}
        fixed: list[Gate] = []
        for g in cycle.gates:
            if g.name in ("rz", "rx"):
                words[g.qubits[0]] = _rotation_word(g, eps)
            elif g.name == "toffoli":
                raise InvalidParams("decompose toffoli before lowering")
            else:
                fixed.append(g)
        span = max((len(w) for w in words.values()), default=0)
        if span == 0:
            out.append(cycle)
            continue
        for step in range(span):
            gates = [Gate(w[step], (q,)) for q, w in words.items() if step < len(w)]
            if step == 0:
                gates.extend(fixed)
            out.append(Cycle(tuple(gates)))
    return Circuit(circ.n_qubits, tuple(out), CLIFFORD_T)


# ---------------------------------------------------------------------------
# Idle interleaving and randomized compiling.


def interleave_idle(circ: Circuit) -> Circuit:
    """Insert an all-idle (easy) cycle between consecutive hard cycles."""
    out: list[Cycle] = []
    prev_hard = False
    for cycle in circ.cycles:
        hard = not is_easy_cycle(cycle)
        if hard and prev_hard:
            out.append(identity_cycle())
        out.append(cycle)
        prev_hard = hard
    return circ.with_cycles(out)


# Pauli labels as (x-bit, z-bit): i=(0,0), x=(1,0), z=(0,1), y=(1,1).
_PAULI_TO_BITS = {"i": (0, 0), "x": (1, 0), "z": (0, 1), "y": (1, 1)}
_BITS_TO_PAULI = {v: k for k, v in _PAULI_TO_BITS.items()}
_IZ = ("i", "z")
_ALL_PAULIS = ("i", "x", "y", "z")

# Single-qubit Clifford conjugation of Pauli labels (signs dropped; equality
# holds up to global phase).
_CONJ_1Q = {
    "h": {"i": "i", "x": "z", "y": "y", "z": "x"},
    "s": {"i": "i", "x": "y", "y": "x", "z": "z"},
    "sdg": {"i": "i", "x": "y", "y": "x", "z": "z"},
    "t": {"i": "i", "z": "z"},
    "tdg": {"i": "i", "z": "z"},
    "x": {"i": "i", "x": "x", "y": "y", "z": "z"},
    "y": {"i": "i", "x": "x", "y": "y", "z": "z"},
    "z": {"i": "i", "x": "x", "y": "y", "z": "z"},
    "i": {"i": "i", "x": "x", "y": "y", "z": "z"},
}

# Pauli products, signs dropped.
_PAULI_MUL = {}
for _a, (_ax, _az) in _PAULI_TO_BITS.items():
    for _b, (_bx, _bz) in _PAULI_TO_BITS.items():
        _PAULI_MUL[(_a, _b)] = _BITS_TO_PAULI[(_ax ^ _bx, _az ^ _bz)]


def _conj_through_cnot(pc: str, pt: str) -> tuple[str, str]:
    """CNOT (P_c x P_t) CNOT up to sign: X spreads forward, Z spreads back."""
    xc, zc = _PAULI_TO_BITS[pc]
    xt, zt = _PAULI_TO_BITS[pt]
    return _BITS_TO_PAULI[(xc, zc ^ zt)], _BITS_TO_PAULI[(xt ^ xc, zt)]


def _conj_through_cycle(frame: list[str], cycle: Cycle) -> list[str]:
    out = list(frame)
    for g in cycle.gates:
        if g.name == "cnot":
            c, t = g.qubits
            out[c], out[t] = _conj_through_cnot(frame[c], frame[t])
        else:
            q = g.qubits[0]
            out[q] = _CONJ_1Q[g.name][frame[q]]
    return out


def _merge_easy(fresh: str, gate_name: str, incoming: str) -> str:
    """Name of the single easy gate equal (up to phase) to fresh*gate*incoming."""
    if gate_name in ("s", "sdg"):
        # Both Paulis are restricted to {i, z} here; z s = sdg, z sdg = s.
        flips = (fresh == "z") ^ (incoming == "z")
        name = {"s": "sdg", "sdg": "s"}[gate_name] if flips else gate_name
        return name
    combined = _PAULI_MUL[(_PAULI_MUL[(fresh, gate_name)], incoming)]
    return combined


def _base_choices(gate_name: str) -> tuple[str, ...]:
    return _IZ if gate_name in ("s", "sdg") else _ALL_PAULIS


def _landing_set(cycle: Cycle | None, q: int) -> tuple[str, ...]:
    if cycle is None:
        return _ALL_PAULIS
    g = cycle.gate_on(q)
    if g is not None and g.name in ("s", "sdg"):
        return _IZ
    return _ALL_PAULIS


def _sample_twirl(n: int, easy_cycle: Cycle, hard_cycle: Cycle | None,
                  landing_cycle: Cycle | None, rng) -> list[str]:
    """Fresh Pauli layer whose conjugation through the next hard cycle stays
    representable when folded into the landing easy cycle."""
    fresh = ["i"] * n
    claimed: set[int] = set()

    if hard_cycle is not None:
        for g in hard_cycle.gates:
            if g.name != "cnot":
                continue
            c, t = g.qubits
            claimed.update((c, t))
            base_c = _base_choices(getattr(easy_cycle.gate_on(c), "name", "i"))
            base_t = _base_choices(getattr(easy_cycle.gate_on(t), "name", "i"))
            land_c = _landing_set(landing_cycle, c)
            land_t = _landing_set(landing_cycle, t)
            options = []
            for pc in base_c:
                for pt in base_t:
                    oc, ot = _conj_through_cnot(pc, pt)
                    if oc in land_c and ot in land_t:
                        options.append((pc, pt))
            pick = options[rng.integers(len(options))]
            fresh[c], fresh[t] = pick

    for q in range(n):
        if q in claimed:
            continue
        base = _base_choices(getattr(easy_cycle.gate_on(q), "name", "i"))
        mid = hard_cycle.gate_on(q) if hard_cycle is not None else None
        mid_name = mid.name if mid is not None else "i"
        land = _landing_set(landing_cycle, q)
        options = []
        for p in base:
            if mid_name in ("t", "tdg") and p not in _IZ:
                continue
            if _CONJ_1Q[mid_name][p] in land:
                options.append(p)
        fresh[q] = options[rng.integers(len(options))]
    return fresh


def randomized_compile(circ: Circuit, seed=None) -> tuple[Circuit, tuple[str, ...]]:
    """Dress easy cycles with fresh random Paulis, folding each correction into
    the next easy cycle. Returns the rewritten circuit and the closing Pauli
    frame left over after the last cycle, one label per qubit.

    Applying the frame to the output (a perfect operation, equivalent to
    relabeling measurement outcomes) recovers the original circuit's action up
    to global phase. Deferring it past the end means every noise injection in
    the run, the final one included, sits inside a random Pauli frame.

    Requires no two adjacent hard cycles (run `interleave_idle` first). Depth
    is preserved: twirls merge into existing easy gates.
    """
    rng = np.random.default_rng(seed)
    n = circ.n_qubits
    cycles = list(circ.cycles)
    for c in cycles:
        for g in c.gates:
            if g.name in ("rz", "rx", "toffoli"):
                raise InvalidParams(
                    "randomized compiling needs a Clifford+T circuit; "
                    f"found {g.name}"
                )
    hardness = [not is_easy_cycle(c) for c in cycles]
    for a, b in zip(hardness, hardness[1:]):
        if a and b:
            raise NotInterleaved("adjacent hard cycles; interleave idles first")

    if not any(not h for h in hardness):
        return circ, ("i",) * n

    out: list[Cycle] = []
    frame = ["i"] * n
    for k, cycle in enumerate(cycles):
        if hardness[k]:
            frame = _conj_through_cycle(frame, cycle)
            out.append(cycle)
            continue

        nxt = cycles[k + 1] if k + 1 < len(cycles) else None
        if nxt is not None and hardness[k + 1]:
            landing = cycles[k + 2] if k + 2 < len(cycles) else None
            fresh = _sample_twirl(n, cycle, nxt, landing, rng)
        else:
            fresh = _sample_twirl(n, cycle, None, nxt, rng)

        gates = []
        for q in range(n):
            g = cycle.gate_on(q)
            name = g.name if g is not None else "i"
            merged = _merge_easy(fresh[q], name, frame[q])
            if merged != "i":
                gates.append(Gate(merged, (q,)))
        out.append(Cycle(tuple(gates)))
        frame = fresh
    return circ.with_cycles(out), tuple(frame)


def apply_pauli_frame(dm, frame: tuple[str, ...]):
    """Apply one Pauli per qubit to a state, noise-free. Undoes the closing
    frame from `randomized_compile`; labels are {i, x, y, z}."""
    from .circuits import apply_cycle

    gates = tuple(Gate(p, (q,)) for q, p in enumerate(frame) if p != "i")
    if not gates:
        return dm
    return apply_cycle(dm, Cycle(gates))
