"""Circuits as sequences of cycles and density-matrix simulation.

A cycle applies at most one gate per qubit; all its gates act simultaneously.
Evolution per cycle is rho -> U_c rho U_c^dagger followed by the noise channel
applied to every qubit, idle qubits included. `CircuitPlan.run` is the one
code path that moves a state. It takes density matrices and runs them on the
paired layout of `to_paired`, which never leaves `run`: each CNOT (or Toffoli)
permutes the entries, then every qubit gets one 4x4 map, its channel times its
gate's superoperator u (x) conj(u). A plan runs a batch of trials at once, and
kets under the 2x2 unitaries the same way. `apply_local_unitary` and
`apply_cycle` build one-cycle plans and run them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateIndex, InvalidParams, WidthMismatch
from .gates import CLIFFORD_T_NAMES, CNOT, FIXED_MATRICES, I2, TOFFOLI, Gate
# apply_channel_all is not called here, but perfbench/tracer.py times the
# noise layer under this module's name, so the name stays importable from it.
from .noise import (NoNoise, NoiseModel, apply_channel_all,  # noqa: F401
                    from_pauli_transfer, pair_superoperator, pauli_transfer,
                    superoperator)
from .states import DensityMatrix

PARAM_ROTATIONS = "param_rotations"
CLIFFORD_T = "clifford_t"


@dataclass(frozen=True)
class Cycle:
    """One layer of simultaneous gates on disjoint qubits."""

    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        seen: set[int] = set()
        for g in gates:
            for q in g.qubits:
                if q in seen:
                    raise DuplicateIndex(f"qubit {q} used twice in one cycle")
                seen.add(q)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    cycles: tuple[Cycle, ...] = ()
    gate_set: str | None = None

    def __post_init__(self):
        cycles = tuple(
            c if isinstance(c, Cycle) else Cycle(tuple(c)) for c in self.cycles
        )
        object.__setattr__(self, "cycles", cycles)
        if self.n_qubits < 1:
            raise InvalidParams("circuit needs at least one qubit")
        for c in cycles:
            for g in c.gates:
                if any(q >= self.n_qubits for q in g.qubits):
                    raise WidthMismatch(
                        f"gate {g.name} on {g.qubits} exceeds width {self.n_qubits}"
                    )
        if self.gate_set == CLIFFORD_T:
            bad = {g.name for c in cycles for g in c.gates} - CLIFFORD_T_NAMES
            if bad:
                raise InvalidParams(f"gates {sorted(bad)} not in the Clifford+T set")

    @property
    def depth(self) -> int:
        return len(self.cycles)

    def with_cycles(self, cycles) -> "Circuit":
        return Circuit(self.n_qubits, tuple(cycles), self.gate_set)


def identity_cycle() -> Cycle:
    return Cycle(())


def apply_local_unitary(rho: np.ndarray, u: np.ndarray,
                        targets: tuple[int, ...], n: int) -> np.ndarray:
    """Conjugate rho by a gate's unitary on `targets`: U rho U^dagger, as a
    one-cycle plan. A 2x2 u is letter 1 of the table [I, u] on its qubit; a
    multi-qubit u must be the CNOT or Toffoli matrix, the cycle's flips."""
    targets = tuple(targets)
    if any(q >= n for q in targets):
        raise WidthMismatch(f"targets {targets} exceed width {n}")
    letters = np.zeros((1, 1, n), dtype=np.intp)
    if u.shape == (2, 2) and len(targets) == 1:
        letters[0, 0, targets[0]] = 1
        plan = CircuitPlan(n, letters, np.stack([I2, u]), ((0, 1, ((),)),))
    elif u.shape == (2 ** len(targets),) * 2 and (
            np.array_equal(u, CNOT) or np.array_equal(u, TOFFOLI)):
        plan = CircuitPlan(n, letters, I2[None], ((0, 1, ((targets,),)),))
    else:
        raise InvalidParams(
            f"operator of shape {u.shape} on {targets} is not a one-qubit "
            "gate, CNOT or Toffoli")
    return plan.run(rho[None])[0]


def apply_cycle(dm: DensityMatrix, cycle: Cycle) -> DensityMatrix:
    """Noiseless application of one cycle."""
    return simulate(Circuit(dm.n_qubits, (cycle,)), dm)


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Product of all gate unitaries, later cycles on the left: the dense
    oracle the tests check the plan kernel against. U is held as a (2,)*n x
    2^n tensor, one row axis per qubit, and each gate's 2^k x 2^k matrix is
    contracted into the row axes of its k qubits."""
    n = circ.n_qubits
    u = np.eye(2 ** n, dtype=np.complex128).reshape((2,) * n + (2 ** n,))
    for c in circ.cycles:
        for g in c.gates:
            k = len(g.qubits)
            m = g.matrix().reshape((2,) * (2 * k))
            u = np.tensordot(m, u, axes=(range(k, 2 * k), g.qubits))
            u = np.moveaxis(u, range(k), g.qubits)
    return u.reshape(2 ** n, 2 ** n)


# Every plan's first letters: the easy gates, the Paulis in the order of their
# codes x-bit + 2 * z-bit, so twirl letters and closing frames index them.
PLAN_LETTERS = ("i", "x", "z", "y", "s", "sdg")


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """Circuits read once for simulation. `letters[t, k, q]` indexes
    `unitaries`, the 2x2 of each distinct one-qubit gate (0: idle, CNOT
    qubits too), for cycle k of trial t; a compiled circuit is one trial that
    a whole batch shares. Segment (start, stop, flips) runs the controlled-X
    flips of cycle `start`, flips[t] for trial t or flips[0] for every trial,
    then per qubit one map composed over cycles start..stop-1. `twirl` is a
    `compiling.Twirl` if compiled for randomized compiling."""

    n_qubits: int
    letters: np.ndarray
    unitaries: np.ndarray
    segments: tuple
    twirl: object = None
    pair_maps: np.ndarray = field(init=False)  # u (x) conj(u) per letter

    def __post_init__(self):
        object.__setattr__(self, "pair_maps",
                           pair_superoperator(self.unitaries))

    def _compose(self, noise: NoiseModel = NoNoise(), seeds=None,
                 ket: bool = False) -> np.ndarray:
        """Each segment's map per qubit, (trial, segment, qubit, d, d): the
        4x4 paired maps N (u (x) conj(u)), or with `ket` the 2x2 unitaries
        (`run` lets a ket batch run noise-free only). One trial per row of
        `letters`, or a twirled trial per seed with its closing frame
        composed in.

        Maps that must be multiplied (a segment of several cycles, or a
        closing frame) are multiplied as real Pauli transfer matrices, one
        batched float64 product per cycle, and each segment map goes back to
        the paired layout once, in one GEMM for all of them. A plan whose
        segments are one cycle each and that has no frame has nothing to
        multiply: its maps are read straight from the paired table."""
        letters, frames = self.letters, None
        if seeds is not None:
            merged, frames = self.twirl.sample([self.twirl.draw(s) for s in seeds])
            letters = np.repeat(letters, len(merged), axis=0)
            letters[:, self.twirl.easy] = merged
        multiply = frames is not None or any(
            stop - start > 1 for start, stop, _ in self.segments)
        pauli = multiply and not ket
        frame_maps = self.unitaries if ket else self.pair_maps
        if pauli:
            frame_maps = pauli_transfer(frame_maps)
        table = frame_maps
        if not isinstance(noise, NoNoise):
            channel = superoperator(noise)
            table = (pauli_transfer(channel) if pauli else channel) @ frame_maps
        if not multiply:  # segment k is cycle k
            return table[letters]
        # (cycle, trial, qubit, d, d): each cycle's maps are contiguous.
        cycle_maps = table[letters.swapaxes(0, 1)]
        segs = []
        for start, stop, _ in self.segments:
            m = cycle_maps[start]
            for k in range(start + 1, stop):
                m = cycle_maps[k] @ m
            segs.append(m)
        if frames is not None and segs:
            segs[-1] = frame_maps[frames] @ segs[-1]
        d = table.shape[-1]
        segs = np.array(segs).reshape(len(segs), len(letters), self.n_qubits, d, d)
        if pauli:
            segs = from_pauli_transfer(segs)
        return segs.swapaxes(0, 1)

    def run(self, states: np.ndarray, noise: NoiseModel = NoNoise(),
            seeds=None) -> np.ndarray:
        """Density matrices (T, 2^n, 2^n) or kets (T, 2^n) through the plan,
        under `noise` after every cycle, returned in the same shape. Density
        matrices run paired (`to_paired`) under the 4x4 maps
        N (u (x) conj(u)); kets run noise-free under the 2x2 unitaries. Any
        other shape raises WidthMismatch, and an empty batch or noisy kets
        InvalidParams.

        The trials are the rows of `letters`, or with seeds one twirled trial
        per seed, its closing frame composed in: one trial for every state or
        one per state. One gather and one kernel pass per segment for a
        slice of the batch; a map that is exactly the identity for every
        trial is skipped. A slice holds at most _SLICE_BYTES of states (one
        state at least), so it stays in cache through all the passes."""
        n = self.n_qubits
        if states.shape[1:] not in ((2 ** n,), (2 ** n, 2 ** n)):
            raise WidthMismatch(
                f"batch of shape {states.shape} is neither kets (T, {2 ** n}) "
                f"nor density matrices (T, {2 ** n}, {2 ** n})")
        if not len(states):
            raise InvalidParams("empty batch: run needs at least one state")
        ket = states.ndim == 2
        noise = noise.validate()
        if ket and not isinstance(noise, NoNoise):
            raise InvalidParams(f"kets run noise-free, not under {noise!r}")
        if seeds is not None and self.twirl is None:
            raise InvalidParams("seeds draw twirls; compile the plan with rc")
        maps = self._compose(noise, seeds, ket=ket)
        if len(maps) not in (1, len(states)):
            raise InvalidParams(
                f"{len(maps)} trials of maps for a batch of {len(states)} states")
        d = maps.shape[-1]
        idle = (maps == np.eye(d)).all(axis=(0, -2, -1)).tolist()
        step = max(1, _SLICE_BYTES // states[0].nbytes)
        out = []
        for lo in range(0, len(states), step):
            trials = slice(lo, lo + step)
            w = states[trials] if ket else to_paired(states[trials], n)
            for (_, _, flips), seg, skip in zip(self.segments,
                                                maps.swapaxes(0, 1), idle):
                if len(flips) > 1:  # each trial's own order, as one flat take
                    order = np.stack([_flip_order(f, n, d // 2)
                                      for f in flips[trials]])
                    order += np.arange(0, w.size, w.shape[1])[:, None]
                    w = w.reshape(-1).take(order)
                elif flips[0]:
                    w = np.take(w, _flip_order(flips[0], n, d // 2), axis=1)
                w = apply_superoperators(
                    w, [None if s else m[trials] if len(m) > 1 else m
                        for m, s in zip(seg.swapaxes(0, 1), skip)])
            out.append(w if ket else from_paired(w, n))
        return out[0] if len(out) == 1 else np.concatenate(out)


# A 32-state batch of 8-qubit density matrices (32 MB) ran twice as slow as
# slices of 2 MB, the L2 cache of one core of the 2-core Xeon it was timed on.
_SLICE_BYTES = 2 ** 21


def compile_plan(circ: Circuit, rc: bool = False) -> CircuitPlan:
    """Read the circuit into a one-trial `CircuitPlan`, with its
    randomized-compiling tables if rc (then it must be idle-interleaved; see
    `interleave_idle`)."""
    from .compiling import twirl_plan  # compiling imports this module

    n = circ.n_qubits
    index = {(name, None): k for k, name in enumerate(PLAN_LETTERS)}
    letters = [[0] * n for _ in circ.cycles]
    flips: dict[int, list] = {}
    for k, cycle in enumerate(circ.cycles):
        for g in cycle.gates:
            if len(g.qubits) > 1:
                flips.setdefault(k, []).append(g.qubits)
            else:
                key = (g.name, g.angle)
                letters[k][g.qubits[0]] = index.setdefault(key, len(index))
    starts = sorted({0, *flips}) if circ.depth else []
    segments = tuple((a, b, (tuple(flips.get(a, ())),))
                     for a, b in zip(starts, starts[1:] + [circ.depth]))
    unitaries = [FIXED_MATRICES[name] if angle is None
                 else Gate(name, (0,), angle).matrix() for name, angle in index]
    letters = np.array(letters, dtype=np.intp).reshape(1, circ.depth, n)
    return CircuitPlan(n, letters, np.stack(unitaries), segments,
                       twirl_plan(circ) if rc else None)


def simulate(circ: Circuit, state: DensityMatrix,
             noise: NoiseModel = NoNoise(), rc: bool = False,
             seed=None) -> DensityMatrix:
    """Run the circuit: per cycle, gates first, then noise on every qubit.

    With rc=True the circuit is randomly compiled as `randomized_compile` does
    (it must already be idle-interleaved; see `compiling.interleave_idle`)
    and the closing Pauli frame is composed into the last maps noise-free, the
    same correction a hardware run folds into measurement relabeling.
    """
    plan = compile_plan(circ, rc)
    rho = plan.run(state.matrix[None], noise, [seed] if rc else None)
    return DensityMatrix(rho[0])


def toffoli_decomposition(c1: int, c2: int, target: int,
                          n_qubits: int | None = None) -> Circuit:
    """Standard 6-CNOT, 7-T realization of the Toffoli over {h, t, tdg, cnot}."""
    if len({c1, c2, target}) != 3:
        raise DuplicateIndex(f"toffoli needs distinct qubits, got {(c1, c2, target)}")
    n = n_qubits if n_qubits is not None else max(c1, c2, target) + 1
    G = Gate
    layers = [
        [G.h(target)],
        [G.cnot(c2, target)],
        [G.tdg(target)],
        [G.cnot(c1, target)],
        [G.t(target)],
        [G.cnot(c2, target)],
        [G.tdg(target)],
        [G.cnot(c1, target), G.t(c2)],
        [G.t(target)],
        [G.h(target), G.cnot(c1, c2)],
        [G.t(c1), G.tdg(c2)],
        [G.cnot(c1, c2)],
    ]
    return Circuit(n, tuple(Cycle(tuple(layer)) for layer in layers), CLIFFORD_T)


# ---------------------------------------------------------------------------
# The paired layout `run` holds density matrices in, and its two kernels.


@functools.lru_cache(maxsize=64)
def _flip_order(flips: tuple, n: int, sides: int = 2) -> np.ndarray:
    """v[order] is v after the controlled-X gates `flips` (CNOT, Toffoli:
    the last qubit flips where all the others are 1), on the row and column
    bits of a paired state (sides 2) or the bits of a ket (sides 1)."""
    order = np.arange(2 ** (sides * n))
    t = order.reshape((2,) * (sides * n))
    for qubits in flips:
        for side in range(sides):
            idx = [slice(None)] * (sides * n)
            for c in qubits[:-1]:
                idx[sides * c + side] = slice(1, 2)
            w = t[tuple(idx)]
            w[...] = np.flip(w, axis=sides * qubits[-1] + side)
    order.flags.writeable = False
    return order


def to_paired(rho: np.ndarray, n: int) -> np.ndarray:
    """rho as a flat vector with axes (r0, c0, r1, c1, ...): one base-4 digit
    2*r_q + c_q per qubit, qubit 0 most significant. A batch (T, 2^n, 2^n)
    gives (T, 4^n). Always a fresh copy."""
    lead = rho.shape[:-2]
    return np.take(rho.reshape(lead + (4 ** n,)), _paired_order(n)[0], axis=-1)


def from_paired(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `to_paired`: the 2^n x 2^n matrix, or one per batch row."""
    return np.take(v, _paired_order(n)[1], axis=-1).reshape(
        v.shape[:-1] + (2 ** n, 2 ** n))


@functools.lru_cache(maxsize=8)
def _paired_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only gathers of `to_paired` and `from_paired`: arange(4^n) in
    int32 (half the bytes of intp) under the layout's axis order and its
    inverse, built once per n, so a conversion is one `take`."""
    axes = [a for q in range(n) for a in (q, n + q)]
    digits = np.arange(4 ** n, dtype=np.int32).reshape((2,) * (2 * n))
    to = digits.transpose(axes).ravel()
    back = digits.transpose(np.argsort(axes)).ravel()
    to.flags.writeable = back.flags.writeable = False
    return to, back


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
