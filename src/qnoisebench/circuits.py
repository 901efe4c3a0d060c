"""Circuits as sequences of cycles, density-matrix simulation, serialization.

A cycle applies at most one gate per qubit; all its gates act simultaneously.
Evolution per cycle is rho -> U_c rho U_c^dagger followed by the noise channel
applied to every qubit, idle qubits included. `simulate` runs a `CircuitPlan`
on the paired layout of `noise.to_paired`: each CNOT (or Toffoli) permutes the
entries, then every qubit gets one 4x4 map, its channel times its gate's
superoperator u (x) conj(u). `apply_local_unitary` and `apply_cycle` run on
the same two kernels.

Text format (one circuit per file):

    qubits 3
    h@0 i@1 i@2
    cnot@0,1 rz(0.25)@2

One cycle per line after the header; tokens are `name@qubits` or
`name(angle)@qubits`, idle qubits written explicitly as `i@q`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateIndex, InvalidParams, WidthMismatch
from .gates import (CLIFFORD_T_NAMES, CNOT, FIXED_MATRICES, TOFFOLI, Gate,
                    gate_matrix)
# apply_channel_all is not called here, but perfbench/tracer.py times the
# noise layer under this module's name, so the name stays importable from it.
from .noise import (NoNoise, NoiseModel, apply_channel_all,  # noqa: F401
                    apply_qubit_map, apply_superoperators, from_paired,
                    pair_superoperator, superoperator, to_paired)
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

    def qubits(self) -> set[int]:
        return {q for g in self.gates for q in g.qubits}

    def gate_on(self, q: int) -> Gate | None:
        for g in self.gates:
            if q in g.qubits:
                return g
        return None


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
    """Conjugate rho by a gate's unitary on `targets`: U rho U^dagger.

    A 2x2 u is the 4x4 map u (x) conj(u) on its qubit; a multi-qubit u must
    be the CNOT or Toffoli matrix, the permutations `simulate` runs.
    """
    targets = tuple(targets)
    if any(q >= n for q in targets):
        raise WidthMismatch(f"targets {targets} exceed width {n}")
    if u.shape == (2 ** len(targets),) * 2:
        if len(targets) == 1:
            return apply_qubit_map(rho, pair_superoperator(u), targets[0], n)
        if np.array_equal(u, CNOT) or np.array_equal(u, TOFFOLI):
            v = to_paired(rho, n)
            _controlled_x(v, targets, n)
            return from_paired(v, n)
    raise InvalidParams(
        f"operator of shape {u.shape} on {targets} is not a one-qubit gate, "
        "CNOT or Toffoli")


def apply_cycle(dm: DensityMatrix, cycle: Cycle) -> DensityMatrix:
    """Noiseless application of one cycle."""
    rho = dm.matrix
    for g in cycle.gates:
        rho = apply_local_unitary(rho, g.matrix(), g.qubits, dm.n_qubits)
    return DensityMatrix(rho)


def cycle_unitary(cycle: Cycle, n: int) -> np.ndarray:
    u = np.eye(2 ** n, dtype=np.complex128)
    for g in cycle.gates:
        u = gate_matrix(g, n) @ u
    return u


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Product of all cycle unitaries, later cycles on the left."""
    u = np.eye(2 ** circ.n_qubits, dtype=np.complex128)
    for c in circ.cycles:
        u = cycle_unitary(c, circ.n_qubits) @ u
    return u


# Every plan's first letters: the easy gates, the Paulis in the order of their
# codes x-bit + 2 * z-bit, so twirl letters and closing frames index them.
PLAN_LETTERS = ("i", "x", "z", "y", "s", "sdg")
_FIXED_MAPS = {name: pair_superoperator(m)
               for name, m in FIXED_MATRICES.items() if m.shape == (2, 2)}


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """A circuit read once for simulation. `letters[k, q]` indexes `pair_maps`,
    u (x) conj(u) per distinct one-qubit gate (0: idle, CNOT qubits too).
    Segment (start, stop, flips) runs the controlled-X flips of cycle `start`,
    then per qubit one map composed over cycles start..stop-1. `twirl` is a
    `compiling.Twirl` if compiled for randomized compiling."""

    n_qubits: int
    letters: np.ndarray
    pair_maps: np.ndarray
    segments: tuple
    twirl: object = None

    def compose(self, noise: NoiseModel = NoNoise(), seeds=None) -> list:
        """Per trial (maps, idle): each segment's 4x4 map per qubit and which
        are exactly the identity; one trial as written, or a twirled trial per
        seed with its closing frame composed in. One batched product per cycle."""
        table = (self.pair_maps if isinstance(noise.validate(), NoNoise)
                 else superoperator(noise) @ self.pair_maps)
        letters, frames = self.letters[None], None
        if seeds is not None:
            merged, frames = self.twirl.sample([self.twirl.draw(s) for s in seeds])
            letters = np.repeat(letters, len(merged), axis=0)
            letters[:, self.twirl.easy] = merged
        cycle_maps = table[letters]  # (trial, cycle, qubit, 4, 4)
        segs = []
        for start, stop, _ in self.segments:
            m = cycle_maps[:, start]
            for k in range(start + 1, stop):
                m = cycle_maps[:, k] @ m
            segs.append(m)
        if frames is not None and segs:
            segs[-1] = self.pair_maps[frames] @ segs[-1]
        maps = np.array(segs).reshape(  # (trial, segment, qubit, 4, 4)
            len(segs), len(letters), self.n_qubits, 4, 4).swapaxes(0, 1)
        return list(zip(maps, (maps == np.eye(4)).all(axis=(-2, -1)).tolist()))

    def run(self, rho: np.ndarray, maps: tuple) -> DensityMatrix:
        """One trial's maps (an entry of `compose`) applied to rho."""
        n = self.n_qubits
        v = to_paired(rho, n)
        for (_, _, flips), seg, idle in zip(self.segments, *maps):
            if flips:
                v = v[_flip_order(flips, n)]
            v = apply_superoperators(v, [None if i else m
                                         for m, i in zip(seg, idle)])
        return DensityMatrix(from_paired(v, n))


def compile_plan(circ: Circuit, rc: bool = False) -> CircuitPlan:
    """Read the circuit into a `CircuitPlan`, with its randomized-compiling
    tables if rc (then it must be idle-interleaved; see `interleave_idle`)."""
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
    segments = tuple((a, b, tuple(flips.get(a, ())))
                     for a, b in zip(starts, starts[1:] + [circ.depth]))
    maps = [_FIXED_MAPS[name] if angle is None
            else pair_superoperator(Gate(name, (0,), angle).matrix())
            for name, angle in index]
    letters = np.array(letters, dtype=np.intp).reshape(circ.depth, n)
    return CircuitPlan(n, letters, np.stack(maps), segments,
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
    if circ.n_qubits != state.n_qubits:
        raise WidthMismatch(
            f"circuit width {circ.n_qubits} != state width {state.n_qubits}"
        )
    plan = compile_plan(circ, rc)
    maps = plan.compose(noise, [seed] if rc else None)
    return plan.run(state.matrix, maps[0])


@functools.lru_cache(maxsize=32)
def _flip_order(flips: tuple, n: int) -> np.ndarray:
    """v[order] is the paired state v after the controlled-X gates `flips`."""
    order = np.arange(4 ** n)
    for qubits in flips:
        _controlled_x(order, qubits, n)
    order.flags.writeable = False
    return order


def _controlled_x(v: np.ndarray, qubits: tuple[int, ...], n: int) -> None:
    """In place on a paired state: flip the last qubit where all the others
    are 1 (CNOT, Toffoli), on the row bits and on the column bits."""
    t = v.reshape((2,) * (2 * n))
    for side in (0, 1):
        idx = [slice(None)] * (2 * n)
        for c in qubits[:-1]:
            idx[2 * c + side] = slice(1, 2)
        w = t[tuple(idx)]
        w[...] = np.flip(w, axis=2 * qubits[-1] + side)


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
# Text serialization.

_TOKEN_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<angle>[^)]+)\))?@(?P<qubits>\d+(?:,\d+)*)$"
)


def _gate_token(g: Gate) -> str:
    qubits = ",".join(str(q) for q in g.qubits)
    if g.angle is not None:
        return f"{g.name}({g.angle!r})@{qubits}"
    return f"{g.name}@{qubits}"


def circuit_to_text(circ: Circuit) -> str:
    lines = [f"qubits {circ.n_qubits}"]
    for cycle in circ.cycles:
        tokens = []
        covered = cycle.qubits()
        by_first = {min(g.qubits): g for g in cycle.gates}
        q = 0
        while q < circ.n_qubits:
            if q in by_first:
                tokens.append(_gate_token(by_first[q]))
            elif q not in covered:
                tokens.append(f"i@{q}")
            q += 1
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str, gate_set: str | None = None) -> Circuit:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("qubits "):
        raise InvalidParams("missing 'qubits N' header line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise InvalidParams(f"bad header {lines[0]!r}") from exc
    cycles = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        gates = []
        for token in line.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise InvalidParams(f"line {lineno}: bad token {token!r}")
            name = m.group("name")
            qubits = tuple(int(q) for q in m.group("qubits").split(","))
            angle = m.group("angle")
            if name == "i":
                continue
            if angle is not None:
                try:
                    theta = float(angle)
                except ValueError as exc:
                    raise InvalidParams(
                        f"line {lineno}: bad angle in {token!r}") from exc
                gates.append(Gate(name, qubits, theta))
            else:
                gates.append(Gate(name, qubits))
        cycles.append(Cycle(tuple(gates)))
    return Circuit(n, tuple(cycles), gate_set)
