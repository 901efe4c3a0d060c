"""Circuits as sequences of cycles, density-matrix simulation, serialization.

A cycle applies at most one gate per qubit; all its gates act simultaneously.
Evolution per cycle is rho -> U_c rho U_c^dagger followed by the noise channel
applied to every qubit, idle qubits included. `simulate` runs on the paired
layout of `noise.to_paired`: each CNOT (or Toffoli) is a permutation of the
entries, then every qubit gets one 4x4 map, its channel times its gate's
superoperator u (x) conj(u).

Text format (one circuit per file):

    qubits 3
    h@0 i@1 i@2
    cnot@0,1 rz(0.25)@2

One cycle per line after the header; tokens are `name@qubits` or
`name(angle)@qubits`, idle qubits written explicitly as `i@q`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateIndex, InvalidParams, WidthMismatch
from .gates import CLIFFORD_T_NAMES, Gate, apply_local_unitary, gate_matrix
# apply_channel_all is not called here, but perfbench/tracer.py times the
# noise layer under this module's name, so the name stays importable from it.
from .noise import (NoNoise, NoiseModel, apply_channel_all,  # noqa: F401
                    apply_superoperators, from_paired, pair_superoperator,
                    superoperator, to_paired)
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


def apply_cycle(dm: DensityMatrix, cycle: Cycle) -> DensityMatrix:
    """Noiseless application of one cycle."""
    n = dm.n_qubits
    rho = dm.matrix
    for g in cycle.gates:
        if any(q >= n for q in g.qubits):
            raise WidthMismatch(f"gate {g.name} on {g.qubits} exceeds width {n}")
        rho = apply_local_unitary(rho, g.matrix(), g.qubits, n)
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


def simulate(circ: Circuit, state: DensityMatrix,
             noise: NoiseModel = NoNoise(), rc: bool = False,
             seed=None) -> DensityMatrix:
    """Run the circuit: per cycle, gates first, then noise on every qubit.

    With rc=True the circuit is first rewritten by randomized compiling (the
    circuit must already be idle-interleaved; see `compiling.interleave_idle`)
    and the closing Pauli frame is applied to the output noise-free, the same
    correction a hardware run folds into measurement relabeling.
    """
    if circ.n_qubits != state.n_qubits:
        raise WidthMismatch(
            f"circuit width {circ.n_qubits} != state width {state.n_qubits}"
        )
    frame = None
    if rc:
        from .compiling import randomized_compile

        circ, frame = randomized_compile(circ, seed)
    noise.validate()
    n = circ.n_qubits
    chan = None if isinstance(noise, NoNoise) else superoperator(noise)
    fused: dict = {}  # (name, angle) -> the gate's 4x4 map with the channel
    # Single-qubit maps on different qubits commute, so each qubit's maps
    # compose into `pending` and the state is only touched when a CNOT (or
    # Toffoli) has to act on it, and once at the end.
    pending = [None] * n
    v = to_paired(state.matrix, n)
    for cycle in circ.cycles:
        maps = [chan] * n
        for g in cycle.gates:
            if len(g.qubits) > 1:
                v = apply_superoperators(v, pending)
                pending = [None] * n
                _controlled_x(v, g.qubits, n)
            elif g.name != "i":
                key = (g.name, g.angle)
                if key not in fused:
                    m = pair_superoperator(g.matrix())
                    fused[key] = m if chan is None else chan @ m
                maps[g.qubits[0]] = fused[key]
        for q, m in enumerate(maps):
            if m is not None:
                pending[q] = m if pending[q] is None else m @ pending[q]
    v = apply_superoperators(v, pending)
    rho = from_paired(v, n)
    out = DensityMatrix(rho)
    if frame is not None:
        from .compiling import apply_pauli_frame

        out = apply_pauli_frame(out, frame)
    return out


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
                gates.append(Gate(name, qubits, float(angle)))
            else:
                gates.append(Gate(name, qubits))
        cycles.append(Cycle(tuple(gates)))
    return Circuit(n, tuple(cycles), gate_set)
