"""Circuits as sequences of cycles and density-matrix simulation.

A cycle applies at most one gate per qubit; all its gates act simultaneously.
Evolution per cycle is rho -> U_c rho U_c^dagger followed by the noise channel
applied to every qubit, idle qubits included. `CircuitPlan.run` is the one
code path that moves a state. It runs a batch of density states as real
Pauli vectors (`to_pauli`): a CNOT is a signed gather of the entries, and each
qubit's channel and gates one real 4x4 Pauli transfer matrix. Kets run under
the 2x2 unitaries the same way. A density matrix is converted only at the
edge, by `simulate` (and `apply_local_unitary`, which builds a one-cycle plan).

The Pauli-vector layout (digit x + 2z per qubit, qubit 0 most significant)
is known only here: `product_pauli` builds product inputs in it, and
`pauli_diagonals` and `pauli_fidelities` read the metrics off it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DuplicateIndex, InvalidParams, InvalidState, NotHermitian,
                     WidthMismatch, is_integer)
from .gates import CLIFFORD_T_NAMES, CNOT, FIXED_MATRICES, I2, Gate
# apply_channel_all is not called here, but perfbench/tracer.py times the
# noise layer under this module's name, so the name stays importable from it.
from .linalg import is_hermitian
from .noise import (PAULI_BASIS, PAULI_INV, NoNoise, NoiseModel,
                    apply_channel_all, pair_superoperator,  # noqa: F401
                    pauli_transfer)
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
        if not is_integer(self.n_qubits) or self.n_qubits < 1:
            raise InvalidParams(f"circuit needs an integer n_qubits >= 1, "
                                f"not {self.n_qubits!r}")
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


def apply_local_unitary(rho: np.ndarray, u: np.ndarray,
                        targets: tuple[int, ...], n: int) -> np.ndarray:
    """Conjugate rho by a gate's unitary on `targets`: U rho U^dagger, as a
    one-cycle plan. A 2x2 u, unitary within 1e-9, is letter 1 of the table
    [I, u] on its qubit; a multi-qubit u must be the CNOT matrix, the
    cycle's flip."""
    targets = tuple(targets)
    if any(q >= n for q in targets):
        raise WidthMismatch(f"targets {targets} exceed width {n}")
    letters = np.zeros((1, 1, n), dtype=np.intp)
    if (u.shape == (2, 2) and len(targets) == 1
            and np.allclose(u @ u.conj().T, I2, rtol=0, atol=1e-9)):
        letters[0, 0, targets[0]] = 1
        plan = CircuitPlan(n, letters, np.stack([I2, u]), [[()]])
    elif np.array_equal(u, CNOT):
        plan = CircuitPlan(n, letters, I2[None], [[(targets,)]])
    else:
        raise InvalidParams(
            f"operator of shape {u.shape} on {targets} is not a one-qubit "
            "unitary or CNOT")
    return _run_matrix(plan, rho)


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
    a whole batch shares. `flips[t][k]` is the tuple of CNOTs (control,
    target) of cycle k in trial t, as `read_letters` writes it: one list per
    trial of letters, or one list that every trial shares. `twirl` is a
    `compiling.Twirl` if compiled for randomized compiling.

    The plan cuts its cycles into `segments` (start, stop): one opens on
    cycle 0 and on every cycle where some trial has a CNOT, and runs that
    cycle's CNOTs, then per qubit one map composed over cycles start..stop-1.
    Each distinct set of flips is coded once, in order of first use:
    `flip_sets[0]` is (), and `flip_codes[k, t]` is the code of segment k in
    flip list t. A count of flip lists neither 1 nor len(letters), a list
    that is not one set per cycle, or a flip that is not two distinct qubits
    below n_qubits raises InvalidParams."""

    n_qubits: int
    letters: np.ndarray
    unitaries: np.ndarray
    flips: list
    twirl: object = None
    ptms: np.ndarray = field(init=False)  # R(u (x) conj(u)) per letter
    segments: tuple = field(init=False)
    flip_sets: tuple = field(init=False)
    flip_codes: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ptms",
                           pauli_transfer(pair_superoperator(self.unitaries)))
        trials, depth = self.letters.shape[:2]
        sizes = [len(f) for f in self.flips]
        if len(sizes) not in (1, trials) or set(sizes) - {depth}:
            raise InvalidParams(
                f"flip lists of {sizes} sets: {trials} trials of {depth} "
                f"cycles need 1 or {trials} lists of {depth}")
        starts = [k for k in range(depth)
                  if not k or any(f[k] for f in self.flips)]
        index = {(): 0}
        codes = [index.setdefault(f[k], len(index))
                 for k in starts for f in self.flips]
        object.__setattr__(self, "segments",
                           tuple(zip(starts, starts[1:] + [depth])))
        object.__setattr__(self, "flip_sets", tuple(index))
        object.__setattr__(self, "flip_codes", np.array(
            codes, dtype=np.intp).reshape(len(starts), len(self.flips)))
        bad = {g for f in index for g in f} - set(
            itertools.permutations(range(self.n_qubits), 2))
        if not bad:  # (0.0, 1) == (0, 1): check a flip per type of qubit
            kinds = {type(q): g for flips in self.flips
                     for f in flips for g in f for q in g}
            bad = {g for g in kinds.values() if not all(map(is_integer, g))}
        if bad:
            raise InvalidParams(f"flip {next(iter(bad))} is not a CNOT on "
                                f"two of {self.n_qubits} qubits")

    def _compose(self, noise: NoiseModel = NoNoise(), seeds=None,
                 ket: bool = False) -> np.ndarray:
        """Each segment's map per qubit, (trial, segment, qubit, d, d): real
        4x4 Pauli transfer matrices R(N) R(u (x) conj(u)), or with `ket` the
        2x2 unitaries (noise-free). One trial per row of `letters`, or a
        twirled trial per seed with its closing frame composed in.

        A segment of several cycles multiplies its maps as two-cycle words:
        cycles start + 2i and start + 2i + 1, with letters (a, b), are the
        one map T[b] T[a], and an odd segment's last cycle stands alone as
        T[a]. A batch of at least 2 U^2 words, counted over every trial and
        qubit (U letters), multiplies each
        letter pair that occurs once, over the codes a U + b marked in a
        U^2-long table; a smaller batch multiplies each word as it stands,
        so no array outgrows the words. The words then compose with one
        batched product per word."""
        letters, frames = self.letters, None
        if seeds is not None:
            merged, frames = self.twirl.sample([self.twirl.draw(s) for s in seeds])
            letters = np.repeat(letters, len(merged), axis=0)
            letters[:, self.twirl.easy] = merged
        frame_maps = self.unitaries if ket else self.ptms
        table = frame_maps
        if not isinstance(noise, NoNoise):
            table = noise.ptm @ frame_maps
        if frames is None and all(b - a == 1 for a, b in self.segments):
            return table[letters]  # segment k is cycle k
        # Cycles k and k + 1 of a segment pair up into one word, T[b] T[a]
        # for letters (a, b); an odd segment's last cycle stands alone.
        u, d = len(table), table.shape[-1]
        first, lone, spans = [], [], []
        for start, stop in self.segments:
            odd = (stop - start) % 2
            spans.append((len(first), (stop - start) // 2,
                          len(lone) if odd else None))
            first += range(start, stop - odd, 2)
            lone += [stop - 1] * odd
        # Letters (cycle, trial, qubit) of each word's first cycle, then of
        # each word's second cycle, then of the lone cycles.
        nw = len(first)
        picked = letters.swapaxes(0, 1).take(
            first + [k + 1 for k in first] + lone, axis=0)
        # RB's random letters ran faster word by word up to about 2 U^2
        # words; the RC batches, which repeat 97-99.8% of their pairs, have
        # far more.
        if nw * len(letters) * self.n_qubits < 2 * u * u:
            maps = table.take(picked, axis=0)
            word_maps, lone_maps = maps[nw:2 * nw] @ maps[:nw], maps[2 * nw:]
        else:
            codes = picked[:nw] * u + picked[nw:2 * nw]
            slot = np.zeros(u * u, dtype=np.intp)
            slot[codes] = 1  # marks the codes present, then holds their slots
            (pairs,) = slot.nonzero()
            slot[pairs] = np.arange(len(pairs))
            a, b = np.divmod(pairs, u)
            word_maps = (table[b] @ table[a]).take(slot.take(codes), axis=0)
            lone_maps = table.take(picked[2 * nw:], axis=0)
        segs = []
        for w, n_words, k in spans:
            m = word_maps[w] if n_words else lone_maps[k]
            for i in range(w + 1, w + n_words):
                m = word_maps[i] @ m
            if n_words and k is not None:
                m = lone_maps[k] @ m
            segs.append(m)
        if frames is not None and segs:
            segs[-1] = frame_maps[frames] @ segs[-1]
        segs = np.array(segs).reshape(len(segs), len(letters), self.n_qubits, d, d)
        return segs.swapaxes(0, 1)

    def run(self, states: np.ndarray, noise: NoiseModel = NoNoise(),
            seeds=None) -> np.ndarray:
        """A batch of states through the plan, under `noise` after every
        cycle, returned in the same form as a fresh array: real Pauli vectors
        (T, 4^n) float64 (`to_pauli`) under the maps of `_compose`, or kets
        (T, 2^n) noise-free. Any other shape or dtype raises WidthMismatch, a
        non-finite Pauli vector InvalidState, and an empty batch, a noise
        that is not a NoiseModel or noisy kets InvalidParams. One trial for
        every state or one per state.

        Per segment, one gather and one kernel pass on a slice of the batch
        (at most _SLICE_BYTES, one state at least, so it stays in cache); a
        map that is exactly the identity for every trial is skipped. A shared
        flip list gathers the slice by its one cached order; one list per
        trial gathers it in one flat take through a table of the orders (and
        Pauli signs) of all `flip_sets`, stacked once per call."""
        n = self.n_qubits
        ket = states.shape[1:] == (2 ** n,)
        pauli = states.shape[1:] == (4 ** n,) and states.dtype == np.float64
        if not (ket or pauli):
            raise WidthMismatch(
                f"batch {states.shape} of {states.dtype} is neither kets "
                f"(T, {2 ** n}) nor float64 Pauli vectors (T, {4 ** n})")
        if not len(states):
            raise InvalidParams("empty batch: run needs at least one state")
        if not isinstance(noise, NoiseModel):
            raise InvalidParams(f"noise {noise!r} is not a NoiseModel")
        noise = noise.validate()
        if ket and not isinstance(noise, NoNoise):
            raise InvalidParams(f"kets run noise-free, not under {noise!r}")
        if seeds is not None and self.twirl is None:
            raise InvalidParams("seeds draw twirls; compile the plan with rc")
        if pauli and not np.isfinite(states).all():
            raise InvalidState("a Pauli vector of the batch is not finite")
        maps = self._compose(noise, seeds, ket=ket)
        if len(maps) not in (1, len(states)):
            raise InvalidParams(
                f"{len(maps)} trials of maps for a batch of {len(states)} states")
        idle = (maps == np.eye(maps.shape[-1])).all(axis=(0, -2, -1)).tolist()
        sets, per_trial = self.flip_sets, len(self.flips) > 1
        if per_trial:
            orders, signs = zip(*(_flip_order(f, n, pauli) for f in sets))
            orders = np.stack(orders)
            signs = np.stack(signs) if pauli else None
        step = max(1, _SLICE_BYTES // states[0].nbytes)
        out = []
        for lo in range(0, len(states), step):
            trials = slice(lo, lo + step)
            w = states[trials]
            if per_trial:
                offsets = np.arange(0, w.size, w.shape[1])[:, None]
            for codes, seg, skip in zip(self.flip_codes,
                                        maps.swapaxes(0, 1), idle):
                codes = codes[trials] if per_trial else codes
                if len(codes) == 1:  # one order for every trial
                    if codes[0]:
                        order, sign = _flip_order(sets[codes[0]], n, pauli)
                        w = w.take(order, axis=1)
                        if pauli:
                            w *= sign
                else:  # each trial's own order (code 0: the identity)
                    w = w.reshape(-1).take(orders.take(codes, axis=0) + offsets)
                    if pauli:
                        w *= signs.take(codes, axis=0)
                w = apply_superoperators(
                    w, [None if s else m[trials] if len(m) > 1 else m
                        for m, s in zip(seg.swapaxes(0, 1), skip)])
            out.append(w)
        out = out[0] if len(out) == 1 else np.concatenate(out)
        # A plan of skipped maps and no flips would hand back the input.
        return out.copy() if np.may_share_memory(out, states) else out


# A 32-state batch of 8-qubit Pauli vectors (16 MB) ran 1.7 times as slow as
# slices of 2 MB (1 or 4 MB within 8%), the L2 of one core of a 2-core Xeon.
_SLICE_BYTES = 2 ** 21


def read_letters(circ: Circuit) -> tuple[np.ndarray, list, tuple]:
    """The circuit as a letters triple, the one form that plans, lowering and
    interleaving read: letters (cycle, qubit) indexing keys, the (name, angle)
    of each distinct one-qubit gate with PLAN_LETTERS first (0: idle, CNOT
    qubits too), and per cycle a tuple of its CNOTs (control, target)."""
    index = {(name, None): k for k, name in enumerate(PLAN_LETTERS)}
    letters = [[0] * circ.n_qubits for _ in circ.cycles]
    flips = []
    for k, cycle in enumerate(circ.cycles):
        pairs = []
        for g in cycle.gates:
            if len(g.qubits) > 1:
                pairs.append(g.qubits)
            else:
                key = (g.name, g.angle)
                letters[k][g.qubits[0]] = index.setdefault(key, len(index))
        flips.append(tuple(pairs))
    letters = np.array(letters, dtype=np.intp).reshape(circ.depth, circ.n_qubits)
    return letters, flips, tuple(index)


def plan_of(n: int, letters: np.ndarray, flips, keys,
            rc: bool = False) -> CircuitPlan:
    """The one-trial `CircuitPlan` of a letters triple (see `read_letters`),
    with its randomized-compiling tables if rc (see `compile_plan`)."""
    from .compiling import Twirl  # compiling imports this module

    unitaries = [FIXED_MATRICES[name] if angle is None
                 else Gate(name, (0,), angle).matrix() for name, angle in keys]
    return CircuitPlan(n, letters[None], np.stack(unitaries), [flips],
                       Twirl.of_plan(letters, flips, keys) if rc else None)


def circuit_of(n: int, letters: np.ndarray, flips, keys,
               gate_set: str | None = None) -> Circuit:
    """The circuit of a letters triple: per cycle its CNOTs, then the gate
    of each qubit that is not idle, ascending."""
    cycles = []
    for row, pairs in zip(letters.tolist(), flips):
        gates = [Gate.cnot(*pair) for pair in pairs]
        gates += [Gate(keys[k][0], (q,), keys[k][1])
                  for q, k in enumerate(row) if k]
        cycles.append(Cycle(tuple(gates)))
    return Circuit(n, tuple(cycles), gate_set)


def compile_plan(circ: Circuit, rc: bool = False) -> CircuitPlan:
    """Read the circuit into a one-trial `CircuitPlan`, with its
    randomized-compiling tables read off the plan's letters if rc (then it
    must be Clifford+T and idle-interleaved; see `interleave_idle`)."""
    return plan_of(circ.n_qubits, *read_letters(circ), rc)


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
    return DensityMatrix(_run_matrix(plan, state.matrix, noise,
                                     [seed] if rc else None))


def _run_matrix(plan: CircuitPlan, rho: np.ndarray,
                noise: NoiseModel = NoNoise(), seeds=None) -> np.ndarray:
    """One density matrix through `plan.run` as its Pauli vector, the only
    place a matrix enters or leaves the simulator. One of another width
    raises WidthMismatch; one not Hermitian within HERMITICITY_TOL, or with a
    NaN, raises NotHermitian: a real Pauli vector cannot hold it."""
    n = plan.n_qubits
    if rho.shape != (2 ** n, 2 ** n):
        raise WidthMismatch(f"matrix of shape {rho.shape} on {n} qubits")
    if not is_hermitian(rho):  # a NaN fails too
        raise NotHermitian("density matrix is not Hermitian")
    return from_pauli(plan.run(to_pauli(rho[None], n), noise, seeds)[0], n)


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
# The Pauli vectors `run` moves density states as, and its two kernels.

# CNOT sign on the output's (control, target) digits: -1 at x_c z_t (1^x_t^z_c).
_X, _Z = np.arange(4) & 1, np.arange(4) >> 1
_CNOT_SIGN = 1.0 - 2 * (_X[:, None] * _Z * (1 ^ _X ^ _Z[:, None]))


@functools.lru_cache(maxsize=64)
def _flip_order(flips: tuple, n: int, pauli: bool) -> tuple:
    """(order, sign): sign * v[order] is v after the CNOTs `flips`, each a
    (control, target) pair. On a ket (sign None) the target flips where the
    control is 1. On a Pauli vector (a CNOT maps Pauli strings to signed
    ones: Gottesman, quant-ph/9807006) the target's x flips where the
    control's x is 1, and the control's z where the target's z is 1."""
    bits = 2 * n if pauli else n
    order = np.arange(2 ** bits, dtype=np.int32)
    t = order.reshape((2,) * bits)
    sign = np.ones(4 ** n) if pauli else None
    for c, target in flips:
        moves = [(c, target)]
        if pauli:  # bits (z, x) per qubit: digit x + 2z
            moves = [(2 * c + 1, 2 * target + 1), (2 * target, 2 * c)]
            np.moveaxis(sign.reshape((4,) * n), (c, target), (0, 1))[...] *= (
                _CNOT_SIGN.reshape((4, 4) + (1,) * (n - 2)))
        for where, axis in moves:  # flip bit `axis` where bit `where` is 1
            idx = [slice(None)] * bits
            idx[where] = slice(1, 2)
            w = t[tuple(idx)]
            w[...] = np.flip(w, axis=axis)
    order.flags.writeable = False
    if pauli:
        sign.flags.writeable = False
    return order, sign


def to_pauli(rho: np.ndarray, n: int) -> np.ndarray:
    """rho as its real Pauli vector, (T, 4^n) for a batch (T, 2^n, 2^n):
    entry sum_q p_q 4^(n-1-q) is Tr(P rho) / 2^n for the Pauli string with
    code p_q = x + 2z (I, X, Z, Y) on qubit q, qubit 0 most significant: the
    paired gather and one B^-1 pass, less its imaginary part (0 if Hermitian)."""
    paired = np.take(rho.reshape(rho.shape[:-2] + (4 ** n,)),
                     _paired_order(n)[0], axis=-1)
    return apply_superoperators(paired, [PAULI_INV] * n).real.copy()


def from_pauli(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of `to_pauli`: the 2^n x 2^n matrix, or one per batch row."""
    paired = apply_superoperators(v, [PAULI_BASIS] * n)
    return np.take(paired, _paired_order(n)[1], axis=-1).reshape(
        v.shape[:-1] + (2 ** n, 2 ** n))


def product_pauli(factors: np.ndarray) -> np.ndarray:
    """Pauli vectors (T, 4^n) of the product kets given qubit by qubit as
    factors (T, n, 2), qubit 0 first: the Kronecker product of each qubit's
    (1, x, z, y) / 2 for its Bloch vector (x, y, z), so `to_pauli` of the
    kets' projectors without building them."""
    a, b = factors[..., 0], factors[..., 1]
    pa, pb, ab = np.abs(a) ** 2, np.abs(b) ** 2, a.conj() * b
    qubits = np.stack([pa + pb, 2 * ab.real, pa - pb, 2 * ab.imag], axis=-1) / 2
    v = qubits[:, 0]
    for q in range(1, qubits.shape[1]):
        v = (v[:, :, None] * qubits[:, q, None, :]).reshape(len(v), -1)
    return v


# Walsh-Hadamard step: (-1)^(z b) from a qubit's z bit to its basis bit b.
_WALSH = np.array([[1.0, 1.0], [1.0, -1.0]])


def pauli_diagonals(v: np.ndarray, n: int) -> np.ndarray:
    """Diagonals (T, 2^n) of the density matrices with Pauli vectors v
    (T, 4^n): rho_bb = sum_z r_z (-1)^(z . b) over the 2^n Z-type strings
    (x bits all 0), one +-1 pass of the kernel."""
    z_type = v.reshape((-1,) + (2, 2) * n)[(slice(None),) + (slice(None), 0) * n]
    return apply_superoperators(z_type.reshape(-1, 2 ** n), [_WALSH] * n)


def pauli_fidelities(v: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Re <psi| rho |psi> per trial, for Pauli vectors v (T, 4^n) and kets
    (T, 2^n): 2^n sum_P r_P s_P, with s the kets' Pauli vectors."""
    n = kets.shape[-1].bit_length() - 1
    s = to_pauli(kets[:, :, None] * kets.conj()[:, None, :], n)
    return 2 ** n * np.einsum("tp,tp->t", v, s)


@functools.lru_cache(maxsize=8)
def _paired_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int32 gathers from a matrix to its paired layout, axes
    (r0, c0, r1, c1, ...), and back, built once per n."""
    axes = [a for q in range(n) for a in (q, n + q)]
    digits = np.arange(4 ** n, dtype=np.int32).reshape((2,) * (2 * n))
    to = digits.transpose(axes).ravel()
    back = digits.transpose(np.argsort(axes)).ravel()
    to.flags.writeable = back.flags.writeable = False
    return to, back


def apply_superoperators(v: np.ndarray, maps) -> np.ndarray:
    """Apply maps[q] to qubit q of a state, for every qubit.

    v is one state or a batch (T, d^n) of them: Pauli vectors (4x4 maps; see
    `to_pauli`) or kets (2x2 maps). maps[q] is one (d, d) map for every
    state, a (T, d, d) stack with one per state, or None for the identity.

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
