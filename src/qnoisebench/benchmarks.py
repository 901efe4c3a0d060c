"""Benchmark circuit constructors and the max-cut scoring function."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (CLIFFORD_T, PARAM_ROTATIONS, PLAN_LETTERS, Circuit,
                       CircuitPlan, Cycle, circuit_of, compile_plan, plan_of,
                       read_letters, toffoli_decomposition)
# to_clifford_t and interleave_idle are not called here, but
# perfbench/tracer.py times the lowering under this module's names, so the
# names stay importable from it.
from .compiling import (interleave_idle, interleave_letters,  # noqa: F401
                        lower_controlled_rz, lower_letters, to_clifford_t)
from .errors import InvalidParams, is_integer, is_real
from .gates import FIXED_MATRICES, Gate
from .states import pcg64


# ---------------------------------------------------------------------------
# Benchmark registry.


@dataclass(frozen=True)
class BenchmarkSpec:
    id: str
    n_qubits: int
    depth_range: tuple[int, int] | None   # sweepable benchmarks only
    gate_set: str
    metric: str                # "process_fidelity" or "expectation_value"


BENCHMARKS = {
    "idle": BenchmarkSpec("idle", 4, (2, 70), CLIFFORD_T, "process_fidelity"),
    "random": BenchmarkSpec("random", 4, (2, 70), CLIFFORD_T,
                            "process_fidelity"),
    "adder": BenchmarkSpec("adder", 7, None, CLIFFORD_T, "process_fidelity"),
    "qft": BenchmarkSpec("qft", 4, None, PARAM_ROTATIONS, "process_fidelity"),
    "qft_ct": BenchmarkSpec("qft_ct", 4, None, CLIFFORD_T,
                            "process_fidelity"),
    "qaoa": BenchmarkSpec("qaoa", 8, None, PARAM_ROTATIONS,
                          "expectation_value"),
    "qaoa_ct": BenchmarkSpec("qaoa_ct", 8, None, CLIFFORD_T,
                             "expectation_value"),
}


def benchmark_letters(bench_id: str, depth: int | None = None,
                      seed=None) -> tuple[np.ndarray, list, tuple]:
    """The letters triple (see `circuits.read_letters`) of the named
    benchmark. `depth` applies to the sweepable circuits (idle, random) and
    is rejected elsewhere; `seed` feeds the random circuit only. qft_ct and
    qaoa_ct are the lowered, closed letters of their parametric builds."""
    if not isinstance(bench_id, str) or bench_id not in BENCHMARKS:
        raise InvalidParams(f"unknown benchmark {bench_id!r}")
    spec = BENCHMARKS[bench_id]
    if spec.depth_range is None:
        if depth is not None:
            raise InvalidParams(f"{bench_id} has a fixed construction depth")
    else:
        lo, hi = spec.depth_range
        if not is_integer(depth) or not lo <= depth <= hi:
            raise InvalidParams(
                f"{bench_id} needs an integer depth in {lo}..{hi}, "
                f"not {depth!r}")
    n = spec.n_qubits
    if bench_id == "random":
        return random_letters(n, depth, seed)
    if bench_id == "adder":
        return _adder_letters(2)
    if bench_id in ("qft_ct", "qaoa_ct"):
        return _finish(*lower_letters(*benchmark_letters(
            bench_id.removesuffix("_ct"))))
    if bench_id == "idle":
        return read_letters(build_idle(n, depth))
    if bench_id == "qft":
        return read_letters(build_qft(n))
    return read_letters(build_qaoa(MaxCutGraph.hypercube(), QAOA_BETA_STAR,
                                   QAOA_GAMMA_STAR))


def build_benchmark(bench_id: str, depth: int | None = None,
                    seed=None) -> Circuit:
    """The named benchmark's circuit (see `benchmark_letters`)."""
    letters, flips, keys = benchmark_letters(bench_id, depth, seed)
    return circuit_of(letters.shape[1], letters, flips, keys,
                      BENCHMARKS[bench_id].gate_set)


def benchmark_plan(bench_id: str, depth: int | None = None,
                   rc: bool = False) -> CircuitPlan:
    """`compile_plan(build_benchmark(bench_id, depth), rc)`, with no circuit
    written from the letters. A random circuit needs its seeds, so "random"
    raises InvalidParams: its plans come from `random_plan`."""
    if bench_id == "random":
        raise InvalidParams("benchmark_plan draws no random circuit: plan it "
                            "with random_plan(n, depth, seeds)")
    letters, flips, keys = benchmark_letters(bench_id, depth)
    return plan_of(letters.shape[1], letters, flips, keys, rc)


def _finish(letters, flips, keys) -> tuple[np.ndarray, list, tuple]:
    # Interleave so no two hard cycles touch, and end on an idle slot so
    # randomized compiling refreshes its twirl right before measurement.
    letters, flips, keys = interleave_letters(letters, flips, keys)
    return np.pad(letters, ((0, 1), (0, 0))), flips + [()], keys


# ---------------------------------------------------------------------------
# Idle and random circuits.


def build_idle(n: int, depth: int) -> Circuit:
    """depth cycles with no gates at all."""
    if not (is_integer(n) and is_integer(depth)) or n < 1 or depth < 1:
        raise InvalidParams(
            f"idle circuit needs integers n >= 1 and depth >= 1, not {n!r} "
            f"and {depth!r}")
    return Circuit(n, (Cycle(),) * depth, CLIFFORD_T)


_RANDOM_SINGLES = ("i", "x", "y", "z", "h")
# A random circuit's letter keys, their unitaries, and the letter of each of
# _RANDOM_SINGLES.
_RANDOM_KEYS = tuple((name, None) for name in PLAN_LETTERS + ("h",))
_RANDOM_UNITARIES = np.stack([FIXED_MATRICES[name] for name, _ in _RANDOM_KEYS])
_RANDOM_LETTERS = np.array([0, 1, 3, 2, 6])
CNOT_CYCLE_PROB = 0.25


def _check_random_size(n, depth) -> None:
    if not (is_integer(n) and is_integer(depth)) or n < 2 or depth < 1:
        raise InvalidParams(
            f"random circuit needs integers n >= 2 and depth >= 1, not "
            f"{n!r} and {depth!r}")


def _draw_random(n: int, depth: int, seed) -> tuple[list, list]:
    """The draws of one random circuit: per cycle, each qubit's index into
    _RANDOM_SINGLES (0 on the CNOT's qubits) and the CNOT as flips,
    ((a, b),) or (). Per cycle, a `Generator` over `pcg64(seed)` draws
    `random()`, then `choice(n, 2, replace=False)` if below CNOT_CYCLE_PROB,
    and `integers(5)` per other qubit. `_draw_chunk` draws the same for a
    whole chunk and calls this only for a trial with a rejected draw."""
    _check_random_size(n, depth)
    rng = np.random.Generator(pcg64(seed))
    kinds = len(_RANDOM_SINGLES)
    singles, flips = [], []
    for _ in range(depth):
        pair = ()
        if rng.random() < CNOT_CYCLE_PROB:
            pair = tuple(rng.choice(n, 2, replace=False).tolist())
        singles.append([0 if q in pair else int(rng.integers(kinds))
                        for q in range(n)])
        flips.append((pair,) if pair else ())
    return singles, flips


# `random()` is below CNOT_CYCLE_PROB exactly for the words below this one.
_CNOT_WORD = np.uint64(math.ceil(CNOT_CYCLE_PROB * 2 ** 53) << 11)
_HALF = np.uint64(0xFFFFFFFF)


def _draw_chunk(n: int, depth: int, seeds) -> tuple[np.ndarray, list]:
    """`_draw_random` for every seed at once: the letters (T, depth, n) and
    each trial's flips. One block of raw words per seed, walked for all
    trials together: cycle k's `random()` reads word k + (S + 1) // 2 after
    S halves, and half j of cycle k is the low (j even) or high (j odd) half
    of word j // 2 + k + 1, or of word j // 2 + k if its low half went to
    cycle k - 1. A trial with a rejected bounded draw, about 2^-32 per draw,
    is drawn again by numpy's own calls in `_draw_random` (a seed of None:
    from new entropy)."""
    _check_random_size(n, depth)
    seeds = list(seeds)
    if not seeds:
        raise InvalidParams("a random chunk needs at least one seed")
    size = depth * (n + 3) // 2 + 4
    raw = np.array([pcg64(s).random_raw(size) for s in seeds], dtype=np.uint64)
    # A CNOT cycle makes `wide` 32-bit draws (Floyd's first draws nothing at
    # n = 2), any other cycle n. `bounds` holds each draw's bound in either
    # kind of cycle; `flip_table[1 + a * n + b]` is ((a, b),).
    wide = n + (n > 2)
    top = len(_RANDOM_SINGLES) - 1
    floyd = [n - 2, n - 1, 1] if n > 2 else [1, 1]
    bounds = np.array([[top] * wide, floyd + [top] * (wide - len(floyd))],
                      dtype=np.uint64)
    flip_table = ((),) + tuple(((a, b),) for a in range(n) for b in range(n))
    rows = np.arange(len(seeds))
    starts = np.empty((depth, len(seeds)), dtype=np.intp)
    cnot = np.empty((depth, len(seeds)), dtype=bool)
    used = np.zeros(len(seeds), dtype=np.intp)
    word_cnot, first = (raw < _CNOT_WORD).ravel(), rows * size
    for k in range(depth):
        starts[k] = used
        cnot[k] = word_cnot[first + k + (used + 1) // 2]
        used += n + (wide - n) * cnot[k]
    starts, cnot = starts.T[..., None], cnot.T[..., None]
    # Every half a cycle could draw, then Lemire's test on the ones it does.
    half = starts + np.arange(wide)
    word = (half // 2 + np.arange(1, depth + 1)[:, None]
            - (half // 2 * 2 < starts))
    u = (raw[rows[:, None, None], word]
         >> (half & 1).astype(np.uint64) * 32) & _HALF
    r = bounds[cnot[..., 0].astype(np.intp)]
    m = u * (r + 1)
    rejected = ((m & _HALF) < (_HALF - r) % (r + 1)) & (
        np.arange(wide) < n + (wide - n) * cnot)
    v = (m >> 32).astype(np.intp)
    # Floyd's pair and swap, then the singles on the other qubits in order.
    off = wide - n
    a = v[..., :1] if off else np.zeros_like(v[..., :1])
    b, swap = v[..., off:off + 1], v[..., off + 1:off + 2]
    b = np.where(b == a, n - 1, b)
    a, b = np.where(swap == 1, a, b), np.where(swap == 1, b, a)
    q = np.arange(n)
    pair = cnot & ((q == a) | (q == b))
    slot = np.where(cnot, off + 2 + q - (a < q) - (b < q), q)
    singles = np.take_along_axis(v, np.where(pair, 0, slot), axis=-1)
    letters = _RANDOM_LETTERS[np.where(pair, 0, singles)]
    codes = np.where(cnot[..., 0], 1 + a[..., 0] * n + b[..., 0], 0).tolist()
    flips = [[flip_table[c] for c in row] for row in codes]
    for t in np.flatnonzero(rejected.any(axis=(1, 2))):
        drawn, flips[t] = _draw_random(n, depth, seeds[t])
        letters[t] = _RANDOM_LETTERS[np.array(drawn, dtype=np.intp)]
    return letters, flips


def random_letters(n: int, depth: int, seed) -> tuple[np.ndarray, list, tuple]:
    """The letters triple (see `circuits.read_letters`) of the random
    circuit `build_random` draws from `seed`."""
    letters, flips = _draw_chunk(n, depth, [seed])
    return letters[0], flips[0], _RANDOM_KEYS


def build_random(n: int, depth: int, seed=None) -> Circuit:
    """Random cycles over {i, x, y, z, h} with occasional CNOT pairs.

    Each cycle places one CNOT on a random disjoint pair with probability
    0.25; every remaining qubit draws uniformly from the single-qubit set.
    """
    return circuit_of(n, *random_letters(n, depth, seed), CLIFFORD_T)


def random_plan(n: int, depth: int, seeds) -> CircuitPlan:
    """The circuits `build_random` draws from `seeds`, one trial each, as one
    plan: each trial's `random_letters` and its own CNOT flips."""
    letters, flips = _draw_chunk(n, depth, seeds)
    return CircuitPlan(n, letters, _RANDOM_UNITARIES, flips)


# ---------------------------------------------------------------------------
# Ripple-carry adder (3*bits + 1 qubits).
#
# Layout: qubit 3i is carry c_i, 3i+1 is a_i, 3i+2 is b_i (bit i is the
# least significant); qubit 3*bits is the high carry. The b register ends
# holding a+b (mod 2^bits) with the top sum bit in the high carry.


def _adder_abstract_gates(bits: int) -> list[tuple]:
    c = lambda i: 3 * i
    a = lambda i: 3 * i + 1
    b = lambda i: 3 * i + 2

    def carry(i):
        nxt = 3 * (i + 1)
        return [("toffoli", a(i), b(i), nxt), ("cnot", a(i), b(i)),
                ("toffoli", c(i), b(i), nxt)]

    def rcarry(i):
        nxt = 3 * (i + 1)
        return [("toffoli", c(i), b(i), nxt), ("cnot", a(i), b(i)),
                ("toffoli", a(i), b(i), nxt)]

    def total(i):
        return [("cnot", a(i), b(i)), ("cnot", c(i), b(i))]

    ops: list[tuple] = []
    for i in range(bits):
        ops.extend(carry(i))
    last = bits - 1
    ops.append(("cnot", a(last), b(last)))
    ops.extend(total(last))
    for i in range(bits - 2, -1, -1):
        ops.extend(rcarry(i))
        ops.extend(total(i))
    return ops


def _adder_letters(bits: int) -> tuple[np.ndarray, list, tuple]:
    if not is_integer(bits) or bits < 1:
        raise InvalidParams(f"adder needs an integer bits >= 1, not {bits!r}")
    n = 3 * bits + 1
    cycles: list[Cycle] = []
    for op in _adder_abstract_gates(bits):
        if op[0] == "cnot":
            cycles.append(Cycle((Gate.cnot(op[1], op[2]),)))
        else:
            cycles.extend(toffoli_decomposition(op[1], op[2], op[3], n).cycles)
    return _finish(*read_letters(Circuit(n, cycles)))


def build_adder(bits: int = 2) -> Circuit:
    """Ripple adder over Clifford+T; b register receives a+b on basis inputs."""
    letters, flips, keys = _adder_letters(bits)
    return circuit_of(letters.shape[1], letters, flips, keys, CLIFFORD_T)


def adder_input_index(a: int, b: int, bits: int = 2) -> int:
    """Basis index preparing the a and b registers with carries cleared."""
    if not (0 <= a < 2 ** bits and 0 <= b < 2 ** bits):
        raise InvalidParams(f"inputs {a}, {b} need {bits} bits")
    n = 3 * bits + 1
    index = 0
    for i in range(bits):
        if (a >> i) & 1:
            index |= 1 << (n - 1 - (3 * i + 1))
        if (b >> i) & 1:
            index |= 1 << (n - 1 - (3 * i + 2))
    return index


def adder_sum_from_index(index: int, bits: int = 2) -> int:
    """Read a+b back out of a measured basis index."""
    n = 3 * bits + 1
    total = 0
    for i in range(bits):
        if (index >> (n - 1 - (3 * i + 2))) & 1:
            total |= 1 << i
    if (index >> (n - 1 - 3 * bits)) & 1:
        total |= 1 << bits
    return total


# ---------------------------------------------------------------------------
# Quantum Fourier transform.


def build_qft(n: int) -> Circuit:
    """QFT as H plus controlled-Rz ladders, without terminal swaps.

    The parameterized unitary equals the DFT matrix with bit-reversed output
    order, up to global phase.
    """
    if not is_integer(n) or n < 1:
        raise InvalidParams(f"qft needs an integer n >= 1, not {n!r}")
    cycles: list[Cycle] = []
    for k in range(n):
        cycles.append(Cycle((Gate.h(k),)))
        for j in range(k + 1, n):
            angle = np.pi / 2 ** (j - k)
            cycles.extend(lower_controlled_rz(angle, j, k, n).cycles)
    return Circuit(n, tuple(cycles), PARAM_ROTATIONS)


# ---------------------------------------------------------------------------
# QAOA max-cut on the 3-regular 8-vertex hypercube graph.


@dataclass(frozen=True)
class MaxCutGraph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InvalidParams(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InvalidParams("self loops are not allowed")

    @classmethod
    def hypercube(cls) -> "MaxCutGraph":
        """Q3: 8 vertices, 3-regular, 12 edges, maximum cut 12."""
        edges = []
        for bit in range(3):
            for v in range(8):
                if not v & (1 << bit):
                    edges.append((v, v | (1 << bit)))
        return cls(8, tuple(edges))

    def matchings(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Edge partition into disjoint groups, one per hypercube direction."""
        groups = {}
        for u, v in self.edges:
            groups.setdefault((u ^ v).bit_length() - 1, []).append((u, v))
        return tuple(tuple(g) for _, g in sorted(groups.items()))


# Stationary point of the p=1 expectation 6 - 6 sin(2b) sin(g) cos^2(g):
# sin(2b) = -1 and tan(g) = 1/sqrt(2) on the mirror branch, worth 8.309401.
# optimize_qaoa_angles(resolution=0.01) lands on the same point.
QAOA_BETA_STAR = 3 * np.pi / 4
QAOA_GAMMA_STAR = np.pi - np.arctan(1 / np.sqrt(2))


def build_qaoa(graph: MaxCutGraph, beta: float, gamma_angle: float,
               p: int = 1) -> Circuit:
    """H layer, then p stages of per-edge phase terms plus an Rx mixer layer.

    Each edge term is CNOT, Rz(gamma) on the target, CNOT, which applies a
    phase of gamma exactly when the edge endpoints differ; edges in the same
    matching run in parallel cycles.
    """
    if not is_integer(p) or p < 1:
        raise InvalidParams(f"qaoa needs an integer p >= 1, not {p!r}")
    n = graph.n_vertices
    cycles: list[Cycle] = [Cycle(tuple(Gate.h(q) for q in range(n)))]
    for _ in range(p):
        for group in graph.matchings():
            cycles.append(Cycle(tuple(Gate.cnot(u, v) for u, v in group)))
            cycles.append(Cycle(tuple(Gate.rz(v, gamma_angle)
                                      for _, v in group)))
            cycles.append(Cycle(tuple(Gate.cnot(u, v) for u, v in group)))
        cycles.append(Cycle(tuple(Gate.rx(q, beta) for q in range(n))))
    return Circuit(n, tuple(cycles), PARAM_ROTATIONS)


def cut_sizes(graph: MaxCutGraph) -> np.ndarray:
    """Cut value of every bitstring; vertex v reads qubit v (MSB first)."""
    n = graph.n_vertices
    xs = np.arange(2 ** n)
    total = np.zeros(2 ** n, dtype=np.int64)
    for u, v in graph.edges:
        bu = (xs >> (n - 1 - u)) & 1
        bv = (xs >> (n - 1 - v)) & 1
        total += bu ^ bv
    return total


def maxcut_expectation(dist: np.ndarray, graph: MaxCutGraph) -> float:
    """Expected cut size of a measurement distribution."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.size != 2 ** graph.n_vertices:
        raise InvalidParams(
            f"distribution length {dist.size} does not match the graph")
    return float(dist @ cut_sizes(graph))


def optimize_qaoa_angles(resolution: float = 0.01) -> tuple[float, float, float]:
    """Grid search over [0, pi]^2 for the best p=1 angles on the hypercube.

    Works on kets: the cost layer is a diagonal phase by cut size, and each
    beta's mixer, one rx(beta) cycle, runs as a ket pass of its plan over
    all gammas at once. Returns (beta, gamma, expectation). A resolution
    that is not a finite real number > 0 raises InvalidParams.
    """
    if not is_real(resolution) or not 0 < resolution < math.inf:
        raise InvalidParams(
            f"resolution must be a finite real number > 0, not {resolution!r}")
    graph = MaxCutGraph.hypercube()
    n = graph.n_vertices
    dim = 2 ** n
    cuts = cut_sizes(graph)
    grid = np.arange(0.0, np.pi + resolution / 2, resolution)
    psi0 = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    # all gamma columns at once: rows indexed by gamma
    cost = np.exp(1j * np.outer(grid, cuts)) * psi0
    best = (-1.0, 0.0, 0.0)
    for beta in grid:
        mixer = Circuit(n, (Cycle(tuple(Gate.rx(q, beta) for q in range(n))),))
        values = np.abs(compile_plan(mixer).run(cost)) ** 2 @ cuts
        k = int(np.argmax(values))
        if values[k] > best[0]:
            best = (float(values[k]), float(beta), float(grid[k]))
    value, beta, gamma = best
    return beta, gamma, value
