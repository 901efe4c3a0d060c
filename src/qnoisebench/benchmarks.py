"""Benchmark circuit constructors and the max-cut scoring function."""

from __future__ import annotations

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
from .errors import InvalidParams
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


def build_benchmark(bench_id: str, depth: int | None = None,
                    seed=None) -> Circuit:
    """Construct the named benchmark. `depth` applies to the sweepable
    circuits (idle, random) and is rejected elsewhere; `seed` feeds the
    random circuit only."""
    if bench_id not in BENCHMARKS:
        raise InvalidParams(f"unknown benchmark {bench_id!r}")
    spec = BENCHMARKS[bench_id]
    if spec.depth_range is None:
        if depth is not None:
            raise InvalidParams(f"{bench_id} has a fixed construction depth")
    else:
        if depth is None:
            raise InvalidParams(f"{bench_id} needs a depth")
        lo, hi = spec.depth_range
        if not lo <= depth <= hi:
            raise InvalidParams(
                f"depth {depth} outside {bench_id} range {lo}..{hi}")
    if bench_id == "idle":
        return build_idle(spec.n_qubits, depth)
    if bench_id == "random":
        return build_random(spec.n_qubits, depth, seed=seed)
    if bench_id == "adder":
        return build_adder()
    if bench_id == "qft":
        return build_qft(4)
    if bench_id == "qaoa":
        return build_qaoa(MaxCutGraph.hypercube(), QAOA_BETA_STAR,
                          QAOA_GAMMA_STAR)
    return circuit_of(spec.n_qubits, *_lowered(bench_id), CLIFFORD_T)


def benchmark_plan(bench_id: str, depth: int | None = None,
                   rc: bool = False) -> CircuitPlan:
    """`compile_plan(build_benchmark(bench_id, depth), rc)`, but qft_ct and
    qaoa_ct go from the letters of their parametric builds to the plan with
    no lowered circuit built."""
    if bench_id in ("qft_ct", "qaoa_ct") and depth is None:
        return plan_of(BENCHMARKS[bench_id].n_qubits, *_lowered(bench_id), rc)
    return compile_plan(build_benchmark(bench_id, depth), rc)


def _lowered(bench_id: str) -> tuple[np.ndarray, list, tuple]:
    # qft_ct's or qaoa_ct's letters: its parametric build, lowered.
    return _finish(*lower_letters(*read_letters(build_benchmark(
        bench_id.removesuffix("_ct")))))


def _finish(letters, flips, keys) -> tuple[np.ndarray, list, tuple]:
    # Interleave so no two hard cycles touch, and end on an idle slot so
    # randomized compiling refreshes its twirl right before measurement.
    letters, flips, keys = interleave_letters(letters, flips, keys)
    return np.pad(letters, ((0, 1), (0, 0))), flips + [()], keys


# ---------------------------------------------------------------------------
# Idle and random circuits.


def build_idle(n: int, depth: int) -> Circuit:
    """depth cycles with no gates at all."""
    if n < 1 or depth < 1:
        raise InvalidParams("idle circuit needs n >= 1 and depth >= 1")
    return Circuit(n, (Cycle(),) * depth, CLIFFORD_T)


_RANDOM_SINGLES = ("i", "x", "y", "z", "h")
_RANDOM_UNITARIES = np.stack([FIXED_MATRICES[name] for name in _RANDOM_SINGLES])
# A random circuit's letter keys, and the letter of each of _RANDOM_SINGLES.
_RANDOM_KEYS = tuple((name, None) for name in PLAN_LETTERS + ("h",))
_RANDOM_LETTERS = np.array([0, 1, 3, 2, 6])
CNOT_CYCLE_PROB = 0.25


class _RawDraws:
    """numpy `Generator` draws from raw PCG64 words fetched `size` at a time,
    by numpy's samplers: `random()` is a word's top 53 bits over 2^53;
    `bounded(r)`, over 0..r, is none for r = 0, else Lemire's multiply-shift
    with rejection (arXiv:1805.10941) on a 32-bit draw: a word's low half,
    whose high half waits for the next one, across `random()` calls."""

    def __init__(self, bitgen, size: int):
        self.bitgen, self.size, self.words, self.high = bitgen, size, [], None

    def word(self) -> int:
        if not self.words:
            self.words = self.bitgen.random_raw(self.size).tolist()[::-1]
        return self.words.pop()

    def random(self) -> float:
        return (self.word() >> 11) * 2.0 ** -53

    def bounded(self, r: int) -> int:
        while r:
            if self.high is None:
                u = self.word()
                u, self.high = u & 0xFFFFFFFF, u >> 32
            else:
                u, self.high = self.high, None
            if u * (r + 1) & 0xFFFFFFFF >= (0xFFFFFFFF - r) % (r + 1):
                return u * (r + 1) >> 32
        return 0


def _draw_random(n: int, depth: int, seed) -> tuple[list, list]:
    """The draws of one random circuit: per cycle, each qubit's index into
    _RANDOM_SINGLES (0 on the CNOT's qubits) and the CNOT as flips,
    ((a, b),) or (). Per cycle, `default_rng(seed)`'s `random()`, then
    `choice(n, 2, replace=False)` if below CNOT_CYCLE_PROB, and `integers(5)`
    per other qubit: a word and at most n + 1 halves, so the first block of
    words runs out only after a rejection."""
    if n < 2:
        raise InvalidParams("random circuit needs n >= 2")
    draws = _RawDraws(pcg64(seed), depth * (n + 3) // 2 + 4)
    top = len(_RANDOM_SINGLES) - 1
    singles, flips = [], []
    for _ in range(depth):
        pair = ()
        if draws.random() < CNOT_CYCLE_PROB:
            # Floyd's sampler of two, then a shuffle that swaps on a 0
            a, b = draws.bounded(n - 2), draws.bounded(n - 1)
            b = n - 1 if b == a else b
            pair = (a, b) if draws.bounded(1) else (b, a)
        singles.append([0 if q in pair else draws.bounded(top)
                        for q in range(n)])
        flips.append((pair,) if pair else ())
    return singles, flips


def random_letters(n: int, depth: int, seed) -> tuple[np.ndarray, list, tuple]:
    """The letters triple (see `circuits.read_letters`) of the random
    circuit `build_random` draws from `seed`."""
    singles, flips = _draw_random(n, depth, seed)
    letters = _RANDOM_LETTERS[np.array(singles, dtype=np.intp).reshape(depth, n)]
    return letters, flips, _RANDOM_KEYS


def build_random(n: int, depth: int, seed=None) -> Circuit:
    """Random cycles over {i, x, y, z, h} with occasional CNOT pairs.

    Each cycle places one CNOT on a random disjoint pair with probability
    0.25; every remaining qubit draws uniformly from the single-qubit set.
    """
    return circuit_of(n, *random_letters(n, depth, seed), CLIFFORD_T)


def random_plan(n: int, depth: int, seeds) -> CircuitPlan:
    """The circuits `build_random` draws from `seeds`, one trial each, as one
    plan: letters (trial, cycle, qubit) indexing _RANDOM_SINGLES, and one
    segment per cycle, whose CNOT flips are each trial's own."""
    draws = [_draw_random(n, depth, s) for s in seeds]
    letters = np.array([singles for singles, _ in draws],
                       dtype=np.intp).reshape(len(draws), depth, n)
    segments = tuple((k, k + 1, tuple(flips[k] for _, flips in draws))
                     for k in range(depth))
    return CircuitPlan(n, letters, _RANDOM_UNITARIES, segments)


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


def build_adder(bits: int = 2) -> Circuit:
    """Ripple adder over Clifford+T; b register receives a+b on basis inputs."""
    if bits < 1:
        raise InvalidParams("adder needs bits >= 1")
    n = 3 * bits + 1
    cycles: list[Cycle] = []
    for op in _adder_abstract_gates(bits):
        if op[0] == "cnot":
            cycles.append(Cycle((Gate.cnot(op[1], op[2]),)))
        else:
            cycles.extend(toffoli_decomposition(op[1], op[2], op[3], n).cycles)
    return circuit_of(n, *_finish(*read_letters(Circuit(n, cycles))),
                      CLIFFORD_T)


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
    if n < 1:
        raise InvalidParams("qft needs n >= 1")
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
    if p < 1:
        raise InvalidParams("qaoa needs p >= 1")
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
    all gammas at once. Returns (beta, gamma, expectation).
    """
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
