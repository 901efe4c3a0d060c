"""Benchmark circuits against independent constructions and closed forms."""

import numpy as np
import pytest

from qnoisebench import benchmarks
from qnoisebench.benchmarks import (
    BENCHMARKS,
    QAOA_BETA_STAR,
    QAOA_GAMMA_STAR,
    MaxCutGraph,
    adder_input_index,
    adder_sum_from_index,
    benchmark_plan,
    build_adder,
    build_benchmark,
    build_idle,
    build_qaoa,
    build_qft,
    build_random,
    cut_sizes,
    maxcut_expectation,
    optimize_qaoa_angles,
    random_letters,
    random_plan,
)
from qnoisebench.circuits import (CLIFFORD_T, circuit_unitary, compile_plan,
                                  plan_of, read_letters, simulate)
from qnoisebench.compiling import hard_cycles
from qnoisebench.errors import InvalidParams
from qnoisebench.linalg import phase_aligned_distance
from qnoisebench.states import DensityMatrix


# ---------------------------------------------------------------------------
# Idle and random.


def test_idle_circuit_is_empty_cycles():
    circ = build_idle(4, 5)
    assert circ.depth == 5
    assert all(c.gates == () for c in circ.cycles)
    state = DensityMatrix.basis(4, 9)
    np.testing.assert_allclose(simulate(circ, state).matrix, state.matrix)


def test_idle_rejects_bad_sizes():
    with pytest.raises(InvalidParams):
        build_idle(0, 5)
    with pytest.raises(InvalidParams):
        build_idle(4, 0)
    with pytest.raises(InvalidParams):
        build_idle(4, 2.5)


def test_random_circuit_census():
    circ = build_random(4, 200, seed=3)
    assert circ.depth == 200
    assert circ.gate_set == CLIFFORD_T
    names = [g.name for c in circ.cycles for g in c.gates]
    assert set(names) <= {"x", "y", "z", "h", "cnot"}
    n_cnot = names.count("cnot")
    assert 0 < n_cnot < 200
    assert all(sum(g.name == "cnot" for g in c.gates) <= 1 for c in circ.cycles)


def test_random_circuit_seeding():
    a = build_random(4, 30, seed=5)
    assert a.cycles == build_random(4, 30, seed=5).cycles
    assert a.cycles != build_random(4, 30, seed=6).cycles
    with pytest.raises(InvalidParams):
        build_random(1, 10)
    with pytest.raises(InvalidParams):  # no cycles
        build_random(4, 0)


def test_random_plan_is_the_compiled_random_circuits():
    """The drawn plan equals `compile_plan(build_random(...))` per trial: each
    cell's gate matrix and each cycle's CNOT flips, for 552 seeds at every
    depth from 2 to 70. Its letters are each trial's `random_letters`, over
    the one table of their keys, and a segment opens on cycle 0 and exactly
    where some trial has a CNOT."""
    keyed = plan_of(4, *random_letters(4, 2, 0)).unitaries
    for depth in range(2, 71):
        seeds = range(8 * depth, 8 * depth + 8)
        plan = random_plan(4, depth, seeds)
        assert plan.letters.shape == (len(seeds), depth, 4)
        refs = [compile_plan(build_random(4, depth, seed=s)) for s in seeds]
        starts = [k for k in range(depth)
                  if not k or any(ref.flips[0][k] for ref in refs)]
        assert [start for start, _ in plan.segments] == starts
        np.testing.assert_array_equal(plan.unitaries, keyed)
        for t, (seed, ref) in enumerate(zip(seeds, refs)):
            np.testing.assert_array_equal(
                plan.letters[t], random_letters(4, depth, seed)[0])
            np.testing.assert_array_equal(plan.unitaries[plan.letters[t]],
                                          ref.unitaries[ref.letters[0]])
            opened = {start: plan.flip_sets[codes[t]] for (start, _), codes
                      in zip(plan.segments, plan.flip_codes)}
            assert [opened.get(k, ()) for k in range(depth)] == ref.flips[0]
    with pytest.raises(InvalidParams):
        random_plan(1, 10, [0])
    with pytest.raises(InvalidParams):
        random_plan(4, -1, [1])
    with pytest.raises(InvalidParams):  # no trials
        random_plan(4, 10, [])


def test_benchmark_plan_refuses_random_before_drawing(monkeypatch):
    """A random circuit needs its seeds, so `benchmark_plan("random", depth)`
    raises InvalidParams naming `random_plan` at any depth, before a letter
    is drawn, instead of planning an entropy-seeded circuit."""
    def drawn(*args):
        raise AssertionError("benchmark_plan drew a random circuit")

    monkeypatch.setattr(benchmarks, "benchmark_letters", drawn)
    monkeypatch.setattr(benchmarks, "random_letters", drawn)
    for depth in (10, 2, 70, None, 2.5):
        with pytest.raises(InvalidParams,
                           match=r"random_plan\(n, depth, seeds\)"):
            benchmark_plan("random", depth)


# ---------------------------------------------------------------------------
# Adder.


def test_adder_exact_on_all_inputs():
    """Noiseless sums must be exact: probability 1 on the correct output
    basis state for every (a, b) pair, with the a register and carries
    restored."""
    circ = build_adder()
    assert circ.n_qubits == 7
    for a in range(4):
        for b in range(4):
            start = DensityMatrix.basis(7, adder_input_index(a, b))
            probs = np.real(np.diag(simulate(circ, start).matrix))
            top = int(np.argmax(probs))
            assert probs[top] > 1.0 - 1e-9
            assert adder_sum_from_index(top) == a + b
            # a register (qubits 1, 4) holds a; carries (0, 3) are clear.
            assert (top >> (7 - 1 - 1)) & 1 == (a >> 0) & 1
            assert (top >> (7 - 1 - 4)) & 1 == (a >> 1) & 1
            assert (top >> (7 - 1 - 0)) & 1 == 0
            assert (top >> (7 - 1 - 3)) & 1 == 0


def test_adder_structure():
    circ = build_adder()
    assert circ.depth == 160
    assert circ.gate_set == CLIFFORD_T
    hard = hard_cycles(*read_letters(circ)[:2])
    assert hard.any() and not (hard[1:] & hard[:-1]).any()
    assert circ.cycles[-1].gates == ()  # closing idle slot


def test_adder_index_helpers():
    # bits: c0 a0 b0 c1 a1 b1 c2 on qubits 0..6, qubit 0 is the MSB.
    assert adder_input_index(0, 0) == 0
    assert adder_input_index(1, 0) == 1 << 5  # a0 on qubit 1
    assert adder_input_index(0, 1) == 1 << 4  # b0 on qubit 2
    assert adder_sum_from_index((1 << 4) | 1) == 1 + 4  # b0 and high carry
    with pytest.raises(InvalidParams):
        adder_input_index(4, 0)


# ---------------------------------------------------------------------------
# QFT.


def bit_reversed_dft(n):
    dim = 2 ** n
    w = np.exp(2j * np.pi / dim)
    f = w ** np.outer(np.arange(dim), np.arange(dim)) / np.sqrt(dim)
    rev = [int(format(i, f"0{n}b")[::-1], 2) for i in range(dim)]
    return f[rev, :]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_unitary_is_bit_reversed_dft(n):
    u = circuit_unitary(build_qft(n))
    assert phase_aligned_distance(u, bit_reversed_dft(n)) < 1e-9


def test_qft_needs_an_integer_size():
    for n in (0, 2.5, "a"):
        with pytest.raises(InvalidParams):
            build_qft(n)


def test_qft_clifford_t_stays_close():
    want = circuit_unitary(build_qft(4))
    got = circuit_unitary(build_benchmark("qft_ct"))
    assert phase_aligned_distance(got, want) < 0.15


def test_qft_ct_gate_alphabet():
    circ = build_benchmark("qft_ct")
    assert circ.gate_set == CLIFFORD_T
    names = {g.name for c in circ.cycles for g in c.gates}
    assert "rz" not in names and "rx" not in names


# ---------------------------------------------------------------------------
# Max-cut scaffolding.


def test_hypercube_graph_shape():
    g = MaxCutGraph.hypercube()
    assert g.n_vertices == 8
    assert len(g.edges) == 12
    degree = np.zeros(8, dtype=int)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert all(degree == 3)
    groups = g.matchings()
    assert len(groups) == 3
    for group in groups:
        touched = [q for e in group for q in e]
        assert len(touched) == len(set(touched)) == 8


def test_hypercube_maxcut_is_12():
    # Bipartite by parity, so every edge can be cut at once.
    assert cut_sizes(MaxCutGraph.hypercube()).max() == 12


def test_graph_validation():
    with pytest.raises(InvalidParams):
        MaxCutGraph(3, ((0, 3),))
    with pytest.raises(InvalidParams):
        MaxCutGraph(3, ((1, 1),))


def test_cut_sizes_triangle_hand_values():
    tri = MaxCutGraph(3, ((0, 1), (1, 2), (0, 2)))
    cuts = cut_sizes(tri)
    # Index 4 is '100': vertex 0 alone on one side cuts two edges.
    assert cuts[0] == 0 and cuts[7] == 0
    assert cuts[4] == 2 and cuts[3] == 2
    assert cuts.max() == 2


def test_maxcut_expectation_values():
    tri = MaxCutGraph(3, ((0, 1), (1, 2), (0, 2)))
    point = np.zeros(8)
    point[4] = 1.0
    assert maxcut_expectation(point, tri) == pytest.approx(2.0)
    assert maxcut_expectation(np.full(8, 1 / 8), tri) == pytest.approx(1.5)
    with pytest.raises(InvalidParams):
        maxcut_expectation(np.full(4, 0.25), tri)


# ---------------------------------------------------------------------------
# QAOA.


def qaoa_p1_expectation(beta, gamma):
    # Closed form for the 3-regular triangle-free hypercube at p = 1.
    return 6.0 - 6.0 * np.sin(2 * beta) * np.sin(gamma) * np.cos(gamma) ** 2


def expectation_of(circ, graph):
    out = simulate(circ, DensityMatrix.basis(graph.n_vertices, 0))
    return maxcut_expectation(np.real(np.diag(out.matrix)), graph)


@pytest.mark.parametrize("beta,gamma", [(0.3, 0.5), (1.1, 2.0), (2.4, 2.5)])
def test_qaoa_simulation_matches_closed_form(beta, gamma):
    graph = MaxCutGraph.hypercube()
    circ = build_qaoa(graph, beta, gamma)
    assert expectation_of(circ, graph) == pytest.approx(
        qaoa_p1_expectation(beta, gamma), abs=1e-9)


def test_qaoa_structure():
    graph = MaxCutGraph.hypercube()
    circ = build_qaoa(graph, 0.3, 0.5)
    assert circ.depth == 11  # H + 3 matchings x 3 + mixer
    assert all(g.name == "h" for g in circ.cycles[0].gates)
    assert build_qaoa(graph, 0.3, 0.5, p=2).depth == 21
    for p in (0, 1.5):
        with pytest.raises(InvalidParams):
            build_qaoa(graph, 0.3, 0.5, p=p)


def test_starred_angles_hit_the_stationary_value():
    want = 6.0 + 4.0 / np.sqrt(3.0)  # formula at sin(2b) = -1, tan(g) = 1/sqrt 2
    assert qaoa_p1_expectation(QAOA_BETA_STAR, QAOA_GAMMA_STAR) == pytest.approx(
        want, abs=1e-12)
    graph = MaxCutGraph.hypercube()
    circ = build_qaoa(graph, QAOA_BETA_STAR, QAOA_GAMMA_STAR)
    assert expectation_of(circ, graph) == pytest.approx(want, abs=1e-9)
    assert want > 8.3


@pytest.mark.parametrize("resolution", [-1, 0, float("nan"), float("inf"),
                                        "a", True])
def test_optimizer_needs_a_finite_positive_resolution(resolution):
    """-1 once searched an empty grid and returned (0, 0, -1); 0 divided by
    zero."""
    with pytest.raises(InvalidParams, match="resolution"):
        optimize_qaoa_angles(resolution)


def test_optimizer_agrees_with_closed_form():
    beta, gamma, value = optimize_qaoa_angles(resolution=0.05)
    assert value == pytest.approx(qaoa_p1_expectation(beta, gamma), abs=1e-9)
    assert value > 8.2
    assert abs(beta - QAOA_BETA_STAR) < 0.06
    # sin(g) cos^2(g) is symmetric about pi/2, so the two gamma optima are
    # degenerate and the grid may land on either.
    assert min(abs(gamma - QAOA_GAMMA_STAR),
               abs(gamma - (np.pi - QAOA_GAMMA_STAR))) < 0.06


# ---------------------------------------------------------------------------
# Registry dispatch.


def test_build_benchmark_depths():
    assert build_benchmark("idle", depth=10).depth == 10
    assert build_benchmark("random", depth=10, seed=1).depth == 10
    assert build_benchmark("adder").depth == 160
    assert build_benchmark("qft").depth == 28
    assert build_benchmark("qft_ct").depth == 242
    assert build_benchmark("qaoa").depth == 11
    assert build_benchmark("qaoa_ct").depth == 140


def test_build_benchmark_widths_and_gate_sets():
    for bench_id, spec in BENCHMARKS.items():
        depth = 4 if spec.depth_range is not None else None
        circ = build_benchmark(bench_id, depth=depth, seed=0)
        assert circ.n_qubits == spec.n_qubits
        assert circ.gate_set == spec.gate_set


def test_build_benchmark_rejects_bad_requests():
    with pytest.raises(InvalidParams):
        build_benchmark("teleport")
    with pytest.raises(InvalidParams):
        build_benchmark("idle")  # depth required
    with pytest.raises(InvalidParams):
        build_benchmark("adder", depth=10)  # fixed construction
    with pytest.raises(InvalidParams):
        build_benchmark("idle", depth=1)
    with pytest.raises(InvalidParams):
        build_benchmark("idle", depth=71)
    for bad in (lambda: build_benchmark("idle", depth=2.5),
                lambda: build_benchmark("idle", depth="x"),
                lambda: benchmark_plan("idle", 2.5),
                lambda: benchmark_plan(["idle"]),
                lambda: build_benchmark(["idle"]),
                lambda: build_adder(1.5)):
        with pytest.raises(InvalidParams):
            bad()
