"""Clifford+T lowering and idle interleaving on letters triples against the
gate-by-gate forms they replace.

The references below lower, interleave and close a `Circuit` one `Gate` at a
time, as the package did before it lowered letters. One change: a rotation
whose word is empty (Rz within eps of the identity) idles in a one-cycle
span, where the gate-by-gate form kept the rotation and the Clifford+T check
then refused the circuit."""

import dataclasses

import numpy as np
import pytest

from qnoisebench import benchmarks, circuits, compiling
from qnoisebench.benchmarks import (QAOA_BETA_STAR, QAOA_GAMMA_STAR,
                                    MaxCutGraph, _adder_abstract_gates,
                                    benchmark_plan, build_benchmark,
                                    build_qaoa, build_qft)
from qnoisebench.circuits import (CLIFFORD_T, Circuit, Cycle, compile_plan,
                                  plan_of, read_letters,
                                  toffoli_decomposition)
from qnoisebench.compiling import (Twirl, _word_with_fallback, approx_rz,
                                   interleave_idle, interleave_letters,
                                   lower_letters, to_clifford_t)
from qnoisebench.gates import Gate

G = Gate
EASY = frozenset(["i", "x", "y", "z", "s", "sdg"])


def ref_to_clifford_t(circ, eps=0.05):
    """Every rz/rx replaced by its word in lockstep sub-cycles: shorter words
    pad with idles, the other gates fire in the first sub-cycle."""
    out = []
    for cycle in circ.cycles:
        words, fixed = {}, []
        for g in cycle.gates:
            if g.name in ("rz", "rx"):
                word = list(_word_with_fallback(g.angle, eps))
                words[g.qubits[0]] = (word if g.name == "rz"
                                      else ["h", *word, "h"])
            else:
                fixed.append(g)
        if not words:
            out.append(cycle)
            continue
        for step in range(max(1, max(len(w) for w in words.values()))):
            gates = [Gate(w[step], (q,)) for q, w in words.items()
                     if step < len(w)]
            if step == 0:
                gates.extend(fixed)
            out.append(Cycle(tuple(gates)))
    return Circuit(circ.n_qubits, tuple(out), CLIFFORD_T)


def ref_interleave_idle(circ):
    """An all-idle cycle between consecutive hard cycles."""
    out, prev_hard = [], False
    for cycle in circ.cycles:
        hard = not all(g.name in EASY for g in cycle.gates)
        if hard and prev_hard:
            out.append(Cycle(()))
        out.append(cycle)
        prev_hard = hard
    return Circuit(circ.n_qubits, tuple(out), circ.gate_set)


def ref_finish(circ):
    """Interleaved, then one closing idle cycle."""
    out = ref_interleave_idle(circ)
    return Circuit(out.n_qubits, out.cycles + (Cycle(()),), out.gate_set)


def ref_benchmark(bench_id, depth=None):
    if bench_id == "idle":
        return Circuit(4, tuple(Cycle(()) for _ in range(depth)), CLIFFORD_T)
    if bench_id == "adder":
        cycles = []
        for op in _adder_abstract_gates(2):
            if op[0] == "cnot":
                cycles.append(Cycle((G.cnot(op[1], op[2]),)))
            else:
                cycles.extend(toffoli_decomposition(*op[1:], 7).cycles)
        return ref_finish(Circuit(7, tuple(cycles), CLIFFORD_T))
    param = (build_qft(4) if bench_id.startswith("qft") else
             build_qaoa(MaxCutGraph.hypercube(), QAOA_BETA_STAR,
                        QAOA_GAMMA_STAR))
    if bench_id in ("qft", "qaoa"):
        return param
    return ref_finish(ref_to_clifford_t(param))


def assert_same_cycles(got, want):
    """Equal cycle by cycle as sets of gates: a circuit written from letters
    puts each cycle's CNOTs first."""
    assert got.n_qubits == want.n_qubits and got.gate_set == want.gate_set
    assert [set(c.gates) for c in got.cycles] == [set(c.gates)
                                                  for c in want.cycles]


def assert_same_plan(got, want):
    """The same gate matrix in every cell, the same segments and, with RC,
    every `Twirl` field equal in dtype, shape and value."""
    np.testing.assert_array_equal(got.unitaries[got.letters],
                                  want.unitaries[want.letters])
    assert got.segments == want.segments
    assert (got.twirl is None) == (want.twirl is None)
    for f in dataclasses.fields(Twirl) if want.twirl is not None else ():
        a, b = getattr(got.twirl, f.name), getattr(want.twirl, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        np.testing.assert_array_equal(a, b, err_msg=f.name)


@pytest.mark.parametrize("bench, depth, rc", [
    (bench, depth, rc)
    for bench, depth in [("qft_ct", None), ("qaoa_ct", None), ("adder", None),
                         ("idle", 2), ("idle", 10), ("idle", 70)]
    for rc in (False, True)] + [("qft", None, False), ("qaoa", None, False)])
def test_benchmark_plan_equals_the_gate_by_gate_build(bench, depth, rc):
    want = ref_benchmark(bench, depth)
    assert_same_plan(benchmark_plan(bench, depth, rc), compile_plan(want, rc))
    assert_same_cycles(build_benchmark(bench, depth), want)


def random_rotation_circuit(n, depth, rng, angles):
    """Cycles of rz and rx from a pool of angles, h, t, s and the Paulis on
    a random subset of qubits, a CNOT in about a third of them."""
    names = ("rz", "rx", "rz", "rx", "h", "t", "s", "x", "y", "z")
    cycles = []
    for _ in range(depth):
        qubits = [int(q) for q in rng.permutation(n)]
        gates = []
        if n > 1 and rng.random() < 0.35:
            gates.append(G.cnot(qubits.pop(), qubits.pop()))
        for q in qubits:
            if rng.random() < 0.7:
                name = names[rng.integers(len(names))]
                angle = (angles[rng.integers(len(angles))]
                         if name in ("rz", "rx") else None)
                gates.append(G(name, (q,), angle))
        cycles.append(Cycle(tuple(gates)))
    return Circuit(n, tuple(cycles))


def test_letters_lowering_equals_the_gate_by_gate_lowering():
    """On 240 random circuits over 1..5 qubits: `to_clifford_t` and
    `interleave_idle` write the reference's cycles, and the lowered,
    interleaved letters plan as the reference's circuit does, with and
    without RC. The angle pool holds 0, whose word is empty, and 0.01,
    within eps of it."""
    rng = np.random.default_rng(23)
    angles = [0.0, 0.01, np.pi / 4, -np.pi / 2,
              *rng.uniform(-np.pi, np.pi, 12)]
    for _ in range(240):
        n = int(rng.integers(1, 6))
        circ = random_rotation_circuit(n, int(rng.integers(1, 14)), rng,
                                       angles)
        low = ref_to_clifford_t(circ)
        assert_same_cycles(to_clifford_t(circ), low)
        assert_same_cycles(interleave_idle(circ), ref_interleave_idle(circ))
        want = ref_interleave_idle(low)
        assert_same_cycles(interleave_idle(to_clifford_t(circ)), want)
        triple = interleave_letters(*lower_letters(*read_letters(circ)))
        for rc in (False, True):
            assert_same_plan(plan_of(n, *triple, rc), compile_plan(want, rc))


def test_a_rotation_with_an_empty_word_lowers_to_an_idle_qubit():
    """Rz(0) and Rz(0.01) are within eps of the identity: the empty word.
    The rotation idles in a one-cycle span beside the cycle's other gates."""
    for angle in (0.0, 0.01):
        assert approx_rz(angle) == []
        circ = Circuit(2, [Cycle([G.rz(0, angle), G.h(1)])])
        assert to_clifford_t(circ).cycles == (Cycle((G.h(1),)),)
        alone = to_clifford_t(Circuit(1, [Cycle([G.rz(0, angle)])]))
        assert alone.cycles == (Cycle(()),)
        # An rx keeps its h pair: h Rz(0) h is h h.
        rx = to_clifford_t(Circuit(1, [Cycle([G.rx(0, angle)])]))
        assert rx.cycles == (Cycle((G.h(0),)),) * 2


@pytest.mark.parametrize("bench", ["qft_ct", "qaoa_ct", "adder"])
def test_benchmark_plan_builds_no_lowered_circuit(monkeypatch, bench):
    """The fixed Clifford+T plans go from letters to the plan: no call
    writes a circuit from letters or lowers or interleaves a `Circuit`."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a circuit was built on the letters path")

    for module in (benchmarks, circuits, compiling):
        for name in ("to_clifford_t", "interleave_idle", "circuit_of"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    plan = benchmark_plan(bench, rc=True)
    assert plan.twirl is not None and plan.letters.shape[1] in (140, 160, 242)
