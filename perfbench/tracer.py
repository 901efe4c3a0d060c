"""Layer spans for one traced `qnoisebench.cli.main` call, recorded from
outside the package.

Every wrapper replaces a name where its caller looks it up (qnoisebench
modules import functions by name), records one span per call and keeps the
spans in memory; `dump` writes them out once the call has finished. A span is
(label, start, end, parent span index, trial index). The trial index counts the
per-trial `SeedSequence((seed, sweep, trial))` the harness draws at the top of
every trial, so spans before the first trial carry -1.

Self time is a span's duration minus the durations of its direct children.
Every span's self time lands in exactly one layer metric, so the layer self
times sum to the root (`cli`) span's duration by construction; run.py checks
that sum against the call's wall time as child.py measures it, outside the
tracer.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter

GATE_KINDS = ("dense", "diag", "perm", "cnot")

# Span label -> layer self-time metric. Labels not listed map to
# "<label>.self_s".
_SELF_METRIC = {
    **{f"gates.{kind}": "gates.self_s" for kind in GATE_KINDS},
    "circuits.sim": "circuits.self_s",
    "circuits.cycle": "circuits.self_s",
}

SELF_METRICS = (
    "gates.self_s", "noise.self_s", "compiling.rc.self_s",
    "compiling.frame.self_s", "compiling.lower.self_s",
    "compiling.other.self_s", "benchmarks.build.self_s",
    "benchmarks.score.self_s", "circuits.self_s", "states.self_s",
    "metrics.self_s", "harness.self_s", "cli.self_s",
)


def gate_kind(u) -> str:
    """Structure of the unitary handed to `apply_local_unitary`."""
    if u.shape[0] == 4:
        return "cnot"
    if u[0, 1] == 0 and u[1, 0] == 0:
        return "diag"
    if u[0, 0] == 0 and u[1, 1] == 0:
        return "perm"
    return "dense"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.trial = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _timed(self, fn, label):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            name = label(args) if callable(label) else label
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            trial = self.trial
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, trial)

        return timed

    def wrap(self, owner, attr: str, label) -> None:
        """Replace `owner.attr` with a timed version. `label` is the span
        name, or a function of the call's arguments that returns it (and may
        tally counters on the way)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._timed(raw.__func__, label))
        else:
            new = self._timed(raw, label)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer boundary that `cli.main(["run", ...])` crosses."""
        import numpy as np

        from qnoisebench import (benchmarks, circuits, cli, compiling,
                                 harness, states)

        counts = self.counts

        def gate_label(args):
            rho, u = args[0], args[1]
            # Two einsum passes (rows, then columns), each reading and
            # writing the whole complex128 state.
            counts["gates.bytes"] += 2 * 2 * 16 * rho.size
            return f"gates.{gate_kind(u)}"

        def noise_label(args):
            counts["noise.qubit_applications"] += args[2]
            return "noise"

        self.wrap(cli, "run_experiment", "harness")
        self.wrap(cli, "emit", "harness")
        self.wrap(harness, "build_benchmark", "benchmarks.build")
        self.wrap(harness, "maxcut_expectation", "benchmarks.score")
        self.wrap(harness, "simulate", "circuits.sim")
        self.wrap(harness, "process_fidelity", "metrics")
        self.wrap(harness, "random_product_state", "states")
        self.wrap(harness, "ket_to_density", "states")
        self.wrap(harness, "interleave_idle", "compiling.other")
        self.wrap(states.DensityMatrix, "basis", "states")
        self.wrap(states.DensityMatrix, "__post_init__", "states")
        self.wrap(states.DensityMatrix, "purity", "states")
        self.wrap(benchmarks, "to_clifford_t", "compiling.lower")
        self.wrap(benchmarks, "interleave_idle", "compiling.other")
        self.wrap(benchmarks, "lower_controlled_rz", "compiling.other")
        # `simulate` imports these two from the compiling module at call time.
        self.wrap(compiling, "randomized_compile", "compiling.rc")
        self.wrap(compiling, "apply_pauli_frame", "compiling.frame")
        self.wrap(circuits, "apply_cycle", "circuits.cycle")
        self.wrap(circuits, "apply_local_unitary", gate_label)
        self.wrap(circuits, "apply_channel_all", noise_label)

        # Trial boundary: the harness seeds each trial from
        # np.random.SeedSequence((seed, sweep_index, trial)).
        real = np.random.SeedSequence

        def seed_sequence(*args, **kwargs):
            self.trial += 1
            return real(*args, **kwargs)

        np.random.SeedSequence = seed_sequence
        self._undo.append((np.random, "SeedSequence", real))

    def uninstall(self) -> None:
        """Put back everything `install` replaced."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def root(self, fn):
        """`fn` wrapped as the root span, labelled `cli`."""
        return self._timed(fn, "cli")

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, trials: int) -> dict[str, float]:
        """Per-layer metrics of a traced call that completed `trials`."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        own: Counter = Counter()
        for i, (label, start, end, _, _) in enumerate(self.spans):
            calls[label] += 1
            own[label] += (end - start) - child_time[i]

        m = dict.fromkeys(SELF_METRICS, 0.0)
        for label, seconds in own.items():
            m[_SELF_METRIC.get(label, f"{label}.self_s")] += seconds
        for kind in GATE_KINDS:
            n = calls[f"gates.{kind}"]
            m[f"gates.{kind}.calls"] = n
            m[f"gates.{kind}.us_per_call"] = (
                1e6 * own[f"gates.{kind}"] / n if n else 0.0)
        m["gates.mb_moved"] = self.counts["gates.bytes"] / 1e6
        m["noise.calls"] = calls["noise"]
        m["noise.us_per_call"] = (
            1e6 * own["noise"] / calls["noise"] if calls["noise"] else 0.0)
        m["noise.qubit_applications"] = self.counts["noise.qubit_applications"]
        for label in ("compiling.rc", "compiling.lower", "benchmarks.build",
                      "circuits.sim"):
            m[f"{label}.calls"] = calls[label]
        per = max(trials, 1)
        m["compiling.rc_per_trial"] = calls["compiling.rc"] / per
        m["circuits.sims_per_trial"] = calls["circuits.sim"] / per
        return m

    def dump(self, path: str) -> None:
        """Write the spans as gzipped CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,trial\n")
            for i, (label, start, end, parent, trial) in enumerate(self.spans):
                fh.write(f"{i},{label},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{trial}\n")
