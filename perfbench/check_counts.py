"""Count determinism check for the layer tracer.

    python3 perfbench/check_counts.py [--workload NAME]

Runs each workload's traced call twice at the pinned seed, at the workload
config's own trial count, and requires identical call counts, per-trial
ratios, qubit applications and computed bytes moved, since later count-based
claims rest on these repeating exactly. It also requires the layer self times
of each traced call to sum to the call's wall time as child.py measures it,
within run.SELF_SUM_SLACK. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys

from run import (PINNED_SEED, RESULTS, SELF_SUM_SLACK, WORKLOADS, run_child,
                 self_sum_gap)


def counted(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith((".calls", "_per_trial", ".qubit_applications",
                           ".mb_moved"))}


def check(workload: str) -> list[str]:
    problems = []
    runs = []
    for i in range(2):
        spans = RESULTS / f"check-spans-{workload}-{i}.csv.gz"
        report, _ = run_child(workload, PINNED_SEED, 0.0,
                              f"check-{workload}-{i}", spans=spans)
        if report is None:
            return [f"{workload}: traced call {i} failed"]
        layers = report["layers"]
        wall = report["walls_s"][report["traced_index"]]
        gap = self_sum_gap(layers, wall)
        if gap > SELF_SUM_SLACK:
            problems.append(f"{workload}: layer self times miss the traced "
                            f"wall of {wall:.6f} s by {gap:.2e} of it")
        runs.append(counted(layers))
    first, second = runs
    for key in sorted(first.keys() | second.keys()):
        if first.get(key) != second.get(key):
            problems.append(f"{workload}: {key} {first.get(key)} "
                            f"!= {second.get(key)}")
    print(f"{workload}: {len(first)} counts, "
          f"{'identical' if not problems else 'MISMATCH'}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()
    RESULTS.mkdir(exist_ok=True)
    problems = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        problems += check(workload)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
