"""Summarize the run records in perfbench/results/.

    python3 perfbench/summarize.py [--out perfbench/baseline/NAME.json]

For every workload and metric: the number of runs, the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) /
median. End-to-end metrics come from the --trace 0 records; per-layer
metrics from the --trace 1 records. With --out, the summary and the
environment of the runs are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from run import RESULTS


def summarize() -> tuple[dict, list]:
    values: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(lambda: defaultdict(list))
    envs = []
    for path in sorted(RESULTS.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        if record["env"] not in envs:
            envs.append(record["env"])
        group = (record["workload"], record["trace"])
        seeds[record["workload"]][record["trace"]].append(record["seed"])
        for name, metric in record["result"]["metrics"].items():
            values[group][name].append(metric["value"])
    summary: dict = {}
    for (workload, trace), metrics in sorted(values.items()):
        block = summary.setdefault(workload, {})
        block[f"trace{trace}_seeds"] = sorted(seeds[workload][trace])
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            block[name] = {"runs": len(vals), "median": med, "q1": q1,
                           "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0}
    return summary, envs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    summary, envs = summarize()
    for workload, block in summary.items():
        print(workload)
        for name, s in block.items():
            if isinstance(s, dict):
                print(f"  {name:28s} n={s['runs']:2d} median {s['median']:.6g}"
                      f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.4f}")
    if args.out:
        # One metric per line, so a diff of two baselines reads line by line.
        blocks = []
        for workload, block in summary.items():
            lines = [f"  {json.dumps(k)}: {json.dumps(v)}"
                     for k, v in block.items()]
            blocks.append(f" {json.dumps(workload)}: {{\n"
                          + ",\n".join(lines) + "\n }")
        with open(args.out, "w") as fh:
            fh.write(f'{{"env": {json.dumps(envs)},\n"workloads": {{\n'
                     + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
