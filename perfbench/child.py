"""One workload process, started by run.py in a fresh interpreter.

It times the set-up a command-line user pays on every invocation (import
qnoisebench, load and validate the config, build the workload's circuit once
from cold), then times `qnoisebench.cli.main(["run", ...])` calls of the same
config until --budget seconds are used, at least one. Call i writes its rows
to <--out>i.csv. With --spans, one call in the middle of the budget runs under
the layer tracer, with plain calls (at least one) before and after it; its
spans are written to the given path afterwards. With --setup-only it times
the set-up and makes no call.

The last line of stdout is one JSON object with the measurements.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True,
                        help="directory that holds the qnoisebench package")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="CSV path prefix")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of timed calls; at least one runs")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up and make no calls")
    parser.add_argument("--spans",
                        help="trace one call mid-budget; spans go here")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import qnoisebench
    from qnoisebench import ExperimentConfig, build_benchmark, cli

    with open(args.config) as fh:
        fields = json.load(fh)
    fields["seed"] = args.seed
    for name in ("levels", "sweep", "depth_range"):
        if fields.get(name) is not None:
            fields[name] = tuple(fields[name])
    cfg = ExperimentConfig(**fields).validate()
    depth = cfg.depth_range[0] if cfg.depth_range else None
    build_benchmark(cfg.benchmark, depth=depth, seed=cfg.seed)
    setup_s = time.perf_counter() - start

    src = Path(args.src).resolve()
    if src not in Path(qnoisebench.__file__).resolve().parents:
        print(f"qnoisebench imported from {qnoisebench.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"exit_codes": [], "setup_s": setup_s,
                          "walls_s": []}))
        return 0

    argv = ["run", "--config", args.config, "--seed", str(args.seed)]

    walls: list[float] = []
    codes: list[int] = []

    def call(run) -> None:
        out = f"{args.out}{len(walls)}.csv"
        t0 = time.perf_counter()
        codes.append(run(argv + ["--out", out]))
        walls.append(time.perf_counter() - t0)

    def calls_until(budget: float) -> None:
        """Plain calls, at least one, while the next one fits the budget."""
        call(cli.main)
        while sum(walls) + statistics.median(walls) <= budget:
            call(cli.main)

    tracer = None
    if args.spans:
        from tracer import Tracer

        # Plain calls before and after the traced one give the tracing
        # overhead against the same process around the same moment.
        tracer = Tracer()
        calls_until(args.budget / 2)
        traced_index = len(walls)
        tracer.install()
        call(tracer.root(cli.main))
        tracer.uninstall()
        calls_until(args.budget)
    else:
        calls_until(args.budget)

    report = {
        "exit_codes": codes,
        "setup_s": setup_s,
        "walls_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    if tracer is not None:
        report["traced_index"] = traced_index
        report["traced_trials"] = tracer.trial + 1
        report["layers"] = tracer.layer_metrics(tracer.trial + 1)
        tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
