"""Command line front end: `qnoise-bench run` executes one experiment
config, `qnoise-bench list` shows what can be run. Config comes from a JSON
file; flags override individual fields. Exit code 2 flags a bad config;
any other domain error (say, an unwritable --out) prints `error: ...` and
exits 1."""

from __future__ import annotations

import argparse
import json
import sys

from .benchmarks import BENCHMARKS
from .errors import ConfigError, SimulationError
from .harness import ExperimentConfig, emit, rows_to_csv, rows_to_json, run_experiment
from .noise import NOISE_KINDS

_TUPLE_FIELDS = ("levels", "sweep", "depth_range")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnoise-bench",
        description="Density-matrix noise benchmarking experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--benchmark", help="benchmark id")
    run.add_argument("--noise", help="noise kind, or 'none' (which also "
                     "drops the config file's levels and sweep)")
    run.add_argument("--rc", choices=("on", "off"),
                     help="randomized compiling")
    run.add_argument("--trials", type=int, help="runs per sweep point")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--out", help="output file; stdout when omitted")
    run.add_argument("--format", choices=("csv", "json"), dest="fmt",
                     help="output format (default csv)")

    sub.add_parser("list", help="show benchmarks and noise kinds")
    return parser


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                fields = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} is not valid JSON: {exc}")
        if not isinstance(fields, dict):
            raise ConfigError("config: top level must be a JSON object")

    for flag in ("benchmark", "noise", "trials", "seed", "out", "fmt"):
        value = getattr(args, flag)
        if value is not None:
            fields[flag] = value
    if args.rc is not None:
        fields["rc"] = args.rc == "on"
    if args.noise == "none":
        # The file's strengths belong to the noise kind the flag replaced.
        fields.pop("levels", None)
        fields.pop("sweep", None)

    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")
    for name in _TUPLE_FIELDS:
        if isinstance(fields.get(name), list):
            fields[name] = tuple(fields[name])
    if "benchmark" not in fields:
        raise ConfigError("benchmark: required (flag or config file)")
    if "noise" not in fields:
        raise ConfigError("noise: required (flag or config file)")
    return ExperimentConfig(**fields)


def _run(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    rows = run_experiment(cfg)
    if cfg.out is not None:
        emit(rows, cfg.fmt, cfg.out)
        print(f"wrote {len(rows)} rows to {cfg.out}")
    else:
        text = rows_to_csv(rows) if cfg.fmt == "csv" else rows_to_json(rows)
        sys.stdout.write(text)
    return 0


def _list() -> int:
    print("benchmarks:")
    for spec in BENCHMARKS.values():
        depths = ("depths %d..%d" % spec.depth_range
                  if spec.depth_range else "fixed depth")
        print(f"  {spec.id:<8} {spec.n_qubits} qubits, {spec.gate_set}, "
              f"{depths}, metric {spec.metric}")
    print("noise kinds:")
    for kind in NOISE_KINDS + ("none",):
        print(f"  {kind}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _list()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
