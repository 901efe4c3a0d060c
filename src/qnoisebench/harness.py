"""Experiment runner: sweeps noise strength (and depth where applicable)
over a benchmark, Monte Carlo over inputs and randomization seeds, and
writes the aggregated rows as CSV or JSON.

Determinism: every trial derives its own seeds from
(master seed, sweep index, trial index), so results do not depend on
execution order and a fixed config reproduces its output byte for byte.
"""

from __future__ import annotations

import csv
import json
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

# build_benchmark, interleave_idle, simulate, process_fidelity,
# ket_to_density and random_product_state are not called here, but
# perfbench/tracer.py times their layers under this module's names, so the
# names stay importable from it.
from .benchmarks import (_RANDOM_KEYS, BENCHMARKS, MaxCutGraph,  # noqa: F401
                         _draw_chunk, benchmark_plan, build_benchmark,
                         maxcut_expectation, random_plan)
from .circuits import (CLIFFORD_T, pauli_diagonals,  # noqa: F401
                       pauli_fidelities, plan_of, product_pauli, simulate)
from .compiling import interleave_idle, interleave_letters  # noqa: F401
from .errors import ConfigError, IoError, SimulationError, is_integer
from .metrics import process_fidelity  # noqa: F401
from .noise import LEVEL_PARAMS, NOISE_KINDS, NoNoise, noise_model_for
from .states import (check_norms, check_purities, check_traces,  # noqa: F401
                     ket_to_density, product_kets, random_product_factors,
                     random_product_state, spawn_children)

CSV_HEADER = "benchmark,noise,param,depth,rc,metric,mean,stderr,trials,seed"
_FIELDS = tuple(CSV_HEADER.split(","))

DEFAULT_TRIALS = 100
DEFAULT_LEVELS = (0, 1, 2, 3)
MAX_SWEEP_POINTS = 1000  # more is a mistyped step, not an experiment
MAX_TRIAL_RUNS = 10 ** 7  # trials x points x depths: days of runs at 8 qubits
# Trials run as one batch: TRIAL_CHUNK states and their maps at once.
TRIAL_CHUNK = 32


def _round10(x: float) -> float:
    # Quantize once at row construction so CSV (%.10g) and JSON carry the
    # same value and format round trips are exact.
    return float(f"{float(x):.10g}")


@dataclass(frozen=True)
class ResultRow:
    benchmark: str
    noise: str
    param: float
    depth: int
    rc: bool
    metric: str
    mean: float
    stderr: float
    trials: int
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark x noise sweep. `levels` indexes the standard strength
    table; `sweep` = (start, stop, step) takes raw channel parameters
    instead; noise "none" takes neither. `depth_range` = (start, stop, step)
    applies to the sweepable benchmarks only."""

    benchmark: str
    noise: str
    levels: tuple[int, ...] | None = None
    sweep: tuple[float, float, float] | None = None
    rc: bool = False
    trials: int = DEFAULT_TRIALS
    depth_range: tuple[int, int, int] | None = None
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> "ExperimentConfig":
        for name in ("benchmark", "noise", "fmt"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name}: {getattr(self, name)!r} is not a string")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out: {self.out!r} is not a path")
        if not isinstance(self.rc, bool):
            raise ConfigError(f"rc: {self.rc!r} is not true or false")
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed, 0)
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(
                f"benchmark: unknown id {self.benchmark!r}; "
                f"choose from {sorted(BENCHMARKS)}"
            )
        if self.noise != "none" and self.noise not in NOISE_KINDS:
            raise ConfigError(
                f"noise: unknown kind {self.noise!r}; "
                f"choose from {list(NOISE_KINDS) + ['none']}"
            )
        if self.levels is not None and self.sweep is not None:
            raise ConfigError("levels/sweep: give one, not both")
        if self.noise == "none" and (self.levels is not None
                                     or self.sweep is not None):
            raise ConfigError("levels/sweep: noise 'none' has no strength")
        if self.levels is not None:
            if not isinstance(self.levels, (tuple, list)):
                raise ConfigError(f"levels: {self.levels!r} is not a list")
            if not self.levels:
                raise ConfigError("levels: empty")
            for lv in self.levels:
                _check_int("levels", lv, 0)
                if lv > 3:
                    raise ConfigError(f"levels: {lv} outside 0..3")
        if self.sweep is not None:
            start, stop, step = _triple("sweep", self.sweep, numbers.Real)
            if step <= 0:
                raise ConfigError(f"sweep: step {step} must be > 0")
            if stop < start:
                raise ConfigError(f"sweep: stop {stop} below start {start}")
            # In floats: two ints' difference can pass the float range.
            if (float(stop) - float(start)) / step + 1e-9 >= MAX_SWEEP_POINTS:
                raise ConfigError(f"sweep: over {MAX_SWEEP_POINTS} points")
            for param in (start, stop):
                try:
                    noise_model_for(self.noise, param)
                except SimulationError as exc:
                    raise ConfigError(f"sweep: {exc}") from exc
        spec = BENCHMARKS[self.benchmark]
        if spec.depth_range is None:
            if self.depth_range is not None:
                raise ConfigError(
                    f"depth_range: {self.benchmark} has a fixed depth")
        else:
            if self.depth_range is None:
                raise ConfigError(
                    f"depth_range: required for {self.benchmark}")
            start, stop, step = _triple("depth_range", self.depth_range,
                                        numbers.Integral)
            lo, hi = spec.depth_range
            if step <= 0:
                raise ConfigError(f"depth_range: step {step} must be > 0")
            if start < lo or stop > hi or stop < start:
                raise ConfigError(
                    f"depth_range: ({start}, {stop}) outside {lo}..{hi}")
        if self.rc and spec.gate_set != CLIFFORD_T:
            raise ConfigError(
                f"rc: {self.benchmark} uses parameterized rotations; "
                "randomized compiling needs a Clifford+T circuit"
            )
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"fmt: {self.fmt!r} is not csv or json")
        points, depths = len(_sweep_params(self)), len(_depths(self))
        if self.trials * points * depths > MAX_TRIAL_RUNS:
            raise ConfigError(f"trials: {self.trials} x {points} sweep points x "
                              f"{depths} depths is over {MAX_TRIAL_RUNS} runs")
        return self


def _check_int(name: str, value, lo: int) -> None:
    if not is_integer(value) or value < lo:
        raise ConfigError(f"{name}: {value!r} must be an integer >= {lo}")


def _triple(name: str, value, kind) -> tuple:
    """(start, stop, step) of numbers of the given kind, not bools, each
    within the float range: a NaN, an infinity or a larger int is refused
    before any check does float arithmetic on it."""
    if (not isinstance(value, (tuple, list)) or len(value) != 3
            or any(isinstance(x, bool) or not isinstance(x, kind)
                   or not abs(x) <= sys.float_info.max for x in value)):
        raise ConfigError(f"{name}: {value!r} is not (start, stop, step)")
    return tuple(value)


def _sweep_params(cfg: ExperimentConfig) -> list[float]:
    if cfg.noise == "none":
        return [0.0]
    if cfg.sweep is not None:
        start, stop, step = cfg.sweep
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(count)]
    levels = cfg.levels if cfg.levels is not None else DEFAULT_LEVELS
    return [LEVEL_PARAMS[cfg.noise][lv] for lv in levels]


def _depths(cfg: ExperimentConfig) -> list[int | None]:
    if cfg.depth_range is None:
        return [None]
    start, stop, step = cfg.depth_range
    return list(range(start, stop + 1, step))


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """All sweep points of the config, each aggregated over cfg.trials runs.

    Per trial: fresh random product input (the QAOA circuits keep their
    fixed all-zeros input), fresh randomized-compiling seed, and for the
    random benchmark a fresh circuit. The noiseless reference is the pure
    state the same circuit makes of the same input: for a random chunk
    without randomized compiling, the noise-free half of the one batch it
    runs; otherwise the ket U psi.

    A fixed (non-random) benchmark is compiled once per depth, before the
    noise sweep, with its noiseless unitary."""
    cfg.validate()
    spec = BENCHMARKS[cfg.benchmark]
    fixed = {}  # depth -> (plan, U^T or None) of a fixed benchmark
    if cfg.benchmark != "random":
        for depth in _depths(cfg):
            plan = benchmark_plan(cfg.benchmark, depth, cfg.rc)
            # Row j is U e_j: the basis states through the noiseless circuit.
            ideal = (None if spec.metric == "expectation_value" else
                     plan.run(np.eye(2 ** spec.n_qubits, dtype=np.complex128)))
            fixed[depth] = (plan, ideal)
    rows = []
    sweep_idx = 0
    for param in _sweep_params(cfg):
        noise = noise_model_for(cfg.noise, param)
        for depth in _depths(cfg):
            values = _trial_values(cfg, sweep_idx, noise, depth,
                                   fixed.get(depth))
            mean = float(np.mean(values))
            stderr = 0.0
            if cfg.trials > 1:
                # Spread about the first value: exactly 0 when all are equal.
                stderr = float(np.std(values - values[0], ddof=1)
                               / np.sqrt(cfg.trials))
            # Swept benchmarks report the requested depth (the sweep point);
            # fixed ones report the built circuit's cycle count.
            row_depth = (depth if depth is not None
                         else fixed[depth][0].letters.shape[1])
            rows.append(ResultRow(
                benchmark=cfg.benchmark,
                noise=cfg.noise,
                param=_round10(param),
                depth=row_depth,
                rc=cfg.rc,
                metric=spec.metric,
                mean=_round10(mean),
                stderr=_round10(stderr),
                trials=cfg.trials,
                seed=cfg.seed,
            ))
            sweep_idx += 1
    rows.sort(key=lambda r: (r.noise, r.param, r.depth, r.rc))
    return rows


def _trial_values(cfg: ExperimentConfig, sweep_idx: int, noise, depth,
                  fixed) -> np.ndarray:
    """Every trial's metric at one sweep point. The trials run TRIAL_CHUNK
    at a time as one batch of real Pauli vectors through the plan: product
    inputs built qubit by qubit, scored off the noisy vectors, a fidelity
    against the pure reference and MaxCut on the diagonal. A random chunk
    without randomized compiling runs its inputs twice in one batch, under
    the noise and noise-free, and its reference is the noise-free half's
    Pauli vectors, checked for trace and purity 1. Elsewhere the reference
    is the ket U psi, checked for norm 1. A random trial with randomized
    compiling runs its own compiled plan. A MaxCut point without randomized
    compiling has one fixed input and one set of maps, so its trials are
    equal: it runs one state for all of them."""
    spec = BENCHMARKS[cfg.benchmark]
    n = spec.n_qubits
    graph = MaxCutGraph.hypercube() if spec.metric == "expectation_value" else None
    equal = graph is not None and not cfg.rc
    step = cfg.trials if equal else TRIAL_CHUNK
    # A trial's input, circuit and RC seeds are children 0, 1 and 2 of
    # SeedSequence((seed, sweep, trial)); derive only those the point reads.
    read = [i for i, used in enumerate((graph is None, fixed is None, cfg.rc))
            if used]
    values = np.empty(cfg.trials)
    for lo in range(0, cfg.trials, step):
        hi = min(lo + step, cfg.trials)
        seeds = dict(zip(read, spawn_children((cfg.seed, sweep_idx),
                                              range(lo, hi), read)))
        input_seeds, circ_seeds, rc_seeds = map(seeds.get, range(3))
        if graph is None:
            factors = random_product_factors(n, input_seeds)
        else:
            factors = np.zeros((1 if equal else hi - lo, n, 2))
            factors[:, :, 0] = 1.0  # |0...0>
        rho = product_pauli(factors)
        if fixed is not None:
            plan, ideal = fixed
            rho = plan.run(rho, noise, rc_seeds)
            if ideal is not None:
                ref = product_kets(factors) @ ideal
                check_norms(ref)
        elif not cfg.rc:
            # One pass: the noisy trials, then the same inputs noise-free.
            plan = random_plan(n, depth, circ_seeds)
            rho, ref = np.split(
                plan.run(np.concatenate([rho, rho]), (noise, NoNoise())), 2)
            check_traces(pauli_diagonals(ref, n).sum(axis=-1))
            check_purities(pauli_fidelities(ref, ref))
        else:
            psi = product_kets(factors)
            ref = np.empty_like(psi)
            letters, flips = _draw_chunk(n, depth, circ_seeds)
            for k, rc_seed in enumerate(rc_seeds):
                plan = plan_of(n, *interleave_letters(
                    letters[k], flips[k], _RANDOM_KEYS), rc=True)
                rho[k] = plan.run(rho[k:k + 1], noise, [rc_seed])[0]
                ref[k] = plan.run(psi[k:k + 1])[0]
            check_norms(ref)
        diagonals = pauli_diagonals(rho, n)
        check_traces(diagonals.sum(axis=-1))
        if graph is not None:
            values[lo:hi] = [maxcut_expectation(d, graph) for d in diagonals]
        else:
            values[lo:hi] = pauli_fidelities(rho, ref)
    return values


# ---------------------------------------------------------------------------
# Serialization.


def _row_record(row: ResultRow) -> dict:
    return {**asdict(row), "rc": "on" if row.rc else "off"}


def _record_row(rec: dict) -> ResultRow:
    return ResultRow(
        benchmark=str(rec["benchmark"]),
        noise=str(rec["noise"]),
        param=float(rec["param"]),
        depth=int(rec["depth"]),
        rc=str(rec["rc"]) == "on",
        metric=str(rec["metric"]),
        mean=float(rec["mean"]),
        stderr=float(rec["stderr"]),
        trials=int(rec["trials"]),
        seed=int(rec["seed"]),
    )


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        rec = _row_record(row)
        lines.append(",".join(
            f"{rec[f]:.10g}" if isinstance(rec[f], float) else str(rec[f])
            for f in _FIELDS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps([_row_record(r) for r in rows], indent=2) + "\n"


def emit(rows: list[ResultRow], fmt: str, path: str) -> None:
    """Write rows to `path` as csv or json."""
    if not rows:
        raise ConfigError("emit: no rows to write")
    if fmt == "csv":
        text = rows_to_csv(rows)
    elif fmt == "json":
        text = rows_to_json(rows)
    else:
        raise ConfigError(f"fmt: {fmt!r} is not csv or json")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_rows_csv(path: str) -> list[ResultRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [_record_row(rec) for rec in reader]


def load_rows_json(path: str) -> list[ResultRow]:
    with open(path) as fh:
        return [_record_row(rec) for rec in json.load(fh)]
