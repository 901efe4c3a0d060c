"""Golden rows: every benchmark x noise kind x rc setting, recomputed and
compared with the CSVs in tests/golden/ at 1e-9.

The CSVs hold the rows of the simulator as it was before the per-qubit
superoperator kernel replaced the per-gate einsums and per-kind channels.
Any refactor of the simulation path must keep them. To regenerate (only when
a change of the numbers is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from qnoisebench.benchmarks import BENCHMARKS
from qnoisebench.circuits import CLIFFORD_T
from qnoisebench.harness import (
    ExperimentConfig,
    load_rows_csv,
    rows_to_csv,
    run_experiment,
)
from qnoisebench.noise import NOISE_KINDS

GOLDEN = Path(__file__).with_name("golden")
TOL = 1e-9
DEPTH = 10  # the one depth point of the sweepable benchmarks


def golden_configs() -> list[ExperimentConfig]:
    configs = []
    for bench, spec in BENCHMARKS.items():
        rcs = (False, True) if spec.gate_set == CLIFFORD_T else (False,)
        depth_range = (DEPTH, DEPTH, 1) if spec.depth_range else None
        for noise in NOISE_KINDS + ("none",):
            levels = None if noise == "none" else (3,)
            for rc in rcs:
                configs.append(ExperimentConfig(
                    benchmark=bench, noise=noise, levels=levels, rc=rc,
                    trials=2, depth_range=depth_range, seed=0))
    return configs


def _id(cfg: ExperimentConfig) -> str:
    return f"{cfg.benchmark}-{cfg.noise}-rc{'on' if cfg.rc else 'off'}"


@pytest.mark.parametrize("cfg", golden_configs(), ids=_id)
def test_rows_match_golden(cfg):
    want = [r for r in load_rows_csv(str(GOLDEN / f"{cfg.benchmark}.csv"))
            if r.noise == cfg.noise and r.rc == cfg.rc]
    got = run_experiment(cfg)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert (g.benchmark, g.noise, g.param, g.depth, g.rc, g.metric,
                g.trials, g.seed) == (w.benchmark, w.noise, w.param, w.depth,
                                      w.rc, w.metric, w.trials, w.seed)
        assert abs(g.mean - w.mean) <= TOL
        assert abs(g.stderr - w.stderr) <= TOL


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    by_bench: dict[str, list] = {}
    for cfg in golden_configs():
        by_bench.setdefault(cfg.benchmark, []).extend(run_experiment(cfg))
        print(_id(cfg), flush=True)
    for bench, rows in by_bench.items():
        (GOLDEN / f"{bench}.csv").write_text(rows_to_csv(rows))
