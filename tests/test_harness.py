"""Experiment harness: config validation, determinism, file round trips."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from qnoisebench.errors import ConfigError, IoError
from qnoisebench.harness import (
    CSV_HEADER,
    MAX_TRIAL_RUNS,
    ExperimentConfig,
    ResultRow,
    emit,
    load_rows_csv,
    load_rows_json,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)


def idle_cfg(**kw):
    base = dict(benchmark="idle", noise="pauli", levels=(0, 1),
                trials=2, depth_range=(10, 10, 1))
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Validation.


def test_validate_accepts_good_config():
    assert idle_cfg().validate() is not None


@pytest.mark.parametrize("kw,field", [
    (dict(benchmark="teleport"), "benchmark"),
    (dict(noise="thermal"), "noise"),
    (dict(levels=(0,), sweep=(0.0, 0.01, 0.01)), "levels/sweep"),
    (dict(levels=()), "levels"),
    (dict(levels=(0, 5)), "levels"),
    (dict(levels=None, sweep=(0.0, 0.03, 0.0)), "sweep"),
    (dict(levels=None, sweep=(0.03, 0.0, 0.01)), "sweep"),
    (dict(trials=0), "trials"),
    (dict(depth_range=None), "depth_range"),
    (dict(depth_range=(10, 10, 0)), "depth_range"),
    (dict(depth_range=(1, 10, 2)), "depth_range"),
    (dict(depth_range=(10, 80, 10)), "depth_range"),
    (dict(fmt="xml"), "fmt"),
    (dict(trials=10 ** 13), "trials"),
])
def test_validate_rejects_bad_fields(kw, field):
    with pytest.raises(ConfigError, match=field):
        idle_cfg(**kw).validate()


def test_validate_fixed_depth_benchmarks():
    cfg = ExperimentConfig(benchmark="qft", noise="pauli",
                           depth_range=(2, 10, 2))
    with pytest.raises(ConfigError, match="depth_range"):
        cfg.validate()
    ok = ExperimentConfig(benchmark="qft", noise="pauli", trials=1)
    assert ok.validate() is ok


def test_validate_rc_requires_clifford_t():
    cfg = ExperimentConfig(benchmark="qaoa", noise="pauli", rc=True, trials=1)
    with pytest.raises(ConfigError, match="rc"):
        cfg.validate()
    ok = ExperimentConfig(benchmark="qaoa_ct", noise="pauli", rc=True, trials=1)
    assert ok.validate() is ok


def test_validate_caps_total_trial_runs():
    """Trials x sweep points x depths may reach MAX_TRIAL_RUNS, not pass it;
    the error names the product. The perfbench workloads and the README's
    example config fit well inside."""
    trials = MAX_TRIAL_RUNS // 6  # 2 levels x 3 depths
    at_cap = idle_cfg(levels=(0, 1), depth_range=(10, 14, 2), trials=trials)
    assert at_cap.validate() is at_cap
    over = idle_cfg(levels=(0, 1), depth_range=(10, 14, 2), trials=trials + 1)
    with pytest.raises(ConfigError, match=(
            rf"{trials + 1} x 2 sweep points x 3 depths is over "
            rf"{MAX_TRIAL_RUNS} runs")):
        over.validate()
    sweep = ExperimentConfig(benchmark="qft", noise="pauli",
                             sweep=(0.0, 0.0998, 0.0001), trials=20_000)
    with pytest.raises(ConfigError, match="999 sweep points"):
        sweep.validate()
    readme = dict(benchmark="random", noise="pauli", levels=(0, 1, 2, 3),
                  trials=100, depth_range=(2, 30, 4), seed=7)
    workloads = Path(__file__).parents[1] / "perfbench" / "workloads"
    for fields in [readme] + [json.loads(p.read_text())
                              for p in sorted(workloads.glob("*.json"))]:
        fields = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in fields.items()}
        cfg = ExperimentConfig(**fields)
        assert cfg.validate() is cfg


# ---------------------------------------------------------------------------
# Runs.


def test_header_golden():
    assert CSV_HEADER == "benchmark,noise,param,depth,rc,metric,mean,stderr,trials,seed"


def test_single_point_run_shape():
    rows = run_experiment(idle_cfg(levels=(1,)))
    assert len(rows) == 1
    row = rows[0]
    assert row.benchmark == "idle"
    assert row.noise == "pauli"
    assert row.param == pytest.approx(0.01)
    assert row.depth == 10
    assert row.metric == "process_fidelity"
    assert row.trials == 2
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("idle,pauli,0.01,10,off,process_fidelity,")


def test_level_zero_gives_unit_fidelity():
    rows = run_experiment(idle_cfg(levels=(0,)))
    assert rows[0].mean == 1.0
    assert rows[0].stderr < 1e-12


def test_runs_are_deterministic():
    cfg = idle_cfg(levels=(1, 2), trials=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    assert rows_to_csv(a) == rows_to_csv(b)


def test_seed_changes_results():
    # Amplitude damping depends on the input direction (symmetric Pauli on
    # an idle circuit does not), so a new master seed moves the mean.
    base = run_experiment(idle_cfg(noise="amplitude_damping", levels=(2,),
                                   trials=3))
    moved = run_experiment(idle_cfg(noise="amplitude_damping", levels=(2,),
                                    trials=3, seed=1))
    assert base[0].mean != moved[0].mean


def test_fidelity_decays_with_strength_and_depth():
    cfg = idle_cfg(levels=(1, 3), trials=10, depth_range=(10, 70, 30))
    rows = run_experiment(cfg)
    assert len(rows) == 6
    by_param = {}
    for r in rows:
        by_param.setdefault(r.param, []).append(r)
    for param, group in by_param.items():
        means = [r.mean for r in sorted(group, key=lambda r: r.depth)]
        assert means[0] > means[1] > means[2]
    weak = [r.mean for r in rows if r.param == pytest.approx(0.01)]
    strong = [r.mean for r in rows if r.param == pytest.approx(0.03)]
    assert all(w > s for w, s in zip(weak, strong))


def test_rows_come_back_sorted():
    cfg = idle_cfg(levels=(3, 0, 1), trials=1, depth_range=(10, 40, 30))
    rows = run_experiment(cfg)
    keys = [(r.noise, r.param, r.depth, r.rc) for r in rows]
    assert keys == sorted(keys)


def test_sweep_params_quantized():
    cfg = idle_cfg(levels=None, sweep=(0.0, 0.03, 0.01), trials=1)
    rows = run_experiment(cfg)
    assert [r.param for r in rows] == [0.0, 0.01, 0.02, 0.03]
    text = rows_to_csv(rows)
    assert ",0.01," in text and ",0.02," in text


def test_none_noise_single_param():
    rows = run_experiment(idle_cfg(noise="none", levels=None, trials=1))
    assert len(rows) == 1
    assert rows[0].param == 0.0
    assert rows[0].mean == 1.0


def test_random_benchmark_with_rc():
    cfg = ExperimentConfig(benchmark="random", noise="pauli", levels=(1,),
                           rc=True, trials=3, depth_range=(4, 4, 1))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].rc is True
    assert 0.0 < rows[0].mean <= 1.0
    assert ",on," in rows_to_csv(rows)


def test_rc_rewrites_each_trial_once(monkeypatch):
    """Only the noisy run is randomly compiled, once per trial: the plan's
    chunk draw takes cfg.trials seeds per sweep point, and the noiseless
    reference, which runs the plain circuit, draws nothing."""
    from qnoisebench import compiling

    calls = []
    real = compiling.Twirl.draw

    def counting(self, seeds):
        calls.extend(seeds)
        return real(self, seeds)

    monkeypatch.setattr(compiling.Twirl, "draw", counting)
    cfg = ExperimentConfig(benchmark="qft_ct", noise="pauli", levels=(1, 2),
                           rc=True, trials=3)
    rows = run_experiment(cfg)
    assert len(calls) == len(rows) * cfg.trials


@pytest.mark.parametrize("bench,trials,chunk", [
    ("qft_ct", 35, None),  # a full chunk and a partial one
    ("adder", 5, 2),
    ("random", 35, None),
    ("random", 5, 2),
])
@pytest.mark.parametrize("rc", [True, False])
def test_batched_point_equals_per_trial_simulate(monkeypatch, bench, trials,
                                                 chunk, rc):
    """Every trial's fidelity from the batched sweep point equals the one
    two per-trial `simulate` calls give from the same seeds."""
    from qnoisebench import harness
    from qnoisebench.benchmarks import BENCHMARKS, build_benchmark
    from qnoisebench.circuits import simulate
    from qnoisebench.compiling import interleave_idle
    from qnoisebench.metrics import process_fidelity
    from qnoisebench.noise import noise_level_table
    from qnoisebench.states import ket_to_density, random_product_state

    if chunk is not None:
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
    got = []
    real = harness._trial_values

    def recording(*args):
        values = real(*args)
        got.extend(values)
        return values

    monkeypatch.setattr(harness, "_trial_values", recording)
    depth = 12 if bench == "random" else None
    cfg = ExperimentConfig(benchmark=bench, noise="pauli_coherent",
                           levels=(3,), rc=rc, trials=trials, seed=5,
                           depth_range=(depth, depth, 1) if depth else None)
    run_experiment(cfg)
    noise = noise_level_table("pauli_coherent", 3)
    n = BENCHMARKS[bench].n_qubits
    want = []
    for t in range(trials):
        input_seed, circ_seed, rc_seed = np.random.SeedSequence(
            (5, 0, t)).spawn(3)
        circ = build_benchmark(bench, depth=depth, seed=circ_seed)
        if rc and bench == "random":
            circ = interleave_idle(circ)
        state = ket_to_density(random_product_state(n, seed=input_seed))
        noisy = simulate(circ, state, noise=noise, rc=rc, seed=rc_seed)
        want.append(process_fidelity(simulate(circ, state), noisy))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bench,rc", [
    ("random", False), ("random", True), ("qft_ct", False), ("qft_ct", True),
    ("adder", False),
])
def test_reference_is_a_pure_state_not_a_simulation(monkeypatch, bench, rc):
    """The harness takes its reference from a ket pass: it runs no noiseless
    density-matrix simulation and no `process_fidelity`."""
    from qnoisebench import circuits, harness, metrics

    def forbidden(*args, **kwargs):
        raise AssertionError("density-matrix reference on the harness path")

    for module, name in ((harness, "simulate"), (circuits, "simulate"),
                         (harness, "process_fidelity"),
                         (metrics, "process_fidelity")):
        monkeypatch.setattr(module, name, forbidden)
    depth = (6, 6, 1) if bench == "random" else None
    rows = run_experiment(ExperimentConfig(
        benchmark=bench, noise="pauli", levels=(1,), rc=rc, trials=3,
        depth_range=depth))
    assert len(rows) == 1 and 0.0 < rows[0].mean <= 1.0


@pytest.mark.parametrize("rc", [False, True])
def test_random_trials_compile_at_most_once(monkeypatch, rc):
    """Without RC the random trials are drawn straight into one plan per
    chunk; with RC each trial's interleaved letters are planned once."""
    from qnoisebench import harness

    calls = []
    real = harness.plan_of

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "plan_of", counting)
    cfg = ExperimentConfig(benchmark="random", noise="pauli", levels=(1, 2),
                           rc=rc, trials=5, depth_range=(4, 8, 4))
    rows = run_experiment(cfg)
    assert len(calls) == (len(rows) * cfg.trials if rc else 0)


@pytest.mark.parametrize("bench,rc,depth,read", [
    ("random", False, (4, 4, 1), (0, 1)),
    ("random", True, (4, 4, 1), (0, 1, 2)),
    ("idle", False, (4, 4, 1), (0,)),
    ("idle", True, (4, 4, 1), (0, 2)),
    ("qaoa", False, None, ()),
])
def test_one_seed_sequence_per_trial(monkeypatch, bench, rc, depth, read):
    """No branch constructs an `np.random.SeedSequence`, and every branch
    hands on only the children it reads, each equal to numpy's: the input
    (0), circuit (1) and RC (2) children of
    `SeedSequence((seed, sweep, trial)).spawn(3)`, compared by
    `generate_state(4, np.uint64)`."""
    from qnoisebench import circuits, harness

    made, handed = [], {0: [], 1: [], 2: []}
    real_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return real_sequence(*args, **kwargs)

    def recording(module, name, child):
        real = getattr(module, name)
        signature = inspect.signature(real)

        def wrapper(*args, **kwargs):
            seeds = signature.bind(*args, **kwargs).arguments.get("seeds")
            if seeds is not None:
                handed[child].extend(seeds)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    recording(harness, "random_product_factors", 0)
    recording(harness, "random_plan", 1)
    recording(harness, "_draw_chunk", 1)
    recording(circuits.CircuitPlan, "run", 2)
    trials = 3
    run_experiment(ExperimentConfig(
        benchmark=bench, noise="pauli", levels=(1, 2), rc=rc, trials=trials,
        depth_range=depth, seed=7))
    monkeypatch.setattr(np.random, "SeedSequence", real_sequence)
    assert made == []
    keys = [(7, sweep, t) for sweep in range(2) for t in range(trials)]
    for child, seeds in handed.items():
        want = ([real_sequence(key).spawn(3)[child] for key in keys]
                if child in read else [])
        assert [s.generate_state(4, np.uint64).tolist() for s in seeds] == [
            w.generate_state(4, np.uint64).tolist() for w in want]


@pytest.mark.parametrize("bench,rc", [
    ("random", False), ("random", True), ("qft_ct", True), ("qaoa_ct", False),
])
def test_non_trace_preserving_map_raises(monkeypatch, bench, rc):
    """A channel that adds 1% weight per cycle leaves the simulator with a
    trace off 1, and the harness stops with InvalidState."""
    from qnoisebench import noise
    from qnoisebench.errors import InvalidState

    real = noise.superoperator
    monkeypatch.setattr(noise, "superoperator",
                        lambda model: 1.01 * real(model))
    depth = (6, 6, 1) if bench == "random" else None
    cfg = ExperimentConfig(benchmark=bench, noise="pauli", levels=(1,), rc=rc,
                           trials=2, depth_range=depth)
    with pytest.raises(InvalidState, match="trace"):
        run_experiment(cfg)


@pytest.mark.parametrize("bench,rc", [
    ("random", False), ("random", True), ("qft_ct", False),
])
def test_non_unitary_reference_raises(monkeypatch, bench, rc):
    """A reference pass whose maps are not unitary leaves kets of norm off
    1, or, for a random chunk without RC, whose reference is the noise-free
    block of its one batch, Pauli vectors of trace off 1. Either way the
    harness stops with InvalidState."""
    from qnoisebench.circuits import CircuitPlan
    from qnoisebench.errors import InvalidState

    monkeypatch.setattr(CircuitPlan, "_compose",
                        scaled_noise_free_maps(CircuitPlan._compose, 1.01))
    depth = (6, 6, 1) if bench == "random" else None
    cfg = ExperimentConfig(benchmark=bench, noise="pauli", levels=(1,), rc=rc,
                           trials=2, depth_range=depth)
    one_pass = bench == "random" and not rc
    with pytest.raises(InvalidState, match="trace" if one_pass else "norm"):
        run_experiment(cfg)


def scaled_noise_free_maps(real, factor):
    """`CircuitPlan._compose` with its ket maps, and the maps of the
    noise-free blocks of a tuple of models, times `factor` (a number, or an
    array that broadcasts over a 4x4 map)."""
    from qnoisebench.noise import NoNoise

    def scaled(self, noise=NoNoise(), *args, ket=False, **kwargs):
        maps = real(self, noise, *args, ket=ket, **kwargs)
        if ket:
            return factor * maps
        if not isinstance(noise, tuple):
            return maps
        return np.concatenate([
            factor * block if isinstance(model, NoNoise) else block
            for model, block in zip(noise, np.split(maps, len(noise)))])

    return scaled


def test_a_mixed_noise_free_block_raises(monkeypatch):
    """A noise-free block whose maps keep the trace but shrink every Bloch
    component by 1% (depolarizing, so not unitary) leaves a random chunk's
    reference with purity off 1, and the harness stops with InvalidState."""
    from qnoisebench.circuits import CircuitPlan
    from qnoisebench.errors import InvalidState

    shrink = np.array([1.0, 0.99, 0.99, 0.99])[:, None]  # rows of the map
    monkeypatch.setattr(CircuitPlan, "_compose",
                        scaled_noise_free_maps(CircuitPlan._compose, shrink))
    cfg = ExperimentConfig(benchmark="random", noise="pauli", levels=(1,),
                           trials=2, depth_range=(6, 6, 1))
    with pytest.raises(InvalidState, match="purity"):
        run_experiment(cfg)


def test_a_random_chunk_without_rc_runs_its_plan_once(monkeypatch):
    """A random chunk without RC makes one `CircuitPlan.run` call, its
    inputs twice under (noise, NoNoise()), and builds no reference kets."""
    from qnoisebench import harness
    from qnoisebench.circuits import CircuitPlan
    from qnoisebench.noise import NoNoise, PauliNoise

    calls = []
    real = CircuitPlan.run

    def recording(self, states, noise=NoNoise(), seeds=None):
        calls.append((len(self.letters), len(states), noise, seeds))
        return real(self, states, noise, seeds)

    def no_kets(factors):
        raise AssertionError("a random chunk without RC built reference kets")

    monkeypatch.setattr(CircuitPlan, "run", recording)
    monkeypatch.setattr(harness, "product_kets", no_kets)
    cfg = ExperimentConfig(benchmark="random", noise="pauli", levels=(1,),
                           trials=5, depth_range=(4, 4, 1))
    run_experiment(cfg)
    assert len(calls) == 1
    (trials, batch, (noisy, clean), seeds), = calls
    assert (trials, batch, seeds) == (5, 10, None)
    assert isinstance(noisy, PauliNoise) and clean == NoNoise()


def test_fixed_benchmark_built_once_per_config(monkeypatch):
    """Every noise level of a fixed benchmark runs the one plan built
    before the sweep."""
    from qnoisebench import harness

    calls = []
    real = harness.benchmark_plan

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "benchmark_plan", counting)
    cfg = ExperimentConfig(benchmark="qft_ct", noise="pauli",
                           levels=(0, 1, 2), trials=1)
    rows = run_experiment(cfg)
    assert len(rows) == 3
    assert len(calls) == 1


def test_qaoa_expectation_metric():
    cfg = ExperimentConfig(benchmark="qaoa", noise="none", trials=1)
    rows = run_experiment(cfg)
    assert rows[0].metric == "expectation_value"
    assert rows[0].depth == 11
    assert rows[0].mean == pytest.approx(6.0 + 4.0 / np.sqrt(3.0), abs=1e-6)
    assert rows[0].stderr == 0.0


@pytest.mark.parametrize("rc,trials,rows",
                         [(False, 5, 1), (False, 100, 1), (True, 3, 3)])
def test_qaoa_point_without_rc_runs_one_state(monkeypatch, rc, trials, rows):
    """Without RC every qaoa_ct trial has the |0...0> input and the same
    maps, so the plan runs one state once for them all, however many chunks
    the trials span; with RC one per trial."""
    from qnoisebench.circuits import CircuitPlan

    sizes = []
    real = CircuitPlan.run

    def recording(self, v, *args):
        sizes.append(len(v))
        return real(self, v, *args)

    monkeypatch.setattr(CircuitPlan, "run", recording)
    cfg = ExperimentConfig(benchmark="qaoa_ct", noise="pauli", levels=(1,),
                           rc=rc, trials=trials)
    assert len(run_experiment(cfg)) == 1
    assert sizes == [rows]


def count_conversions(monkeypatch):
    """Counters on the matrix conversions and Hermiticity checks, wherever a
    module looks them up."""
    from qnoisebench import circuits, linalg, states

    calls = {"to_pauli": 0, "from_pauli": 0, "is_hermitian": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for module in (circuits, linalg, states):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("rc", [False, True])
def test_qaoa_point_runs_pauli_vectors_without_conversions(monkeypatch, rc):
    """A qaoa_ct point builds its |0...0> input as a Pauli vector, runs it
    and reads MaxCut off the vector's diagonal: no `to_pauli`, `from_pauli`
    or `is_hermitian` call; the rows match a run without the counters."""
    cfg = ExperimentConfig(benchmark="qaoa_ct", noise="amplitude_damping",
                           levels=(3,), rc=rc, trials=2)
    want = run_experiment(cfg)
    calls = count_conversions(monkeypatch)
    assert run_experiment(cfg) == want
    assert calls == {"to_pauli": 0, "from_pauli": 0, "is_hermitian": 0}


@pytest.mark.parametrize("bench,rc", [("qft_ct", True), ("random", False),
                                      ("random", True)])
def test_fidelity_points_convert_only_the_reference(monkeypatch, bench, rc):
    """A fidelity point converts only its reference kets, one `to_pauli` for
    the chunk: the noisy states stay Pauli vectors, with no `from_pauli` and
    no Hermiticity check. A random chunk without RC converts nothing: its
    reference is the noise-free half of its batch, Pauli vectors already."""
    depth = None if bench == "qft_ct" else (3, 3, 1)
    cfg = ExperimentConfig(benchmark=bench, noise="pauli", levels=(1,), rc=rc,
                           trials=3, depth_range=depth)
    calls = count_conversions(monkeypatch)
    run_experiment(cfg)
    kets = 0 if bench == "random" and not rc else 1
    assert calls == {"to_pauli": kets, "from_pauli": 0, "is_hermitian": 0}


def test_equal_trials_have_zero_stderr():
    """100 bit-identical qaoa_ct values (RC off) report a stderr of exactly 0,
    not the rounding of their mean."""
    cfg = ExperimentConfig(benchmark="qaoa_ct", noise="pauli", levels=(1,),
                           trials=100)
    assert run_experiment(cfg)[0].stderr == 0.0


def test_fixed_benchmark_reports_built_depth():
    cfg = ExperimentConfig(benchmark="qft", noise="none", trials=1)
    rows = run_experiment(cfg)
    assert rows[0].depth == 28
    assert rows[0].mean == 1.0


# ---------------------------------------------------------------------------
# Serialization.


def test_csv_round_trip(tmp_path):
    rows = run_experiment(idle_cfg(levels=(0, 2), trials=3,
                                   depth_range=(2, 10, 4)))
    path = tmp_path / "out.csv"
    emit(rows, "csv", str(path))
    assert path.read_text() == rows_to_csv(rows)
    assert load_rows_csv(str(path)) == rows


def test_json_round_trip(tmp_path):
    rows = run_experiment(idle_cfg(levels=(0, 2), trials=3))
    path = tmp_path / "out.json"
    emit(rows, "json", str(path))
    assert path.read_text() == rows_to_json(rows)
    assert load_rows_json(str(path)) == rows


def test_csv_and_json_agree(tmp_path):
    rows = run_experiment(idle_cfg(levels=(1,), trials=2))
    cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
    emit(rows, "csv", str(cpath))
    emit(rows, "json", str(jpath))
    assert load_rows_csv(str(cpath)) == load_rows_json(str(jpath))


def test_emit_rejects_empty_and_bad_paths(tmp_path):
    rows = [ResultRow("idle", "none", 0.0, 10, False, "process_fidelity",
                      1.0, 0.0, 1, 0)]
    with pytest.raises(ConfigError):
        emit([], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError):
        emit(rows, "xml", str(tmp_path / "x.xml"))
    with pytest.raises(IoError):
        emit(rows, "csv", str(tmp_path / "missing" / "x.csv"))
