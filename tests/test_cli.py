"""CLI entry point, exercised through main(argv)."""

import json

import pytest

from qnoisebench.cli import main
from qnoisebench.harness import CSV_HEADER, load_rows_csv, load_rows_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **fields):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields))
    return str(path)


def test_list_shows_benchmarks_and_noise(capsys):
    code, out, err = run_cli(capsys, "list")
    assert code == 0
    assert err == ""
    for name in ("idle", "random", "adder", "qft", "qft_ct", "qaoa",
                 "qaoa_ct", "pauli", "coherent", "pauli_coherent",
                 "amplitude_damping", "none"):
        assert name in out


def test_run_writes_csv_to_stdout(capsys, tmp_path):
    cfg = write_config(tmp_path, benchmark="idle", noise="pauli",
                       levels=[0, 1], trials=2, depth_range=[10, 10, 1])
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_run_writes_file(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, benchmark="idle", noise="none", trials=1,
                       depth_range=[5, 5, 1])
    code, out, _ = run_cli(capsys, "run", "--config", cfg,
                           "--out", str(out_path))
    assert code == 0
    assert "wrote 1 rows" in out
    rows = load_rows_csv(str(out_path))
    assert rows[0].mean == 1.0


def test_run_json_format(capsys, tmp_path):
    out_path = tmp_path / "rows.json"
    cfg = write_config(tmp_path, benchmark="idle", noise="none", trials=1,
                       depth_range=[5, 5, 1])
    code, _, _ = run_cli(capsys, "run", "--config", cfg,
                         "--out", str(out_path), "--format", "json")
    assert code == 0
    assert load_rows_json(str(out_path))[0].benchmark == "idle"


def test_flags_override_config(capsys, tmp_path):
    cfg = write_config(tmp_path, benchmark="idle", noise="pauli",
                       levels=[1], trials=5, depth_range=[10, 10, 1])
    code, out, _ = run_cli(capsys, "run", "--config", cfg, "--trials", "2",
                           "--noise", "none")
    assert code == 0
    line = out.splitlines()[1]
    assert line.startswith("idle,none,")
    assert ",2," in line  # trials column


def test_flags_alone_suffice(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run", "--benchmark", "qft",
                           "--noise", "none", "--trials", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("qft,none,0,28,off,")


@pytest.mark.parametrize("fields", [
    dict(noise="pauli"),                               # benchmark missing
    dict(benchmark="idle"),                            # noise missing
    dict(benchmark="idle", noise="pauli", extra=1),    # unknown field
    dict(benchmark="nope", noise="pauli"),             # bad benchmark
    dict(benchmark="idle", noise="pauli"),             # depth_range missing
    dict(benchmark="qft_ct", noise="pauli", rc="off"),  # rc not a bool
    dict(benchmark="qft", noise="pauli", trials=2.5),  # fractional trials
    dict(benchmark="qft", noise="pauli", seed=-1),     # negative seed
    dict(benchmark="qft", noise="pauli", levels=[1.7]),  # fractional level
    dict(benchmark="qft", noise="pauli", sweep=[0.5, 2, 0.5]),  # p > 1
    dict(benchmark="idle", noise="pauli", depth_range=[2, 10]),  # 2 of 3
    dict(benchmark="qft", noise="pauli", levels=3),    # level not a list
    dict(benchmark="qft", noise="pauli", sweep=[0, 1e999, 0.1]),  # infinite
])
def test_bad_configs_exit_2(capsys, tmp_path, fields):
    cfg = write_config(tmp_path, **fields)
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert code == 2
    assert err.startswith("config error:")
    assert out == ""


def test_unreadable_and_invalid_config_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--config",
                           str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "run", "--config", str(bad))
    assert code == 2
    assert "not valid JSON" in err
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "run", "--config", str(arr))
    assert code == 2
