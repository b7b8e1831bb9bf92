import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twoscale import cli, predict_full

SYS_A_DOC = {
    "n": 1,
    "m": 1,
    "A11": [[2.0]],
    "A12": [[1.0]],
    "A21": [[1.0]],
    "A22": [[1.0]],
    "b1": [1.0],
    "b2": [2.0],
    "noise": {
        "Gamma11": [[1.0]],
        "Gamma12": [[0.0]],
        "Gamma22": [[1.0]],
        "distribution": "gaussian",
    },
    "beta": {"base": 1.0, "tau": 10.0, "alpha": 1.0},
    "gamma": {"base": 1.0, "tau": 10.0, "alpha": 0.7},
}


def parse_matrix_csv(lines) -> dict[str, np.ndarray]:
    """Matrices of a predict CSV (matrix,row,col,value lines), keyed by name."""
    cells: dict[str, dict[tuple[int, int], float]] = {}
    for row in csv.DictReader(lines):
        cells.setdefault(row["matrix"], {})[int(row["row"]), int(row["col"])] = float(row["value"])
    out = {}
    for name, entries in cells.items():
        out[name] = np.zeros([1 + max(ix) for ix in zip(*entries)])
        for ix, v in entries.items():
            out[name][ix] = v
    return out


@pytest.fixture
def sys_a_config(tmp_path):
    path = tmp_path / "sys_a.json"
    path.write_text(json.dumps(SYS_A_DOC))
    return str(path)


@pytest.fixture
def mc_config(tmp_path):
    doc = dict(SYS_A_DOC)
    doc["beta"] = {"base": 1.0, "tau": 1.0, "alpha": 1.0}
    path = tmp_path / "sys_a_mc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mc_rademacher_config(tmp_path):
    # Per-step noise: the ensemble route that runs its chunks on a thread pool.
    doc = dict(SYS_A_DOC)
    doc["beta"] = {"base": 1.0, "tau": 1.0, "alpha": 1.0}
    doc["noise"] = dict(SYS_A_DOC["noise"], distribution="scaled-rademacher")
    path = tmp_path / "sys_a_mc_rademacher.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_passes(sys_a_config, capsys):
    assert cli.main(["validate", "--config", sys_a_config]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_validate_singular_fast_block_exits_2(tmp_path):
    doc = dict(SYS_A_DOC)
    doc["A22"] = [[0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 2


def test_validate_unstable_shifted_drift_exits_2(tmp_path):
    doc = dict(SYS_A_DOC)
    doc["beta"] = {"base": 1.0 / 3.0, "tau": 1.0, "alpha": 1.0}  # limit 3
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 2


def test_malformed_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--config", str(path)]) == 1


@pytest.mark.parametrize(
    "doc",
    [[1], dict(SYS_A_DOC, run=[1]), dict(SYS_A_DOC, run={"steps": 5})],
    ids=["top-level-list", "run-list", "run-object"],
)
def test_non_object_config_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "not_object.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "malformed configuration: " in capsys.readouterr().err


def test_averaging_non_object_config_exits_1(tmp_path, capsys):
    path = tmp_path / "avg_list.json"
    path.write_text("[1]")
    assert cli.main(["averaging", "--config", str(path)]) == 1
    assert "configuration must be a JSON object" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 1


def test_missing_key_exits_1(tmp_path):
    doc = dict(SYS_A_DOC)
    del doc["A11"]
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1


def test_predict_round_trips_full_precision(sys_a_config, tmp_path, capsys):
    out_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--config", sys_a_config, "--out", str(out_path)]) == 0
    parsed = parse_matrix_csv(out_path.read_text().splitlines())

    from twoscale import SystemSpec

    spec = SystemSpec.from_dict(SYS_A_DOC)
    pred = predict_full(spec, 0.1)
    for name, expected in (
        ("Sigma11", pred.Sigma11),
        ("Sigma12", pred.Sigma12),
        ("Sigma22", pred.Sigma22),
        ("Q", pred.Q),
        ("Delta", pred.Delta),
    ):
        assert np.array_equal(parsed[name], expected), name
    assert parsed["Sigma11"][0, 0] == pytest.approx(2.0 / 1.9)
    assert "Sigma11_reduced" in parsed and "G_opt" in parsed and "Sigma11_opt" in parsed


# `predict --out` for system A, byte for byte.
SYS_A_PREDICT_CSV = """\
matrix,row,col,value
Delta,0,0,1
Q,0,0,2
Sigma11,0,0,1.0526315789473684
Sigma12,0,0,-0.5
Sigma22,0,0,0.5
Sigma11_reduced,0,0,1.0526315789473684
Sigma11_opt,0,0,2
G1_opt,0,0,1
G_opt,0,0,1
G_opt,0,1,-1
G_opt,1,0,-1
G_opt,1,1,2
"""


def test_predict_out_bytes_are_pinned(sys_a_config, tmp_path):
    out_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--config", sys_a_config, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == SYS_A_PREDICT_CSV.encode()


def test_predict_zero_noise_config(tmp_path):
    doc = dict(SYS_A_DOC)
    doc["noise"] = {"Gamma11": [[0.0]], "Gamma12": [[0.0]], "Gamma22": [[0.0]]}
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--config", str(path), "--out", str(out_path)]) == 0
    parsed = parse_matrix_csv(out_path.read_text().splitlines())
    assert np.all(parsed["Sigma11"] == 0.0)
    assert np.all(parsed["Sigma22"] == 0.0)


def test_predict_refuses_single_time_scale_config(tmp_path, capsys):
    doc = dict(SYS_A_DOC)
    doc["beta"] = {"base": 0.5, "tau": 10.0, "alpha": 0.7}  # epsilon = 0.5
    doc["gamma"] = {"base": 1.0, "tau": 10.0, "alpha": 0.7}
    path = tmp_path / "single_scale.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["predict", "--config", str(path), "--out", str(tmp_path / "p.csv")]) == 2
    captured = capsys.readouterr()
    assert "time-scale-separation" in captured.out + captured.err


@pytest.mark.parametrize("mode", ["propagate", "ensemble", "normality"])
def test_run_refuses_single_time_scale_before_computing(tmp_path, capsys, monkeypatch, mode):
    def not_called(*args, **kwargs):
        raise AssertionError("the run started before epsilon > 0 was refused")

    monkeypatch.setattr(cli.engine, "run_ensemble", not_called)
    monkeypatch.setattr(cli.engine, "propagate_covariance", not_called)
    doc = dict(SYS_A_DOC)
    doc["beta"] = {"base": 0.5, "tau": 10.0, "alpha": 0.7}  # epsilon = 0.5
    doc["gamma"] = {"base": 1.0, "tau": 10.0, "alpha": 0.7}
    path = tmp_path / "single_scale.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path), "--mode", mode]) == 2
    assert "time-scale-separation" in capsys.readouterr().out


def test_run_propagate_converges(sys_a_config, tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code = cli.main(
        ["run", "--config", sys_a_config, "--mode", "propagate",
         "--steps", "1000000", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("k,beta,gamma,S11_0_0")
    assert len(lines) == 6  # header + checkpoints 100..1e6


def test_run_propagate_short_horizon_fails_tolerance(sys_a_config, tmp_path):
    code = cli.main(
        ["run", "--config", sys_a_config, "--mode", "propagate",
         "--steps", "500", "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2


def test_run_ensemble_small(mc_config, tmp_path, capsys):
    out_path = tmp_path / "stats.csv"
    code = cli.main(
        ["run", "--config", mc_config, "--mode", "ensemble",
         "--replicas", "600", "--steps", "3000", "--seed", "4", "--out", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out
    header = out_path.read_text().splitlines()[0]
    assert header == "k,beta,gamma,S11_0_0,S12_0_0,S22_0_0"


def test_run_normality_small(mc_config, tmp_path):
    code = cli.main(
        ["run", "--config", mc_config, "--mode", "normality",
         "--replicas", "400", "--steps", "3000", "--seed", "0"]
    )
    assert code == 0


def test_run_transformed_check(sys_a_config):
    code = cli.main(
        ["run", "--config", sys_a_config, "--mode", "transformed-check", "--steps", "2000"]
    )
    assert code == 0


@pytest.mark.parametrize(
    "tau, steps, code, expected",
    [
        (1.0, "40", 0, "decoupling start index: 1 after 1 retries"),
        (1e12, "3", 2, "singular at step"),
    ],
)
def test_run_transformed_check_reports_start_retries(tmp_path, capsys, tau, steps, code, expected):
    # Unit first steps make step 0 singular: tau 1 recovers from k0 = 1,
    # tau 1e12 keeps every start singular until the retry passes K.
    doc = dict(SYS_A_DOC)
    doc["beta"] = {"base": 1.0, "tau": tau, "alpha": 1.0}
    doc["gamma"] = {"base": 1.0, "tau": tau, "alpha": 0.7}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    argv = ["run", "--config", str(path), "--mode", "transformed-check", "--skip-validate"]
    assert cli.main(argv + ["--steps", steps]) == code
    captured = capsys.readouterr()
    assert expected in captured.out + captured.err


def test_run_divergent_config_reports_step(tmp_path, capsys):
    doc = dict(SYS_A_DOC)
    doc["A11"] = [[-2.0]]  # reduced drift -3: unstable
    doc["beta"] = {"base": 1.0, "tau": 1e6, "alpha": 1.0}
    doc["gamma"] = {"base": 1.0, "tau": 1e6, "alpha": 0.7}
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 2
    code = cli.main(
        ["run", "--config", str(path), "--mode", "ensemble", "--skip-validate",
         "--replicas", "8", "--steps", "2000", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "diverged" in capsys.readouterr().out.lower()


def test_run_propagate_divergence_names_the_moment_cutoff(tmp_path, capsys):
    doc = dict(SYS_A_DOC)
    doc["A11"] = [[-2.0]]  # reduced drift -3: unstable
    doc["beta"] = {"base": 1.0, "tau": 1e6, "alpha": 1.0}
    doc["gamma"] = {"base": 1.0, "tau": 1e6, "alpha": 0.7}
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    code = cli.main(
        ["run", "--config", str(path), "--mode", "propagate", "--skip-validate", "--steps", "2000"]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "diverged: second-moment entry above 1e+24 in magnitude at step" in out


def test_run_negative_seed_exits_1(mc_config, capsys):
    argv = ["run", "--config", mc_config, "--mode", "ensemble", "--replicas", "8",
            "--steps", "10", "--seed", "-1"]
    assert cli.main(argv) == 1
    assert "malformed configuration" in capsys.readouterr().err


def test_run_gate_blocks_invalid_without_skip(tmp_path):
    doc = dict(SYS_A_DOC)
    doc["A11"] = [[-2.0]]
    path = tmp_path / "unstable2.json"
    path.write_text(json.dumps(doc))
    code = cli.main(
        ["run", "--config", str(path), "--mode", "propagate", "--steps", "100"]
    )
    assert code == 2


def test_averaging_command(tmp_path, capsys):
    doc = {"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]]}
    path = tmp_path / "avg.json"
    path.write_text(json.dumps(doc))
    code = cli.main(
        ["averaging", "--config", str(path), "--replicas", "600", "--steps", "5000", "--seed", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_averaging_zero_noise_is_exact(tmp_path, capsys):
    doc = {"A": [[1.0]], "b": [0.0], "Gamma": [[0.0]]}
    path = tmp_path / "avg_quiet.json"
    path.write_text(json.dumps(doc))
    code = cli.main(
        ["averaging", "--config", str(path), "--replicas", "64", "--steps", "500", "--seed", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[[0.]]" in out  # empirical covariance exactly zero


def test_averaging_rejects_unstable(tmp_path):
    doc = {"A": [[-1.0]], "b": [0.0], "Gamma": [[1.0]]}
    path = tmp_path / "avg_bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["averaging", "--config", str(path), "--replicas", "64", "--steps", "200"]) == 2


@pytest.mark.parametrize("sizes", [["--replicas", "0", "--steps", "200"],
                                   ["--replicas", "64", "--steps", "0"]])
def test_averaging_rejects_zero_sizes(tmp_path, sizes):
    # Zero is an explicit value, not "use the default run size".
    path = tmp_path / "avg.json"
    path.write_text(json.dumps({"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]]}))
    assert cli.main(["averaging", "--config", str(path)] + sizes) == 1


def test_averaging_divergence_reported_on_stdout(tmp_path, capsys):
    path = tmp_path / "avg_overshoot.json"
    path.write_text(json.dumps({"A": [[100.0]], "b": [0.0], "Gamma": [[1.0]]}))
    assert cli.main(["averaging", "--config", str(path), "-N", "64", "-K", "2000"]) == 2
    assert "diverged" in capsys.readouterr().out


class _Recorded(Exception):
    pass


def test_run_sizes_default_to_parser_values(mc_config, tmp_path, monkeypatch):
    calls = []

    def record(spec, pair, N, K, checkpoints, base_seed, jobs):
        calls.append((N, K, base_seed, jobs, list(checkpoints)))
        raise _Recorded

    monkeypatch.setattr(cli.engine, "run_ensemble", record)
    avg = tmp_path / "avg.json"
    avg.write_text(json.dumps({"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]]}))
    for argv in (["run", "--config", mc_config, "--mode", "ensemble"],
                 ["averaging", "--config", str(avg)]):
        with pytest.raises(_Recorded):
            cli.main(argv)
    assert calls == [(1000, 10000, 0, 1, [100, 1000, 10000]), (4000, 100000, 0, 1, [100000])]


def test_module_entry_point_runs_without_warnings(sys_a_config):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twoscale.cli", "validate", "--config", sys_a_config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


def test_validate_rejects_run_flags(sys_a_config):
    with pytest.raises(SystemExit):
        cli.main(["validate", "--config", sys_a_config, "--steps", "5"])


def test_seeded_runs_reproducible_across_jobs(mc_rademacher_config, tmp_path):
    outs = []
    for jobs, name in ((1, "a.csv"), (4, "b.csv")):
        path = tmp_path / name
        code = cli.main(
            ["run", "--config", mc_rademacher_config, "--mode", "ensemble",
             "--replicas", "300", "--steps", "2000", "--seed", "11",
             "--jobs", str(jobs), "--out", str(path)]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_config_canonical_round_trip(sys_a_config, tmp_path):
    cfg = cli.load_config(sys_a_config)
    canonical = cfg.canonical()
    path = tmp_path / "canon.json"
    path.write_text(canonical)
    cfg2 = cli.load_config(str(path))
    assert cfg2.canonical() == canonical


def test_geometric_checkpoints():
    assert cli.geometric_checkpoints(10**6) == [100, 1000, 10**4, 10**5, 10**6]
    assert cli.geometric_checkpoints(50) == [50]
    assert cli.geometric_checkpoints(100) == [100]
    assert cli.geometric_checkpoints(2500) == [100, 1000, 2500]
