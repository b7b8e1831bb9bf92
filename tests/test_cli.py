import copy
import csv
import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_stable_system
from twoscale import (
    SchedulePair,
    StepSchedule,
    cli,
    optimal_gain_covariance,
    predict_full,
    predict_reduced,
)
from twoscale.linalg import psd_floor

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
    # Per-step noise: the ensemble route that reads each chunk's per-step tiles.
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


def test_validate_lists_only_checks_that_can_fail(sys_a_config, capsys):
    assert cli.main(["validate", "--config", sys_a_config]) == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == [
        "fast-matrix-stable",
        "fast-matrix-conditioned",
        "reduced-matrix-stable",
        "shifted-reduced-matrix-stable",
        "step-ratio-limit-exists",
        "overall",
    ]


def test_slowly_vanishing_fast_steps_validate_and_predict(tmp_path):
    # gamma(1e9) / gamma(0) = 501^-0.7, about 0.013: slow to vanish, but a power-family step.
    doc = dict(SYS_A_DOC, gamma={"base": 1.0, "tau": 2e6, "alpha": 0.7})
    path = tmp_path / "slow_gamma.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 0
    out_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--config", str(path), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == SYS_A_PREDICT_CSV.encode()


def test_validate_singular_fast_block_exits_2(tmp_path):
    doc = dict(SYS_A_DOC)
    doc["A22"] = [[0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "doc",
    [{"A": [[0.0]], "b": [0.0], "Gamma": [[1.0]]}, dict(SYS_A_DOC, A22=[[0.0]])],
    ids=["averaging", "coupled"],
)
@pytest.mark.parametrize("command", ["validate", "predict"])
def test_singular_fast_block_gets_the_stability_report(tmp_path, capsys, doc, command):
    # A22 = 0: its condition number is the failing check, and the two
    # checks on Delta, which needs A22^-1, fail with a note instead of raising.
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(path)]) == 2
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[1] == "fast-matrix-conditioned: FAIL  measured=inf  threshold=1e+12  (condition number of A22)"
    for line in lines[2:4]:
        assert line.endswith(": FAIL  (Delta needs A22^-1, which fast-matrix-conditioned refuses)")
    assert [line.split(":")[0] for line in lines[2:4]] == ["reduced-matrix-stable", "shifted-reduced-matrix-stable"]
    assert lines[-1] == ("overall: FAIL" if command == "validate" else "validation failed")
    assert out.err == ""


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


@pytest.mark.parametrize(
    "command, doc, stray",
    [
        ("validate", dict(SYS_A_DOC, runs={"steps": 5}), "runs"),
        ("validate", dict(SYS_A_DOC, noise=dict(SYS_A_DOC["noise"], distrbution="gaussian")),
         "distrbution"),
        ("validate", dict(SYS_A_DOC, beta=dict(SYS_A_DOC["beta"], Tau=5.0)), "Tau"),
        ("averaging", {"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]], "gamma": {}}, "gamma"),
        ("validate", {"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]], "gamma": {}}, "gamma"),
    ],
    ids=["top-level", "noise", "schedule", "averaging", "validate-averaging"],
)
def test_unknown_config_keys_exit_1(tmp_path, capsys, command, doc, stray):
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(doc))
    sizes = ["-N", "64", "-K", "200"] if command == "averaging" else []
    assert cli.main([command, "--config", str(path)] + sizes) == 1
    err = capsys.readouterr().err
    assert "malformed configuration: " in err and repr(stray) in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["validate"], ["predict"], ["run", "--mode", "propagate", "--steps", "200"]],
    ids=["validate", "predict", "run"],
)
def test_non_finite_noise_exits_1(tmp_path, capsys, command, value):
    doc = dict(SYS_A_DOC, noise=dict(SYS_A_DOC["noise"], Gamma12=[[value]]))
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command[0], "--config", str(path), *command[1:]]) == 1
    assert "malformed configuration: noise covariance blocks must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1e154, 1e200, 1e308])
@pytest.mark.parametrize("command", ["validate", "predict"])
def test_non_psd_noise_with_huge_entries_exits_2(tmp_path, capsys, command, value):
    # Gamma = [[1, v], [v, 1]] has eigenvalue 1 - v.  Its Frobenius norm
    # overflows from about 1.3e154 on, and at 1e308 the symmetrized Gamma
    # overflows to NaN eigenvalues; each must still be refused.
    doc = dict(SYS_A_DOC, noise=dict(SYS_A_DOC["noise"], Gamma12=[[value]]))
    path = tmp_path / "non_psd.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli.main([command, "--config", str(path)]) == 2
    assert "error: covariance has eigenvalue" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_offset_exits_1(tmp_path, capsys, value):
    path = tmp_path / "non_finite_b.json"
    path.write_text(json.dumps(dict(SYS_A_DOC, b1=[value])))
    assert cli.main(["validate", "--config", str(path)]) == 1
    path.write_text(json.dumps({"A": [[1.0]], "b": [value], "Gamma": [[1.0]]}))
    assert cli.main(["averaging", "--config", str(path), "-N", "64", "-K", "200"]) == 1
    path.write_text(json.dumps({"A": [[value]], "b": [0.0], "Gamma": [[1.0]]}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert cli.main(["averaging", "--config", str(path), "-N", "64", "-K", "200"]) == 1
    err = capsys.readouterr().err
    assert err.count("malformed configuration: system coefficients and offsets must be finite") == 4


def test_averaging_non_object_config_exits_1(tmp_path, capsys):
    path = tmp_path / "avg_list.json"
    path.write_text("[1]")
    assert cli.main(["averaging", "--config", str(path)]) == 1
    assert "configuration must be a JSON object" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 1


def _fail_if_called(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize(
    "argv, parent",
    [
        (["predict"], "missing"),
        (["run", "--mode", "propagate", "--steps", "1000"], "missing"),
        (["run", "--mode", "ensemble"], "missing"),
        (["run", "--mode", "normality"], "missing"),
        (["run", "--mode", "transformed-check"], "missing"),
        (["predict"], "file"),
        (["run", "--mode", "propagate"], "file"),
    ],
    ids=["predict", "run", "ensemble", "normality", "transformed-check", "predict-under-a-file",
         "run-under-a-file"],
)
def test_unwritable_out_exits_1_naming_the_output(
    sys_a_config, tmp_path, capsys, monkeypatch, argv, parent
):
    # A bad --out is refused before any work: the solver and engine fail if called.
    for module, name in [
        (cli.theory, "predict_full"),
        (cli.engine, "propagate_covariance"),
        (cli.engine, "run_ensemble"),
        (cli.engine, "simulate"),
        (cli, "validate_system"),
    ]:
        monkeypatch.setattr(module, name, _fail_if_called)
    if parent == "file":
        (tmp_path / parent).write_text("")
    out = tmp_path / parent / "x.csv"
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([*argv, "--config", sys_a_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and "x.csv" in err
    assert "configuration" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [["predict"], ["run", "--mode", "propagate", "--steps", "1000000"]],
                         ids=["predict", "run"])
def test_out_that_is_a_directory_exits_1_before_the_run(sys_a_config, tmp_path, capsys, monkeypatch,
                                                        argv):
    def not_called(*args, **kwargs):
        raise AssertionError("the run started before the directory --out was refused")

    monkeypatch.setattr(cli.theory, "predict_full", not_called)
    monkeypatch.setattr(cli.engine, "propagate_covariance", not_called)
    assert cli.main([*argv, "--config", sys_a_config, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("cannot write output: [Errno 21] Is a directory")


@pytest.mark.parametrize("n", [1.7, True, "1", 3], ids=["fraction", "bool", "string", "wrong-integer"])
def test_declared_dimension_must_equal_the_shape(tmp_path, capsys, n):
    # System A has n = 1: a fractional, boolean or string n is not truncated to it,
    # and another integer is refused.
    path = tmp_path / "declared.json"
    path.write_text(json.dumps(dict(SYS_A_DOC, n=n)))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"declared n={n!r} does not match matrix shapes" in capsys.readouterr().err
    path.write_text(json.dumps(dict(SYS_A_DOC, n=1.0)))
    assert cli.main(["validate", "--config", str(path)]) == 0


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
    spec = cli.RunConfig.read(SYS_A_DOC).system
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


def test_predict_writes_csv_to_stdout_without_out(sys_a_config, capsys):
    assert cli.main(["predict", "--config", sys_a_config]) == 0
    assert capsys.readouterr().out.endswith(SYS_A_PREDICT_CSV)


def reference_matrix_csv(matrices) -> str:
    """The text `_csv_lines` gives for the (name, i, j, value) rows of the matrices."""
    rows = [(name, i, j, float(M[i, j])) for name, M in matrices.items() for i, j in np.ndindex(M.shape)]
    return "\n".join(cli._csv_lines(["matrix", "row", "col", "value"], rows)) + "\n"


def test_matrix_lines_write_the_bytes_of_csv_lines(tmp_path, capsys):
    rng = np.random.default_rng(9)
    mats = {"A": rng.standard_normal((2, 3)), "B": rng.standard_normal((1, 1)),
            "C": rng.standard_normal((3, 2)), "D": rng.standard_normal((2, 4)),
            "100%": rng.standard_normal((1, 2))}
    mats["A"][0] = [1e-300, 1e-320, -0.0]
    mats["C"][:, 0] = [np.inf, -np.inf, 0.0]
    mats["D"][0] = [1e17, 1e-5, 3.0, -2.0]
    mats["D"][1, :2] = [np.nan, -1e17]
    expected = reference_matrix_csv(mats)
    assert "\n".join(cli._matrix_lines(mats)) + "\n" == expected
    assert "A,0,2,-0\n" in expected and "D,0,2,3\n" in expected and "100%,0,1," in expected
    out_path = tmp_path / "m.csv"
    cli._write_lines(cli._matrix_lines(mats), str(out_path))
    assert out_path.read_bytes() == expected.encode()
    cli._write_lines(cli._matrix_lines(mats), None)
    assert capsys.readouterr().out == expected
    assert list(cli._matrix_lines({})) == ["matrix,row,col,value"]


def test_predict_non_square_blocks_write_the_reference_bytes(tmp_path, capsys):
    spec = random_stable_system(np.random.default_rng(5), n=2, m=3)
    doc = cli.RunConfig(spec, cli.RunConfig.read(SYS_A_DOC).schedules).document()
    path = tmp_path / "n2m3.json"
    path.write_text(json.dumps(doc))
    pred = predict_full(spec, 0.1)
    opt_cov, g1_opt, g_opt = optimal_gain_covariance(spec)
    expected = reference_matrix_csv({
        "Delta": pred.Delta, "Q": pred.Q, "Sigma11": pred.Sigma11, "Sigma12": pred.Sigma12,
        "Sigma22": pred.Sigma22, "Sigma11_reduced": predict_reduced(spec, 0.1),
        "Sigma11_opt": opt_cov, "G1_opt": g1_opt, "G_opt": g_opt,
    })
    assert "Sigma12,1,2," in expected and "G_opt,4,4," in expected
    out_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--config", str(path), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == expected.encode()
    first = capsys.readouterr().out
    assert first.startswith("full-vs-reduced slow-block discrepancy: ") and first.count("\n") == 1
    assert cli.main(["predict", "--config", str(path)]) == 0
    assert capsys.readouterr().out == first + expected


def test_matrix_lines_stream_without_holding_the_table(tmp_path):
    # predict's shapes at n = m = 100: about 4 MB of CSV.
    rng = np.random.default_rng(3)
    mats = {f"M{k}": rng.standard_normal((100, 100)) for k in range(8)}
    mats["G_opt"] = rng.standard_normal((200, 200))
    out_path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli._write_lines(cli._matrix_lines(mats), str(out_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out_path.read_bytes() == reference_matrix_csv(mats).encode()
    assert peak < 2_000_000


def test_predict_gate_refusal_writes_no_csv(tmp_path, capsys):
    doc = dict(SYS_A_DOC, A11=[[-2.0]])
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "p.csv"
    assert cli.main(["predict", "--config", str(path), "--out", str(out_path)]) == 2
    out = capsys.readouterr().out
    assert "reduced-matrix-stable: FAIL" in out
    assert out.endswith("validation failed\n")
    assert not out_path.exists()


def test_predict_exits_3_when_slow_block_routes_disagree(sys_a_config, tmp_path, capsys, monkeypatch):
    reduced = cli.theory.predict_reduced
    monkeypatch.setattr(
        cli.theory, "predict_reduced", lambda spec, beta_bar: 1.01 * reduced(spec, beta_bar)
    )
    assert cli.main(["predict", "--config", sys_a_config, "--out", str(tmp_path / "p.csv")]) == 3
    assert "solver routes disagree beyond tolerance" in capsys.readouterr().out


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


@pytest.mark.parametrize("propagated, line, code", [
    (None, "0.0000%", 0),
    (np.ones((1, 1)), "inf%", 2),
])
def test_run_propagate_against_a_zero_prediction(tmp_path, capsys, monkeypatch, propagated, line, code):
    # Zero noise keeps the moment at exactly zero from the fixed point, as predicted.
    doc = dict(SYS_A_DOC, noise={"Gamma11": [[0.0]], "Gamma12": [[0.0]], "Gamma22": [[0.0]]})
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(doc))
    if propagated is not None:
        monkeypatch.setattr(cli.engine, "propagate_covariance", lambda *args: [
            SimpleNamespace(k=2000, beta=0.1, gamma=0.1, Sigma11=propagated,
                            Sigma12=np.zeros((1, 1)), Sigma22=np.zeros((1, 1)))
        ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.main(["run", "--config", str(path), "--mode", "propagate", "--steps", "2000",
                        "--out", str(tmp_path / "t.csv")])
    assert got == code
    out = capsys.readouterr().out
    assert out == f"final slow-block relative error vs prediction: {line} at k=2000\n"


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


def test_run_normality_writes_csv_row(mc_config, tmp_path):
    out_path = tmp_path / "normality.csv"
    code = cli.main(
        ["run", "--config", mc_config, "--mode", "normality",
         "--replicas", "400", "--steps", "3000", "--seed", "0", "--out", str(out_path)]
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert list(rows[0]) == ["samples", "dof", "ks_statistic", "ks_threshold", "passed",
                             "skewness_0", "excess_kurtosis_0"]
    assert len(rows) == 1 and rows[0]["samples"] == "400" and rows[0]["passed"] == "1"


def test_run_transformed_check(sys_a_config):
    code = cli.main(
        ["run", "--config", sys_a_config, "--mode", "transformed-check", "--steps", "2000"]
    )
    assert code == 0


def test_run_transformed_check_writes_errors_to_out(sys_a_config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--config", sys_a_config, "--mode", "transformed-check", "--steps", "2000"]
    assert cli.main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == ["sys_a.json"]
    printed = capsys.readouterr().out
    out_path = tmp_path / "errors.csv"
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == printed
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert list(rows[0]) == ["k", "relative_error"]
    # Every state on the stride-20 grid is compared against `simulate`; the
    # decoupling start state k0 = 1 is off the grid, so it is neither compared
    # nor counted.
    assert [int(r["k"]) for r in rows] == list(range(20, 2001, 20))
    worst = max(float(r["relative_error"]) for r in rows)
    assert printed.startswith(
        f"max relative reconstruction error over {len(rows)} recorded states: {worst:.3e}\n"
    )
    assert "decoupling start index: 1 " in printed


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_run_transformed_check_refuses_nonpositive_stride(sys_a_config, capsys, stride):
    argv = ["run", "--config", sys_a_config, "--mode", "transformed-check", "--steps", "200"]
    assert cli.main(argv + ["--stride", stride]) == 1
    assert "record_stride must be at least 1" in capsys.readouterr().err


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
         "--replicas", "30", "--steps", "2000", "--out", str(tmp_path / "x.csv")]
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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--mode", "ensemble", "--replicas", "1"], "--replicas"),
        (["run", "--mode", "propagate", "--steps", "0"], "--steps"),
        (["run", "--mode", "ensemble", "--seed", "-1"], "--seed"),
        (["run", "--mode", "normality", "--jobs", "-5"], "--jobs"),
        (["run", "--mode", "transformed-check", "--stride", "0"], "--stride"),
        (["averaging", "--replicas", "1"], "--replicas"),
        (["averaging", "--jobs", "0"], "--jobs"),
    ],
    ids=["replicas", "steps", "seed", "jobs", "stride", "averaging-replicas", "averaging-jobs"],
)
def test_invalid_flag_exits_1_naming_it(tmp_path, capsys, argv, flag):
    # The configuration does not exist: flags are checked before it is read.
    missing = str(tmp_path / "absent.json")
    assert cli.main(argv[:1] + ["--config", missing] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert f"invalid flag: {flag} " in err
    assert "malformed configuration" not in err and "cannot read" not in err


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


def test_averaging_is_run_mode_ensemble(tmp_path, capsys):
    path = tmp_path / "avg.json"
    path.write_text(json.dumps({"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]]}))
    sizes = ["-N", "600", "-K", "5000", "--seed", "0"]
    assert cli.main(["averaging", "--config", str(path)] + sizes) == 0
    averaged = capsys.readouterr()
    assert cli.main(["run", "--config", str(path), "--mode", "ensemble"] + sizes) == 0
    assert capsys.readouterr() == averaged


# Criterion 2's averaging problem: A upper triangular, Gamma = I.
AVG_A = [[1.0, 0.5], [0.0, 2.0]]
AVG_DOC = {"A": AVG_A, "b": [0.0, 0.0], "Gamma": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["predict"],
        ["run", "--mode", "propagate", "-K", "100000"],
        ["run", "--mode", "ensemble", "-N", "4000", "-K", "100000"],
        ["run", "--mode", "normality", "-N", "4000", "-K", "100000"],
        ["run", "--mode", "transformed-check", "-K", "2000"],
    ],
    ids=["validate", "predict", "propagate", "ensemble", "normality", "transformed-check"],
)
def test_averaging_document_runs_every_route(tmp_path, capsys, argv):
    path = tmp_path / "avg.json"
    path.write_text(json.dumps(AVG_DOC))
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 0
    if argv == ["predict"]:
        # Polyak-Ruppert: the averaged slow block attains the optimal-gain
        # covariance A^-1 Gamma A^-T, whichever route computes it.
        matrices = parse_matrix_csv(capsys.readouterr().out.splitlines()[1:])
        A_inv = np.linalg.inv(AVG_A)
        for name in ("Sigma11", "Sigma11_reduced", "Sigma11_opt"):
            np.testing.assert_allclose(matrices[name], A_inv @ A_inv.T, rtol=0, atol=1e-8)


def test_averaging_zero_noise_is_exact(tmp_path, capsys):
    doc = {"A": [[1.0]], "b": [0.0], "Gamma": [[0.0]]}
    path = tmp_path / "avg_quiet.json"
    path.write_text(json.dumps(doc))
    code = cli.main(
        ["averaging", "--config", str(path), "--replicas", "64", "--steps", "500", "--seed", "0"]
    )
    assert code == 0
    # stdout opens with the CSV of checkpoints 100 and 500.
    final = list(csv.DictReader(capsys.readouterr().out.splitlines()[:3]))[-1]
    assert final["k"] == "500"
    assert [float(final[f"S{b}_0_0"]) for b in ("11", "12", "22")] == [0.0, 0.0, 0.0]


def test_averaging_rejects_unstable(tmp_path, capsys):
    doc = {"A": [[-1.0]], "b": [0.0], "Gamma": [[1.0]]}
    path = tmp_path / "avg_bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["averaging", "--config", str(path), "--replicas", "64", "--steps", "200"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fast-matrix-stable: FAIL  measured=1  ")
    # `averaging` has no --skip-validate flag, so it gives no such advice.
    assert lines[-1] == "validation failed"


@pytest.mark.parametrize(
    "argv, last",
    [
        (["validate"], "overall: FAIL"),
        (["predict"], "validation failed"),
        (["run", "--mode", "propagate", "-K", "200"],
         "validation failed; rerun with --skip-validate to force"),
    ],
    ids=["validate", "predict", "run"],
)
def test_unstable_averaging_document_gets_the_stability_report(tmp_path, capsys, argv, last):
    # A22 is A, so -A = [[1]] fails the fast check with its measured abscissa.
    path = tmp_path / "avg_unstable.json"
    path.write_text(json.dumps({"A": [[-1.0]], "b": [0.0], "Gamma": [[1.0]]}))
    assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 2
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "fast-matrix-stable",
        "fast-matrix-conditioned",
        "reduced-matrix-stable",
        "shifted-reduced-matrix-stable",
        "step-ratio-limit-exists",
    ]
    assert lines[0].startswith("fast-matrix-stable: FAIL  measured=1  ")
    assert all(": pass" in line for line in lines[1:-1])
    assert lines[-1] == last
    assert out.err == ""


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

    def record(spec, pair, N, K, checkpoints, base_seed):
        calls.append((N, K, base_seed, list(checkpoints)))
        raise _Recorded

    monkeypatch.setattr(cli.engine, "run_ensemble", record)
    avg = tmp_path / "avg.json"
    avg.write_text(json.dumps({"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]]}))
    for argv in (["run", "--config", mc_config, "--mode", "ensemble"],
                 ["averaging", "--config", str(avg)]):
        with pytest.raises(_Recorded):
            cli.main(argv)
    assert calls == [(1000, 10000, 0, [100, 1000, 10000]),
                     (4000, 100000, 0, [100, 1000, 10000, 100000])]


def test_module_entry_point_runs_without_warnings(sys_a_config):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twoscale.cli", "validate", "--config", sys_a_config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


FOOTPRINT_PROBE = """
import json, sys
import twoscale.cli as cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
code = cli.main(["run", "--config", sys.argv[1], "--mode", "normality",
                 "--replicas", "100", "--steps", "200", "--seed", "0"])
print(json.dumps([loaded, code, "scipy.special" in sys.modules]))
"""


def test_cli_import_loads_no_scipy_and_normality_no_scipy_special(mc_config):
    # A fresh interpreter: this test process has imported scipy already.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, mc_config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, code, special = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    assert code in (0, 2)  # the run reached its report
    assert "ks_statistic" in proc.stdout
    assert not special


@pytest.mark.parametrize("mode", ["ensemble", "normality"])
def test_ensemble_past_the_memory_cap_exits_2_with_one_line(mc_config, capsys, mode):
    argv = ["run", "--config", mc_config, "--mode", mode, "--replicas", "1000000000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ensemble of N=1000000000 replicas at d=2 with ")


def test_validate_rejects_run_flags(sys_a_config, capsys):
    assert cli.main(["validate", "--config", sys_a_config, "--steps", "5"]) == 1
    assert capsys.readouterr().err == "invalid flag: unrecognized arguments: --steps 5\n"
    # Only `run` can skip the gate; `predict` would be refused by its own preconditions.
    assert cli.main(["predict", "--config", sys_a_config, "--skip-validate"]) == 1
    assert capsys.readouterr().err == "invalid flag: unrecognized arguments: --skip-validate\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--config", "c.json", "--mode", "propagate", "--bogus", "1"], "--bogus"),
        (["run", "--config", "c.json", "--mode", "propagate", "--steps", "abc"], "--steps abc"),
        (["run", "--config", "c.json", "--mode", "nope"], "--mode invalid choice: 'nope'"),
        (["bogus", "--config", "c.json"], "'bogus'"),
        (["run", "--mode", "propagate"], "--config"),
        (["run", "--config", "c.json", "--mode", "propagate", "--replicas", "1"],
         "--replicas 1: N must be at least 2"),
        (["run", "--config", "c.json", "--mode", "ensemble", "--replicas", "10"],
         "--replicas 10: N must be at least 30 in --mode ensemble"),
        (["run", "--config", "c.json", "--mode", "normality", "--replicas", "99"],
         "--replicas 99: N must be at least 100 in --mode normality"),
        (["averaging", "--config", "c.json", "--replicas", "29"],
         "--replicas 29: N must be at least 30 in --mode ensemble"),
    ],
    ids=["unknown-flag", "malformed-value", "unknown-mode", "unknown-command", "missing-config",
         "floor-in-a-mode-that-ignores-the-flag", "ensemble-below-se-minimum",
         "normality-below-its-minimum", "averaging-below-se-minimum"],
)
def test_every_command_line_error_exits_1_before_reading(monkeypatch, capsys, argv, named):
    def unread(path):
        raise AssertionError(f"configuration {path} read despite a command-line error")

    monkeypatch.setattr(cli, "_read_object", unread)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid flag: ") and named in lines[0]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert "--replicas" in capsys.readouterr().out


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line.split()[1:] for line in readme.read_text().splitlines()
                if line.startswith("twoscale ")]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def _load_benchmark_module(name, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_parse(monkeypatch):
    # The benchmark drives the CLI with fixed flags; every one must still parse,
    # at --jobs 1 as timed and at the value its traced replay substitutes.
    workloads = _load_benchmark_module("workloads", monkeypatch)
    replay_jobs = _load_benchmark_module("run", monkeypatch).REPLAY_JOBS
    parser = cli.build_parser()
    flags = set()
    for name in workloads.BUILDERS:
        for cmd in workloads.build(name, 0, tiny=True):
            parser.parse_args(cmd.argv)
            flags.update(a for a in cmd.argv if a.startswith("--"))
            if "--jobs" in cmd.argv:
                argv = list(cmd.argv)
                argv[argv.index("--jobs") + 1] = replay_jobs
                assert parser.parse_args(argv).jobs == int(replay_jobs)
    assert {"--jobs", "--stride", "--seed", "--out"} <= flags


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


def test_document_round_trip_is_bit_exact():
    # Random systems with n != m under both noise laws, and random schedules:
    # the document, and its canonical text, read back to the same bits.
    rng = np.random.default_rng(29)
    for distribution in ("gaussian", "scaled-rademacher"):
        for n, m in [(1, 3), (4, 2), (3, 5)]:
            spec = random_stable_system(rng, n=n, m=m, distribution=distribution)
            schedules = SchedulePair(
                slow=StepSchedule(rng.uniform(0.5, 2.0), rng.uniform(1.0, 50.0), 1.0),
                fast=StepSchedule(rng.uniform(0.5, 2.0), rng.uniform(1.0, 50.0), rng.uniform(0.55, 0.95)),
            )
            cfg = cli.RunConfig(spec, schedules)
            canonical = cfg.canonical()
            for doc in (cfg.document(), json.loads(canonical)):
                back = cli.RunConfig.read(doc)
                assert back.canonical() == canonical
                assert back.schedules == schedules
                assert back.system.noise.distribution == distribution
                for key in cli.SYSTEM_KEYS:
                    assert getattr(back.system, key).tobytes() == getattr(spec, key).tobytes(), key
                for key in cli.NOISE_BLOCKS:
                    assert getattr(back.system.noise, key).tobytes() == getattr(spec.noise, key).tobytes()


def test_noise_without_a_distribution_is_gaussian():
    noise = {key: SYS_A_DOC["noise"][key] for key in cli.NOISE_BLOCKS}
    cfg = cli.RunConfig.read(dict(SYS_A_DOC, noise=noise))
    assert cfg.system.noise.distribution == "gaussian"
    assert cfg.canonical() == cli.RunConfig.read(SYS_A_DOC).canonical()


def test_geometric_checkpoints():
    assert cli.geometric_checkpoints(10**6) == [100, 1000, 10**4, 10**5, 10**6]
    assert cli.geometric_checkpoints(50) == [50]
    assert cli.geometric_checkpoints(100) == [100]
    assert cli.geometric_checkpoints(2500) == [100, 1000, 2500]


def test_predict_evaluates_the_stability_checks_once(sys_a_config, monkeypatch, capsys):
    # The CLI gate, predict_full and predict_reduced share one evaluation:
    # three spectral abscissas (-A22, -Delta, shifted -Delta), not nine.
    import twoscale.linalg

    calls = []
    abscissa = twoscale.linalg.spectral_abscissa

    def counting_abscissa(M):
        calls.append(np.shape(M))
        return abscissa(M)

    monkeypatch.setattr(twoscale.linalg, "spectral_abscissa", counting_abscissa)
    assert cli.main(["predict", "--config", sys_a_config]) == 0
    assert len(calls) == 3


@pytest.mark.parametrize(
    "patch, named",
    [
        ({"beta": {"base": True, "tau": 10.0, "alpha": 1.0}}, "schedule base holds True"),
        ({"beta": {"base": 1.0, "tau": "10", "alpha": 1.0}}, "schedule tau holds '10'"),
        ({"beta": {"base": 1.0, "tau": 10.0, "alpha": "1"}}, "schedule alpha holds '1'"),
        ({"A11": [["2.0"]]}, "A11 holds '2.0'"),
        ({"b1": [True]}, "b1 holds True"),
        ({"noise": dict(SYS_A_DOC["noise"], Gamma11=[["1"]])}, "Gamma11 holds '1'"),
        ({"A22": [[None]]}, "A22 holds None"),
    ],
    ids=["bool-base", "string-tau", "string-alpha", "string-matrix", "bool-vector", "string-noise",
         "null-matrix"],
)
def test_config_number_that_is_not_a_number_exits_1(tmp_path, capsys, patch, named):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({**SYS_A_DOC, **patch}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"malformed configuration: {named}, which is not a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, shown", [("A", [["1"]], "'1'"), ("b", [False], "False"), ("Gamma", [[True]], "True")]
)
def test_averaging_number_that_is_not_a_number_exits_1(tmp_path, capsys, key, value, shown):
    path = tmp_path / "coerced_averaging.json"
    path.write_text(json.dumps({"A": [[1.0]], "b": [0.0], "Gamma": [[1.0]], key: value}))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"malformed configuration: {key} holds {shown}, which is not a number" in capsys.readouterr().err


def test_integer_config_numbers_are_read(tmp_path):
    # JSON integers are numbers: system A written with integers validates.
    doc = json.loads(json.dumps(SYS_A_DOC), parse_float=lambda s: int(float(s)))
    doc["gamma"]["alpha"] = 0.7
    path = tmp_path / "integers.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 0


@pytest.mark.parametrize(
    "doc, named",
    [
        (dict(SYS_A_DOC, beta=dict(SYS_A_DOC["beta"], tau=10**400)), "schedule tau"),
        (dict(SYS_A_DOC, A11=[[10**400]]), "A11"),
        ({"A": [[-(10**400)]], "b": [0.0], "Gamma": [[1.0]]}, "A"),
    ],
    ids=["tau", "A11", "averaging-A"],
)
def test_integer_beyond_the_float_range_exits_1(tmp_path, capsys, doc, named):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"malformed configuration: {named} holds an integer too large for a float\n"


@pytest.mark.parametrize(
    "key, value, kind",
    [("noise", ["Gamma11"], "list"), ("beta", "abc", "str"), ("beta", 1.0, "float"), ("gamma", [1.0], "list")],
    ids=["noise-list", "beta-string", "beta-number", "gamma-list"],
)
def test_nested_entry_that_is_not_an_object_exits_1(tmp_path, capsys, key, value, kind):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(dict(SYS_A_DOC, **{key: value})))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"malformed configuration: {key} must be a JSON object, not {kind}\n"


def _without(doc: dict, key: str, inner: str | None = None) -> dict:
    """doc without key, or with key's entry lacking inner."""
    doc = json.loads(json.dumps(doc))
    if inner is None:
        del doc[key]
    else:
        del doc[key][inner]
    return doc


@pytest.mark.parametrize(
    "doc, named",
    [
        (_without(SYS_A_DOC, "A11"), "missing configuration keys: 'A11'"),
        (_without(SYS_A_DOC, "noise", "Gamma12"), "missing noise keys: 'Gamma12'"),
        (_without(SYS_A_DOC, "gamma", "tau"), "missing gamma schedule keys: 'tau'"),
        (_without(AVG_DOC, "b"), "missing averaging configuration keys: 'b'"),
    ],
    ids=["top-level", "noise", "schedule", "averaging"],
)
def test_missing_key_is_named_as_missing(tmp_path, capsys, doc, named):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"malformed configuration: {named}\n"


def test_deeply_nested_configuration_exits_1_with_one_line(tmp_path, capsys):
    # The JSON reader recurses once per level and gives up long before this depth.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cannot read configuration: {path}: nested too deeply to parse\n"


def test_predict_solves_the_fast_coupling_and_noise_covariance_once(sys_a_config, monkeypatch, capsys):
    # A22^-1 A21 (read by the stability checks, both predictions and the
    # optimal gain), A12 A22^-1 (read by the three builders of Q) and the
    # cross block S12: three solves, not eight.
    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    assert cli.main(["predict", "--config", sys_a_config]) == 0
    assert len(calls) == 3


AVERAGING_DOC = {"A": [[2.0, 0.5], [0.0, 1.0]], "b": [1.0, -1.0], "Gamma": [[1.0, 0.2], [0.2, 2.0]]}
# What a mutation puts in place of a leaf or a subtree.
FUZZ_VALUES = [
    None, True, False, "", "1.0", "x", [], [[]], {}, [1.0, [2.0]], [[1.0], [1.0, 2.0]],
    0, 0.0, -1, -1.0, 1, 0.5, 2, 1e200, 1e308, -1e308, 1e-320, 10**400,
    float("nan"), float("inf"), float("-inf"), [[1e200]], [[0.0]], [[-1.0]], [1.0], [[1.0, 0.0], [0.0, 1.0]],
]


def mutated_document(rng: random.Random, doc):
    """doc after one to three mutations, each replacing a node at random or deleting a key."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = []  # (container, key) of every node below the root

        def walk(node):
            if isinstance(node, (dict, list)):
                for key in list(node) if isinstance(node, dict) else range(len(node)):
                    slots.append((node, key))
                    walk(node[key])

        walk(doc)
        if not slots:
            break
        node, key = rng.choice(slots)
        if isinstance(node, dict) and rng.random() < 0.2:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


def test_fuzzed_documents_get_a_verdict_or_one_line(tmp_path, capsys):
    # Every mutated document gets an answer from validate and predict, or a
    # refusal of one stderr line, and never a traceback or a stray warning.
    # Each warning would print its own stderr lines outside pytest, so it counts as one.
    rng = random.Random(0)
    path = tmp_path / "fuzz.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in range(300):
            doc = mutated_document(rng, SYS_A_DOC if i % 2 else AVERAGING_DOC)
            path.write_text(json.dumps(doc))
            for command in ("validate", "predict"):
                code = cli.main([command, "--config", str(path)])
                out = capsys.readouterr()
                errors = out.err.splitlines() + [str(w.message) for w in caught]
                caught.clear()
                assert len(errors) == 1 if code == 1 else len(errors) <= 1, (command, doc, out.err)
                if command == "predict" and code == 0:
                    parsed = parse_matrix_csv(out.out.splitlines()[1:])
                    for name in ("Sigma11", "Sigma22", "Sigma11_opt"):
                        S = parsed[name]
                        assert np.all(np.isfinite(S)), (doc, name)
                        assert np.min(np.linalg.eigvalsh(S)) >= psd_floor(S), (doc, name)


STIFF_DOC = {
    "A11": [[2e-9, 0.0], [0.0, 1e8]], "A12": [[0.0], [0.0]], "A21": [[0.0, 0.0]], "A22": [[1.0]],
    "b1": [0.0, 0.0], "b2": [0.0],
    "noise": {"Gamma11": [[1.0, 0.0], [0.0, 1.0]], "Gamma12": [[0.0], [0.0]], "Gamma22": [[1.0]]},
    "beta": {"base": 1.0, "tau": 10.0, "alpha": 0.9}, "gamma": {"base": 1.0, "tau": 10.0, "alpha": 0.7},
}


@pytest.mark.parametrize(
    "doc, command, code",
    [
        # symmetrize's sum of two 1e308 entries
        (dict(SYS_A_DOC, noise=dict(SYS_A_DOC["noise"], Gamma12=[[1e308]])), "validate", 2),
        # predict_full's A12 S12' beyond the float range
        (dict(SYS_A_DOC, A12=[[-1e308]]), "predict", 2),
        # Frobenius norms of entries near 1e200, squared on the way
        (dict(SYS_A_DOC, noise=dict(SYS_A_DOC["noise"], Gamma22=[[1e200]])), "predict", 0),
        # Slow drift diag(2e-9, 1e8): the pair 2e-9 + 2e-9 is zero on the scale of 1e8
        (STIFF_DOC, "validate", 0),
        (STIFF_DOC, "predict", 2),
    ],
    ids=["gamma12-1e308", "a12-1e308", "gamma22-1e200", "stiff-validate", "stiff-predict"],
)
def test_overflow_and_singular_pencils_write_at_most_one_stderr_line(tmp_path, capsys, doc, command, code):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--config", str(path)]) == code
    out = capsys.readouterr()
    assert not caught
    assert len(out.err.splitlines()) == (code == 2)
    if doc is STIFF_DOC and code == 2:
        assert out.err.startswith("error: Sylvester pencil singular or ill-conditioned: ")
    if code == 0 and command == "predict":
        # A22 = 1, Gamma22 = 1e200: S22 = Gamma22 / 2, S12 = -S22 and 1.9 S11 = 1 + 1e200.
        parsed = parse_matrix_csv(out.out.splitlines()[1:])
        assert parsed["Sigma22"][0, 0] == pytest.approx(5e199, rel=1e-14)
        assert parsed["Sigma12"][0, 0] == pytest.approx(-5e199, rel=1e-14)
        assert parsed["Sigma11"][0, 0] == pytest.approx(1e200 / 1.9, rel=1e-14)
