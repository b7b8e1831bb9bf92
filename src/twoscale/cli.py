"""Command-line interface: validate, predict, run, averaging.

Exit codes form a stable contract:

    0  success / all tolerances met
    1  unreadable or malformed configuration
    2  assumption failure, tolerance failure, or divergence
    3  internal inconsistency (independent solution routes disagree)

The configuration is one JSON document holding the system matrices (row
major nested arrays), the noise blocks under "noise" and the two schedules
under "beta" and "gamma".  It holds no run parameters: a "run" entry exits 1.
Run parameters are command-line flags, each default declared once in
`build_parser`: `run` uses N = 1000 replicas, K = 10000 steps, seed 0,
jobs 1 and a transformed-check stride of K // 100; `averaging` uses
N = 4000 and K = 100000.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import engine, estimator, theory
from .errors import AssumptionViolation, Diverged, TwoScaleError
from .model import SystemSpec, averaging_system, validate_system
from .schedules import SchedulePair, StepSchedule

EXIT_OK = 0
EXIT_IO = 1
EXIT_TOLERANCE = 2
EXIT_INTERNAL = 3

PROPAGATE_TOL = 0.05
ENSEMBLE_REL_TOL = 0.10
ENSEMBLE_SE_FACTOR = 4.0
TRANSFORMED_TOL = 1e-8
PREDICT_CONSISTENCY_TOL = 1e-8


@dataclass
class RunConfig:
    """The system and its two step-size schedules, as read from a configuration."""

    system: SystemSpec
    schedules: SchedulePair

    def canonical(self) -> str:
        doc = self.system.to_dict()
        doc.update(self.schedules.to_dict())
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _read_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise TypeError(f"configuration must be a JSON object, not {type(doc).__name__}")
    return doc


def load_config(path: str) -> RunConfig:
    doc = _read_object(path)
    if "run" in doc:
        raise ValueError('a "run" entry is not accepted: run parameters are command-line flags')
    return RunConfig(system=SystemSpec.from_dict(doc), schedules=SchedulePair.from_dict(doc))


def geometric_checkpoints(K: int) -> list[int]:
    """Log-spaced checkpoints 100, 1000, ... capped by and including K."""
    cps = []
    c = 100
    while c < K:
        cps.append(c)
        c *= 10
    cps.append(K)
    return sorted(set(cps))


def _csv_lines(header: list[str], rows: Iterable[tuple]) -> list[str]:
    """CSV lines: the header, then one line per row.

    The first row fixes the format of every row: floats carry 17
    significant digits, so parsing the text back reproduces each binary64
    value exactly, and every other value is written with str.  Rows may be
    a generator, so a large table is never held as tuples and text at once.
    """
    lines = [",".join(header)]
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first)
        lines.append(fmt % first)
        lines += [fmt % row for row in rows]
    return lines


def _write_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _validation_gate(cfg: RunConfig, skip: bool) -> int | None:
    report = validate_system(cfg.system, cfg.schedules)
    if not report.passed and not skip:
        for line in report.lines():
            print(line)
        print("validation failed; rerun with --skip-validate to force")
        return EXIT_TOLERANCE
    return None


def _require_two_time_scales(cfg: RunConfig) -> None:
    """Refuse a positive step-size ratio limit before anything is computed.

    The limit equations hold for epsilon = 0 only; a single-time-scale
    config would otherwise get the two-time-scale numbers without warning.
    """
    epsilon = cfg.schedules.epsilon
    if epsilon > 0.0:
        print(f"time-scale-separation: epsilon = {epsilon:.6g} > 0, "
              "but the limit equations assume epsilon = 0")
        raise AssumptionViolation(["time-scale-separation"])


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    report = validate_system(cfg.system, cfg.schedules)
    for line in report.lines():
        print(line)
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    gate = _validation_gate(cfg, args.skip_validate)
    if gate is not None:
        return gate
    _require_two_time_scales(cfg)
    pred = theory.predict_full(cfg.system, cfg.schedules.beta_bar)
    reduced = theory.predict_reduced(cfg.system, cfg.schedules.beta_bar)
    opt_cov, g1_opt, g_opt = theory.optimal_gain_covariance(cfg.system)

    scale = 1.0 + float(np.linalg.norm(pred.Sigma11))
    discrepancy = float(np.linalg.norm(pred.Sigma11 - reduced)) / scale
    print(f"full-vs-reduced slow-block discrepancy: {discrepancy:.3e}")

    matrices = {
        "Delta": pred.Delta,
        "Q": pred.Q,
        "Sigma11": pred.Sigma11,
        "Sigma12": pred.Sigma12,
        "Sigma22": pred.Sigma22,
        "Sigma11_reduced": reduced,
        "Sigma11_opt": opt_cov,
        "G1_opt": g1_opt,
        "G_opt": g_opt,
    }
    rows = (
        (name, i, j, v)
        for name, M in matrices.items()
        for i, row in enumerate(M.tolist())
        for j, v in enumerate(row)
    )
    _write_lines(_csv_lines(["matrix", "row", "col", "value"], rows), args.out)
    if discrepancy >= PREDICT_CONSISTENCY_TOL:
        print("solver routes disagree beyond tolerance")
        return EXIT_INTERNAL
    return EXIT_OK


def _run_propagate(cfg: RunConfig, args) -> int:
    cps = geometric_checkpoints(args.steps)
    trace = engine.propagate_covariance(cfg.system, cfg.schedules, None, args.steps, cps)
    pred = theory.predict_full(cfg.system, cfg.schedules.beta_bar)

    rows = [(cp.k, cp.beta, cp.gamma, cp.Sigma11, cp.Sigma12, cp.Sigma22) for cp in trace]
    _write_lines(_covariance_lines(cfg, rows), args.out)

    final = trace[-1]
    err = float(np.linalg.norm(final.Sigma11 - pred.Sigma11) / np.linalg.norm(pred.Sigma11))
    print(f"final slow-block relative error vs prediction: {err:.4%} at k={final.k}")
    return EXIT_OK if err < PROPAGATE_TOL else EXIT_TOLERANCE


def _covariance_lines(cfg: RunConfig, rows) -> list[str]:
    """CSV with one line per (k, beta, gamma, S11, S12, S22) row, blocks flattened row-major."""
    n, m = cfg.system.n, cfg.system.m
    header = ["k", "beta", "gamma"]
    header += [f"S11_{i}_{j}" for i in range(n) for j in range(n)]
    header += [f"S12_{i}_{j}" for i in range(n) for j in range(m)]
    header += [f"S22_{i}_{j}" for i in range(m) for j in range(m)]
    flat = (
        (k, beta, gamma, *np.concatenate([np.ravel(b) for b in blocks]).tolist())
        for k, beta, gamma, *blocks in rows
    )
    return _csv_lines(header, flat)


def _entrywise_pass(est, pred, se) -> bool:
    pred = np.asarray(pred)
    err = np.abs(np.asarray(est) - pred)
    tol = np.maximum(ENSEMBLE_REL_TOL * np.abs(pred), ENSEMBLE_SE_FACTOR * np.asarray(se))
    return bool(np.all(err <= tol))


def _run_ensemble(cfg: RunConfig, args) -> int:
    cps = geometric_checkpoints(args.steps)
    result = engine.run_ensemble(
        cfg.system, cfg.schedules, args.replicas, args.steps, cps, args.seed, jobs=args.jobs
    )
    rows = [
        (cp.k, cp.beta, cp.gamma,
         *estimator.scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma))
        for cp in result.checkpoints
        if cp.k > 0
    ]
    _write_lines(_covariance_lines(cfg, rows), args.out)

    pred = theory.predict_full(cfg.system, cfg.schedules.beta_bar)
    cp = result.final
    S11, S12, S22 = estimator.scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    SE11, SE12, SE22 = estimator.standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    ok = _entrywise_pass(S11, pred.Sigma11, SE11) and _entrywise_pass(S22, pred.Sigma22, SE22)
    print(f"slow block at k={cp.k}: estimate {S11.ravel()} vs prediction {pred.Sigma11.ravel()}")
    print(f"fast block at k={cp.k}: estimate {S22.ravel()} vs prediction {pred.Sigma22.ravel()}")
    print(f"ensemble tolerance ({ENSEMBLE_REL_TOL:.0%} or {ENSEMBLE_SE_FACTOR:.0f} SE): "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _run_normality(cfg: RunConfig, args) -> int:
    result = engine.run_ensemble(
        cfg.system, cfg.schedules, args.replicas, args.steps, [args.steps], args.seed,
        jobs=args.jobs,
    )
    pred = theory.predict_full(cfg.system, cfg.schedules.beta_bar)
    cp = result.final
    report = estimator.normality_check(cp.theta_hat, cp.beta, pred.Sigma11)
    for line in report.lines():
        print(line)
    if args.out:
        row = report.csv_row()
        _write_lines(_csv_lines(list(row), [tuple(row.values())]), args.out)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _run_transformed_check(cfg: RunConfig, args) -> int:
    stride = args.stride or max(1, args.steps // 100)
    stream = engine.noise_stream(cfg.system, args.seed, 0)
    states = engine.simulate(cfg.system, cfg.schedules, None, args.steps, stream, stride)
    run = engine.simulate_transformed(
        cfg.system, cfg.schedules, args.steps, stream, record_stride=stride
    )
    rebuilt = engine.reconstruct_original(cfg.system, run)
    by_k = {st.k: st for st in states}
    worst = 0.0
    for st in rebuilt:
        ref = by_k.get(st.k)
        if ref is None:
            continue
        ref_vec = np.concatenate([ref.theta, ref.r])
        new_vec = np.concatenate([st.theta, st.r])
        err = float(np.linalg.norm(new_vec - ref_vec) / (1.0 + np.linalg.norm(ref_vec)))
        worst = max(worst, err)
    print(f"max relative reconstruction error over {len(rebuilt)} recorded states: {worst:.3e}")
    print(
        f"decoupling start index: {run.k0} after {run.lseq.retries} retries; "
        f"final decoupling norm {run.lseq.final_norm:.3e}"
    )
    return EXIT_OK if worst <= TRANSFORMED_TOL else EXIT_TOLERANCE


_MODES = {
    "propagate": _run_propagate,
    "ensemble": _run_ensemble,
    "normality": _run_normality,
    "transformed-check": _run_transformed_check,
}


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    gate = _validation_gate(cfg, args.skip_validate)
    if gate is not None:
        return gate
    if args.mode != "transformed-check":
        _require_two_time_scales(cfg)
    return _MODES[args.mode](cfg, args)


def cmd_averaging(args) -> int:
    doc = _read_object(args.config)
    A = np.asarray(doc["A"], dtype=np.float64)
    b = np.asarray(doc["b"], dtype=np.float64)
    Gamma = np.asarray(doc["Gamma"], dtype=np.float64)

    spec = averaging_system(A, b, Gamma)
    # Slow schedule 1/(k+1) so the scaled slow covariance is the
    # root-k-scaled covariance of the running average.
    pair = SchedulePair(
        slow=StepSchedule(base=1.0, horizon_scale=1.0, exponent=1.0),
        fast=StepSchedule(base=0.5, horizon_scale=10.0, exponent=0.7),
    )
    K = args.steps

    predicted = theory.predict_reduced(spec, beta_bar=1.0)
    result = engine.run_ensemble(spec, pair, args.replicas, K, [K], args.seed, jobs=args.jobs)
    cp = result.final
    S11, _, _ = estimator.scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    SE11, _, _ = estimator.standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)

    err = np.abs(S11 - predicted)
    tol = ENSEMBLE_REL_TOL * np.abs(predicted) + ENSEMBLE_SE_FACTOR * SE11
    ok = bool(np.all(err <= tol))
    print(f"predicted average covariance:\n{predicted}")
    print(f"empirical root-k-scaled covariance at K={K}:\n{S11}")
    print(f"entrywise standard errors:\n{SE11}")
    print(f"averaging check ({ENSEMBLE_REL_TOL:.0%} + {ENSEMBLE_SE_FACTOR:.0f} SE): "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscale",
        description="Predict and validate scaled covariances of coupled slow/fast linear iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": sub.add_parser("validate", help="check admissibility assumptions"),
        "predict": sub.add_parser("predict", help="solve the limit covariance equations"),
        "run": sub.add_parser("run", help="propagate, simulate, or cross-check"),
        "averaging": sub.add_parser(
            "averaging", help='running-average recovery demonstration (config: "A", "b", "Gamma")'
        ),
    }
    # Each flag goes to the subcommands that read it.
    int_flag = dict(type=int, help="default: %(default)s")
    flags = [
        ("validate predict run averaging", ["--config"],
         dict(required=True, help="JSON configuration path")),
        ("run", ["--mode"], dict(choices=list(_MODES), required=True)),
        ("run averaging", ["--replicas", "-N"], dict(int_flag, default=1000)),
        ("run averaging", ["--steps", "-K"], dict(int_flag, default=10000)),
        ("run averaging", ["--seed"], dict(int_flag, default=0)),
        ("run averaging", ["--jobs"], dict(int_flag, default=1)),
        ("run", ["--stride"], dict(type=int, help="default: steps // 100")),
        ("predict run", ["--out"], dict(help="output CSV path (default stdout)")),
        ("predict run", ["--skip-validate"], dict(action="store_true")),
    ]
    for users, names, kwargs in flags:
        for name in users.split():
            commands[name].add_argument(*names, **kwargs)
    commands["averaging"].set_defaults(replicas=4000, steps=100000)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "predict": cmd_predict,
    "run": cmd_run,
    "averaging": cmd_averaging,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed configuration: {exc}", file=sys.stderr)
        return EXIT_IO
    except Diverged as exc:
        print(f"diverged: {exc}")
        return EXIT_TOLERANCE
    except TwoScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
