"""Command-line interface: validate, predict, run, and averaging, which is
`run --mode ensemble` with larger default sizes.

Exit codes form a stable contract:

    0  success / all tolerances met
    1  unreadable or malformed configuration, unwritable --out, or any
       command-line error, refused before the configuration is read
    2  assumption failure, tolerance failure, or divergence
    3  internal inconsistency (independent solution routes disagree)

The configuration is one JSON document in one of two forms; `RunConfig`
alone reads and writes it.  A coupled system holds the system matrices
(row major nested arrays), the noise blocks under "noise" and the two
schedules under "beta" and "gamma".  A document with an "A" key is an
averaging problem instead: it holds only "A", "b" and "Gamma", and stands
for the running average of r <- r + gamma (b - A r + noise) under
AVERAGING_SCHEDULES.  Any other key exits 1, so a misspelled field is
refused rather than defaulted, and the document holds no run parameters.
Run parameters are command-line flags, each default declared once in
`build_parser` and listed by `--help`.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import engine, estimator, linalg, theory
from .errors import AssumptionViolation, Diverged, TwoScaleError
from .model import NoiseSpec, SystemSpec, averaging_system, validate_system
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

SYSTEM_KEYS = ("A11", "A12", "A21", "A22", "b1", "b2")
CONFIG_KEYS = ("n", "m", *SYSTEM_KEYS, "noise", "beta", "gamma")
NOISE_BLOCKS = ("Gamma11", "Gamma12", "Gamma22")
SCHEDULE_KEYS = ("base", "tau", "alpha")
AVERAGING_KEYS = ("A", "b", "Gamma")
# Slow schedule 1/(1+k), so the scaled slow covariance is the root-k-scaled
# covariance of the running average.
AVERAGING_SCHEDULES = SchedulePair(
    slow=StepSchedule(base=1.0, horizon_scale=1.0, exponent=1.0),
    fast=StepSchedule(base=0.5, horizon_scale=10.0, exponent=0.7),
)


def reject_unknown_keys(doc: dict, allowed: Iterable[str], where: str) -> None:
    """Raise ValueError naming every key of `doc` outside `allowed`."""
    stray = sorted(set(doc) - set(allowed))
    if stray:
        raise ValueError(f"unknown {where} keys: {', '.join(map(repr, stray))}")


def require_keys(doc: dict, required: Iterable[str], where: str) -> None:
    """Raise ValueError naming every key of `required` missing from `doc`."""
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing {where} keys: {', '.join(map(repr, missing))}")


def numbers(value, name: str):
    """Return value if it is a number, a numeric array or nested lists of numbers; else raise ValueError.

    A bool, a string or an integer beyond the float range is refused here,
    where float() and numpy would convert the first two and raise
    OverflowError on the third.  The message names name and what was refused.
    """
    if isinstance(value, (list, tuple)):
        if not set(map(type, value)) <= {float}:
            for item in value:
                numbers(item, name)
        return value
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} holds an integer too large for a float") from None
        return value
    raise ValueError(f"{name} holds {value!r}, which is not a number")


def _object(value, name: str) -> dict:
    """Return value if it is a JSON object; else raise TypeError naming name and the type found."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, not {type(value).__name__}")
    return value


@dataclass
class RunConfig:
    """The system and its two step-size schedules; the one reader and writer of configuration documents."""

    system: SystemSpec
    schedules: SchedulePair

    @classmethod
    def read(cls, doc: dict) -> "RunConfig":
        """Read either document form: a coupled system, or an averaging problem {"A", "b", "Gamma"}.

        The first fault raises TypeError or ValueError, in this order:
        top-level keys, A11 ... b2, "noise" and `NoiseSpec`, `SystemSpec`,
        the declared n and m, "beta", then "gamma".  A missing key is a
        ValueError that names it.
        """
        if "A" in doc:
            reject_unknown_keys(doc, AVERAGING_KEYS, "averaging configuration")
            require_keys(doc, AVERAGING_KEYS, "averaging configuration")
            A, b, Gamma = (numbers(doc[key], key) for key in AVERAGING_KEYS)
            return cls(averaging_system(A, b, Gamma), AVERAGING_SCHEDULES)
        reject_unknown_keys(doc, CONFIG_KEYS, "configuration")
        require_keys(doc, (*SYSTEM_KEYS, "noise", "beta", "gamma"), "configuration")
        blocks = {key: numbers(doc[key], key) for key in SYSTEM_KEYS}
        entry = _object(doc["noise"], "noise")
        reject_unknown_keys(entry, (*NOISE_BLOCKS, "distribution"), "noise")
        require_keys(entry, NOISE_BLOCKS, "noise")
        gammas = {key: numbers(entry[key], key) for key in NOISE_BLOCKS}
        noise = NoiseSpec(**gammas, distribution=entry.get("distribution", "gaussian"))
        system = SystemSpec(**blocks, noise=noise)
        for key in ("n", "m"):
            if key in doc and (isinstance(doc[key], bool) or doc[key] != getattr(system, key)):
                raise ValueError(f"declared {key}={doc[key]!r} does not match matrix shapes")
        schedules = []
        for key in ("beta", "gamma"):
            entry = _object(doc[key], key)
            reject_unknown_keys(entry, SCHEDULE_KEYS, "schedule")
            require_keys(entry, SCHEDULE_KEYS, f"{key} schedule")
            base, tau, alpha = (float(numbers(entry[k], f"schedule {k}")) for k in SCHEDULE_KEYS)
            schedules.append(StepSchedule(base=base, horizon_scale=tau, exponent=alpha))
        return cls(system, SchedulePair(*schedules))

    def document(self) -> dict:
        """The coupled-form document of this configuration, which `read` reads back bit for bit."""
        system, noise = self.system, self.system.noise
        doc = {"n": system.n, "m": system.m, **{key: getattr(system, key).tolist() for key in SYSTEM_KEYS}}
        doc["noise"] = {key: getattr(noise, key).tolist() for key in NOISE_BLOCKS}
        doc["noise"]["distribution"] = noise.distribution
        for key, schedule in (("beta", self.schedules.slow), ("gamma", self.schedules.fast)):
            doc[key] = {"base": schedule.base, "tau": schedule.horizon_scale, "alpha": schedule.exponent}
        return doc

    def canonical(self) -> str:
        return json.dumps(self.document(), sort_keys=True, separators=(",", ":"))


class Unreadable(Exception):
    """The configuration file could not be parsed; main reports it as unreadable."""


def _read_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            # The JSON reader recurses once per level of nesting.
            raise Unreadable(f"{path}: nested too deeply to parse") from None
    return _object(doc, "configuration")


def load_config(path: str) -> RunConfig:
    """Read the configuration document at path."""
    return RunConfig.read(_read_object(path))


def geometric_checkpoints(K: int) -> list[int]:
    """Log-spaced checkpoints 100, 1000, ... capped by and including K."""
    cps = []
    c = 100
    while c < K:
        cps.append(c)
        c *= 10
    cps.append(K)
    return cps


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


class Unwritable(Exception):
    """The --out path could not be written; main reports it apart from a bad configuration."""


def _check_writable(out: str | None) -> None:
    """Raise Unwritable now if --out cannot be written, so a bad path costs no run.

    Checks that the directory of out exists, that out is not a directory,
    and that out, or its directory when out does not exist yet, is
    writable; creates nothing.
    """
    if not out:
        return
    folder = os.path.dirname(out) or os.curdir
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise Unwritable(OSError(code, os.strerror(code), out))


def _write_lines(lines: Iterable[str], out: str | None) -> None:
    """Write each line and a newline to out, or to stdout when out is empty.

    Lines may be a generator: each is written as it comes, so no list of
    lines and no joined text is held.  The caller finishes every solve and
    check first, so a refused run opens no file.
    """
    lines = (line + "\n" for line in lines)
    if not out:
        sys.stdout.writelines(lines)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise Unwritable(exc) from exc


def _matrix_lines(matrices: dict[str, np.ndarray]) -> Iterable[str]:
    """`matrix,row,col,value` CSV of 2-D float arrays, yielded one matrix row at a time.

    Each yield is the lines of one row, joined by newlines: one %-format
    over the row's values, with the column tails built once per matrix.
    The bytes are those of `_csv_lines` on the (name, i, j, value) rows:
    indices through str, values through %.17g.
    """
    yield "matrix,row,col,value"
    for name, M in matrices.items():
        tail = [f",{j},%.17g" for j in range(M.shape[1])]
        name = name.replace("%", "%%")
        for i in range(M.shape[0]):
            head = f"{name},{i}"
            yield (head + ("\n" + head).join(tail)) % tuple(M[i].tolist())


def _validation_gate(cfg: RunConfig, advice: str = "") -> int | None:
    """Print the report and return exit 2 if validation fails, else None."""
    report = validate_system(cfg.system, cfg.schedules)
    if report.passed:
        return None
    for line in report.lines():
        print(line)
    print(f"validation failed{advice}")
    return EXIT_TOLERANCE


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


def _at_least(low: int, param: str):
    """Flag type: an integer no lower than low, the floor of the engine parameter param."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text}: {param} must be an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value}: {param} must be at least {low}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Raises every command-line error as ArgumentError; subparsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(exit_on_error=False, **kwargs)

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    report = validate_system(cfg.system, cfg.schedules)
    for line in report.lines():
        print(line)
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    gate = _validation_gate(cfg)
    if gate is not None:
        return gate
    _require_two_time_scales(cfg)
    pred = theory.predict_full(cfg.system, cfg.schedules.beta_bar)
    reduced = theory.predict_reduced(cfg.system, cfg.schedules.beta_bar)
    opt_cov, g1_opt, g_opt = theory.optimal_gain_covariance(cfg.system)

    discrepancy = linalg.frobenius(pred.Sigma11 - reduced) / (1.0 + linalg.frobenius(pred.Sigma11))
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
    _write_lines(_matrix_lines(matrices), args.out)
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
    gap = float(np.linalg.norm(final.Sigma11 - pred.Sigma11))
    scale = float(np.linalg.norm(pred.Sigma11))
    # A zero prediction (no noise) is met only by an exactly zero block.
    err = gap / scale if scale else (0.0 if gap == 0.0 else np.inf)
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
        cfg.system, cfg.schedules, args.replicas, args.steps, cps, args.seed
    )
    rows = [
        (cp.k, cp.beta, cp.gamma,
         *estimator.scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma))
        for cp in result.checkpoints
    ]
    _write_lines(_covariance_lines(cfg, rows), args.out)

    pred = theory.predict_full(cfg.system, cfg.schedules.beta_bar)
    cp = result.final
    S11, S12, S22 = rows[-1][3:]
    SE11, SE12, SE22 = estimator.standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    ok = _entrywise_pass(S11, pred.Sigma11, SE11) and _entrywise_pass(S22, pred.Sigma22, SE22)
    print(f"slow block at k={cp.k}: estimate {S11.ravel()} vs prediction {pred.Sigma11.ravel()}")
    print(f"fast block at k={cp.k}: estimate {S22.ravel()} vs prediction {pred.Sigma22.ravel()}")
    print(f"ensemble tolerance ({ENSEMBLE_REL_TOL:.0%} or {ENSEMBLE_SE_FACTOR:.0f} SE): "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _run_normality(cfg: RunConfig, args) -> int:
    result = engine.run_ensemble(
        cfg.system, cfg.schedules, args.replicas, args.steps, [args.steps], args.seed
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
    stride = max(1, args.steps // 100) if args.stride is None else args.stride
    states = engine.simulate(cfg.system, cfg.schedules, None, args.steps, args.seed, stride)
    run = engine.simulate_transformed(
        cfg.system, cfg.schedules, args.steps, args.seed, record_stride=stride
    )
    rebuilt = engine.reconstruct_original(cfg.system, run)
    by_k = {st.k: st for st in states}
    worst = 0.0
    errors = []
    for st in rebuilt:
        ref = by_k.get(st.k)
        if ref is None:
            continue
        ref_vec = np.concatenate([ref.theta, ref.r])
        new_vec = np.concatenate([st.theta, st.r])
        err = float(np.linalg.norm(new_vec - ref_vec) / (1.0 + np.linalg.norm(ref_vec)))
        worst = max(worst, err)
        errors.append((st.k, err))
    if args.out:
        _write_lines(_csv_lines(["k", "relative_error"], errors), args.out)
    print(f"max relative reconstruction error over {len(errors)} recorded states: {worst:.3e}")
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


# The fewest replicas each Monte Carlo mode's estimators accept.
_MIN_REPLICAS = {
    "ensemble": estimator.MIN_SE_SAMPLES,
    "normality": estimator.MIN_NORMALITY_SAMPLES,
}


def cmd_run(args) -> int:
    low = _MIN_REPLICAS.get(args.mode, 0)
    if args.replicas < low:
        print(f"invalid flag: --replicas {args.replicas}: N must be at least {low} "
              f"in --mode {args.mode}", file=sys.stderr)
        return EXIT_IO
    cfg = load_config(args.config)
    if not args.skip_validate:
        # `averaging` has no --skip-validate to advise.
        advice = "; rerun with --skip-validate to force" if args.command == "run" else ""
        gate = _validation_gate(cfg, advice)
        if gate is not None:
            return gate
    if args.mode != "transformed-check":
        _require_two_time_scales(cfg)
    return _MODES[args.mode](cfg, args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twoscale",
        description="Predict and validate scaled covariances of coupled slow/fast linear iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": sub.add_parser("validate", help="check admissibility assumptions"),
        "predict": sub.add_parser("predict", help="solve the limit covariance equations"),
        "run": sub.add_parser("run", help="propagate, simulate, or cross-check"),
        "averaging": sub.add_parser(
            "averaging",
            help='run --mode ensemble with N = 4000, K = 1e5 (made for "A", "b", "Gamma" configs)',
        ),
    }
    # Each flag goes to the subcommands that read it; a size flag's type holds its floor.
    def sized(low, param, default, note=""):
        return dict(type=_at_least(low, param), default=default, help=f"{note}default: %(default)s")

    flags = [
        ("validate predict run averaging", ["--config"],
         dict(required=True, help="JSON configuration path")),
        ("run", ["--mode"], dict(choices=list(_MODES), required=True)),
        ("run averaging", ["--replicas", "-N"], sized(2, "N", 1000)),
        ("run averaging", ["--steps", "-K"], sized(1, "K", 10000)),
        ("run averaging", ["--seed"], sized(0, "base_seed", 0)),
        ("run averaging", ["--jobs"], sized(1, "jobs", 1, "accepted and ignored; ")),
        ("run", ["--stride"],
         dict(type=_at_least(1, "record_stride"), help="default: steps // 100")),
        ("predict run", ["--out"], dict(help="output CSV path (default stdout)")),
        ("run", ["--skip-validate"], dict(action="store_true")),
    ]
    for users, names, kwargs in flags:
        for name in users.split():
            commands[name].add_argument(*names, **kwargs)
    commands["averaging"].set_defaults(
        mode="ensemble", out=None, skip_validate=False, replicas=4000, steps=100000
    )
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "predict": cmd_predict,
    "run": cmd_run,
    "averaging": cmd_run,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        name = exc.argument_name.split("/")[0] + " " if exc.argument_name else ""
        print(f"invalid flag: {name}{exc.message}", file=sys.stderr)
        return EXIT_IO
    handler = _COMMANDS[args.command]
    try:
        _check_writable(getattr(args, "out", None))
        return handler(args)
    except Unwritable as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError, Unreadable) as exc:
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
