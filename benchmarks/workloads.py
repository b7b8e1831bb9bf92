"""Workload definitions: seeded configurations, CLI commands and output checks.

Everything here depends on numpy and scipy only, never on `twoscale`, so the
reference predictions the checks compare against are an independent route
(scipy's Bartels-Stewart solver) rather than the program's own.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

# Schedules as (base, horizon_scale, exponent) pairs.
CRITERION_3 = ((1.0, 10.0, 1.0), (1.0, 10.0, 0.7))
CRITERION_4 = ((1.0, 1.0, 1.0), (1.0, 10.0, 0.7))
CRITERION_5 = ((0.1, 10.0, 1.0), (0.5, 10.0, 0.7))
# Random systems under the criterion schedules fail their own gates on many
# seeds: with unit first steps the joint iteration can grow by orders of
# magnitude before the step-size ratio is small enough, and criterion 3's
# ratio is still 0.06 at K=1e5. The propagate and normality systems therefore
# take 0.2 first steps and a fast exponent of 0.6, and are drawn until their
# joint drift A is stable as well (see README.md for the seed counts).
RANDOM_SCHEDULES = ((0.2, 5.0, 1.0), (0.2, 1000.0, 0.6))
RANDOM_DRIFT_MARGIN = 1.5
JOINT_MARGIN = 0.3

NORMALITY_SEED = 0

PROPAGATE_TOL = 0.05
ENSEMBLE_TOL = 0.10
PREDICT_TOL = 1e-7
TRANSFORMED_TOL = 1e-8


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's own reference."""


@dataclass
class Command:
    """One CLI invocation of a workload pass.

    `argv` holds the CLI arguments; the literal strings CONFIG and OUT are
    replaced by the config and output paths. `check(out_text, stdout_text)`
    raises CheckFailed when the output is wrong.
    """

    label: str
    argv: list[str]
    config: dict
    check: Callable[[str, str], None]


def system_a() -> dict:
    """The scalar reference system of the acceptance suite."""
    return _system_doc(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
        np.array([1.0]), np.array([2.0]), np.eye(2), "gaussian",
    )


def random_stable_system(
    rng: np.random.Generator, n: int, m: int, drift_margin: float = 0.8,
    distribution: str = "gaussian",
) -> dict:
    """Same recipe as tests/conftest.py::random_stable_system, as a config dict.

    The real parts of A22's eigenvalues sit at 0.6 or above and those of the
    reduced drift at drift_margin or above.
    """
    A22 = rng.standard_normal((m, m))
    shift = max(0.0, -float(np.min(np.linalg.eigvals(A22).real))) + 0.6
    A22 = A22 + shift * np.eye(m)

    A12 = rng.standard_normal((n, m))
    A21 = rng.standard_normal((m, n))
    A11 = rng.standard_normal((n, n))
    delta = A11 - A12 @ np.linalg.solve(A22, A21)
    shift = max(0.0, -float(np.min(np.linalg.eigvals(delta).real))) + drift_margin
    A11 = A11 + shift * np.eye(n)

    d = n + m
    L = rng.standard_normal((d, d)) / np.sqrt(d)
    J = L @ L.T + 0.05 * np.eye(d)
    return _system_doc(
        A11, A12, A21, A22, rng.standard_normal(n), rng.standard_normal(m), J, distribution
    )


def joint_stable_system(
    rng: np.random.Generator, n: int, m: int, distribution: str = "gaussian"
) -> dict:
    """First random_stable_system draw whose joint drift A is stable as well."""
    for _ in range(1000):
        doc = random_stable_system(rng, n, m, RANDOM_DRIFT_MARGIN, distribution)
        A = np.block([[np.array(doc["A11"]), np.array(doc["A12"])],
                      [np.array(doc["A21"]), np.array(doc["A22"])]])
        if np.min(np.linalg.eigvals(A).real) > JOINT_MARGIN:
            return doc
    raise RuntimeError("no joint-stable system in 1000 draws")


def _system_doc(A11, A12, A21, A22, b1, b2, J, distribution) -> dict:
    n = A11.shape[0]
    return {
        "n": n, "m": A22.shape[0],
        "A11": A11.tolist(), "A12": A12.tolist(), "A21": A21.tolist(), "A22": A22.tolist(),
        "b1": b1.tolist(), "b2": b2.tolist(),
        "noise": {
            "Gamma11": J[:n, :n].tolist(), "Gamma12": J[:n, n:].tolist(),
            "Gamma22": J[n:, n:].tolist(), "distribution": distribution,
        },
    }


def with_schedules(system: dict, schedules) -> dict:
    (b0, bt, ba), (g0, gt, ga) = schedules
    doc = dict(system)
    doc["beta"] = {"base": b0, "tau": bt, "alpha": ba}
    doc["gamma"] = {"base": g0, "tau": gt, "alpha": ga}
    return doc


def _rng(seed: int, slot: int) -> np.random.Generator:
    """Independent stream per system slot of a workload."""
    return np.random.default_rng([seed, slot])


# ---------------------------------------------------------------------------
# independent reference predictions


def reference_prediction(doc: dict) -> dict[str, np.ndarray]:
    """Limit covariances of a config, solved with scipy rather than twoscale."""
    A11, A12, A21, A22 = (np.asarray(doc[k], dtype=float) for k in ("A11", "A12", "A21", "A22"))
    noise = doc["noise"]
    G11, G12, G22 = (np.asarray(noise[k], dtype=float) for k in ("Gamma11", "Gamma12", "Gamma22"))
    beta = doc["beta"]
    beta_bar = 1.0 / (beta["tau"] * beta["base"]) if beta["alpha"] == 1.0 else 0.0
    n = A11.shape[0]

    S22 = scipy.linalg.solve_sylvester(A22, A22.T, G22)
    S12 = np.linalg.solve(A22, (G12 - A12 @ S22).T).T
    delta = A11 - A12 @ np.linalg.solve(A22, A21)
    shifted = delta - 0.5 * beta_bar * np.eye(n)
    S11 = scipy.linalg.solve_sylvester(shifted, shifted.T, G11 - A12 @ S12.T - S12 @ A12.T)
    C = np.linalg.solve(A22.T, A12.T).T
    Q = G11 - C @ G12.T - G12 @ C.T + C @ G22 @ C.T
    reduced = scipy.linalg.solve_sylvester(shifted, shifted.T, Q)
    delta_inv = np.linalg.inv(delta)
    return {
        "Delta": delta, "Sigma11": S11, "Sigma12": S12, "Sigma22": S22,
        "Sigma11_reduced": reduced, "Sigma11_opt": delta_inv @ Q @ delta_inv.T,
    }


def _rel(est: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(est - ref) / (1e-300 + np.linalg.norm(ref)))


def _final_blocks(out_text: str, n: int, m: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """S11 and S22 of the last row of a propagate or ensemble CSV."""
    rows = list(csv.DictReader(io.StringIO(out_text)))
    if not rows or int(rows[-1]["k"]) != K:
        raise CheckFailed(f"output does not end at k={K}")
    last = rows[-1]
    S11 = np.array([[float(last[f"S11_{i}_{j}"]) for j in range(n)] for i in range(n)])
    S22 = np.array([[float(last[f"S22_{i}_{j}"]) for j in range(m)] for i in range(m)])
    if not (np.all(np.isfinite(S11)) and np.all(np.isfinite(S22))):
        raise CheckFailed("non-finite covariance in output")
    return S11, S22


def check_propagate(doc: dict, K: int):
    ref = reference_prediction(doc)

    def check(out_text: str, _stdout: str) -> None:
        S11, _ = _final_blocks(out_text, doc["n"], doc["m"], K)
        err = _rel(S11, ref["Sigma11"])
        if err >= PROPAGATE_TOL:
            raise CheckFailed(f"propagated slow block {err:.2%} from the reference")

    return check


def check_ensemble(doc: dict, N: int, K: int):
    ref = reference_prediction(doc)
    # 10%, or 5 standard errors of a Gaussian sample variance at small N.
    tol = max(ENSEMBLE_TOL, 5.0 * np.sqrt(2.0 / N))

    def check(out_text: str, _stdout: str) -> None:
        S11, S22 = _final_blocks(out_text, doc["n"], doc["m"], K)
        for name, est in (("Sigma11", S11), ("Sigma22", S22)):
            err = _rel(est, ref[name])
            if err >= tol:
                raise CheckFailed(f"ensemble {name} {err:.2%} from the reference")

    return check


def check_normality(N: int):
    def check(out_text: str, _stdout: str) -> None:
        rows = list(csv.DictReader(io.StringIO(out_text)))
        if len(rows) != 1 or int(rows[0]["samples"]) != N:
            raise CheckFailed(f"normality row missing or not over {N} samples")
        row = rows[0]
        if not float(row["ks_statistic"]) < float(row["ks_threshold"]):
            raise CheckFailed("KS statistic at or above its threshold")

    return check


_RECON = re.compile(r"max relative reconstruction error over (\d+) recorded states: (\S+)")


def check_transformed(records: int):
    def check(_out_text: str, stdout: str) -> None:
        match = _RECON.search(stdout)
        if match is None:
            raise CheckFailed("no reconstruction error line in output")
        if int(match.group(1)) < records or not float(match.group(2)) <= TRANSFORMED_TOL:
            raise CheckFailed(f"reconstruction: {match.group(0)}")

    return check


def check_predict(doc: dict):
    ref = reference_prediction(doc)

    def check(out_text: str, _stdout: str) -> None:
        cells: dict[str, dict[tuple[int, int], float]] = {}
        for row in csv.DictReader(io.StringIO(out_text)):
            cells.setdefault(row["matrix"], {})[(int(row["row"]), int(row["col"]))] = float(row["value"])
        for name, M in ref.items():
            got = cells.get(name)
            if got is None or len(got) != M.size:
                raise CheckFailed(f"predict output lacks {name}")
            est = np.array([[got[(i, j)] for j in range(M.shape[1])] for i in range(M.shape[0])])
            err = _rel(est, M)
            if not err <= PREDICT_TOL:
                raise CheckFailed(f"predicted {name} {err:.2e} from the reference")

    return check


# ---------------------------------------------------------------------------
# workloads


def build(name: str, seed: int, tiny: bool = False) -> list[Command]:
    """The CLI commands of one pass of a workload, generated from the seed."""
    return BUILDERS[name](seed, tiny)


def _propagate(label: str, doc: dict, K: int) -> Command:
    argv = ["run", "--config", "CONFIG", "--mode", "propagate", "--steps", str(K), "--out", "OUT"]
    return Command(label, argv, doc, check_propagate(doc, K))


def _propagate_sweep(seed: int, tiny: bool) -> list[Command]:
    # (n, m, K) of the random systems; the d=10 split is 2+8 because 5+5
    # systems still ended up to 12% off the limit at K=2e4.
    randoms = [(1, 1, 10**5)] if tiny else [(3, 3, 2 * 10**4), (2, 8, 2500)]
    commands = [_propagate("propagate-d2", with_schedules(system_a(), CRITERION_3), 10**6)]
    for slot, (n, m, K) in enumerate(randoms, start=1):
        system = joint_stable_system(_rng(seed, slot), n, m)
        doc = with_schedules(system, RANDOM_SCHEDULES)
        commands.append(_propagate(f"propagate-d{n + m}", doc, K))
    return commands


def _ensemble_gauss(seed: int, tiny: bool) -> list[Command]:
    N, K = (256, 10**4) if tiny else (2000, 10**4)
    doc = with_schedules(system_a(), CRITERION_4)
    argv = ["run", "--config", "CONFIG", "--mode", "ensemble", "--replicas", str(N),
            "--steps", str(K), "--seed", str(seed), "--jobs", "1", "--out", "OUT"]
    return [Command("ensemble-d2", argv, doc, check_ensemble(doc, N, K))]


def _ensemble_rademacher(seed: int, tiny: bool) -> list[Command]:
    # The normality gates (KS, skewness, kurtosis) reject a few percent of
    # correct runs by design (1 of 30 seeds at K=1e4 and at K=1e5), so this
    # command runs one fixed input that passes, whatever the benchmark seed.
    del seed
    half, N = (1, 256) if tiny else (3, 512)
    K = 10**4
    system = joint_stable_system(_rng(NORMALITY_SEED, 1), half, half, "scaled-rademacher")
    doc = with_schedules(system, RANDOM_SCHEDULES)
    argv = ["run", "--config", "CONFIG", "--mode", "normality", "--replicas", str(N),
            "--steps", str(K), "--seed", str(NORMALITY_SEED), "--jobs", "1", "--out", "OUT"]
    return [Command(f"normality-d{2 * half}", argv, doc, check_normality(N))]


def _decouple_predict(seed: int, tiny: bool) -> list[Command]:
    K, half = (2000, 4) if tiny else (5000, 40)
    stride = K // 100
    system = random_stable_system(_rng(seed, 1), 2, 2)
    doc = with_schedules(system, CRITERION_5)
    transformed = Command(
        "transformed-d4",
        ["run", "--config", "CONFIG", "--mode", "transformed-check", "--steps", str(K),
         "--seed", str(seed), "--stride", str(stride)],
        doc,
        check_transformed(K // stride),
    )
    big = with_schedules(random_stable_system(_rng(seed, 2), half, half), CRITERION_3)
    predict = Command(
        f"predict-n{half}", ["predict", "--config", "CONFIG", "--out", "OUT"], big, check_predict(big)
    )
    return [transformed, predict]


BUILDERS = {
    "propagate-sweep": _propagate_sweep,
    "ensemble-gauss": _ensemble_gauss,
    "ensemble-rademacher-d6": _ensemble_rademacher,
    "decouple-predict": _decouple_predict,
}


def write_configs(commands: list[Command], directory: Path, tag: str) -> list[Path]:
    """Write each command's config as JSON; return the paths in command order."""
    paths = []
    for i, cmd in enumerate(commands):
        path = directory / f"{tag}-{i}-{cmd.label}.json"
        path.write_text(json.dumps(cmd.config), encoding="utf-8")
        paths.append(path)
    return paths
