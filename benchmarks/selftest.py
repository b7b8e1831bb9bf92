"""Self-test of the benchmark: every workload at tiny sizes, traced and untraced.

Run from the repository root:

    python3 benchmarks/selftest.py

It checks that each run prints every metric BENCHMARK.json names, with its
unit, that every name matches [A-Za-z0-9_.-]+, that no operation failed, and
that the benchmark refuses to run from a copy without the program's sources.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: list[dict]) -> dict:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{where}: failed operations\n{proc.stderr}")
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(expected):
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if not NAME.fullmatch(name) or entry["unit"] != expected[name]:
            raise SystemExit(f"{where}: bad name or unit for {name}: {entry}")
        if not isinstance(entry["value"], (int, float)):
            raise SystemExit(f"{where}: {name} is not a number")
    return metrics


def check_refuses_without_sources() -> None:
    """A copy holding only BENCHMARK.json and the benchmark must fail cleanly."""
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run("ensemble-gauss", 0, cwd=bare)
        if proc.returncode == 0 or "correct" in proc.stdout:
            raise SystemExit("benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(workload, 0, spec["end_to_end"])
        layers = check_result(workload, 1, spec["per_layer"])
        if layers["fail_ratio"]["value"] != 0 or layers["engine.run_ensemble.replay_match"]["value"] != 1:
            raise SystemExit(f"{workload}: fail_ratio or replay_match off: {layers}")
        print(f"selftest {workload}: ok")
    check_refuses_without_sources()
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
