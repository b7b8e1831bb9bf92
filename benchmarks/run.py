"""Benchmark of the twoscale CLI: wall time, set-up time, memory and failures.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The process drives `twoscale.cli.main` in-process on configs generated from
the seed, one workload per process. After one untimed warm-up pass it
repeats passes over the workload's commands for about S seconds and reports
medians. A fixed reference kernel, timed after every command, tracks the
host's speed; the pass time is reported at the kernel's nominal speed.
`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the package's
public functions and prints the per-layer metrics instead. The last line of standard output is the result
object; the line before it records the environment. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

# BLAS pools stay at one thread and the timed commands run at --jobs 1, so
# the program uses one core; the traced run replays the ensembles at --jobs 2.
BLAS_THREADS = "1"
REPLAY_JOBS = "2"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_STARTS = 7
# Median duration of reference_kernel on the reference machine (see README.md).
REFERENCE_KERNEL_S = 0.045
# Timed inside the fresh interpreter: waiting on the child with a timeout
# polls at 50 ms steps, which would quantize the measurement.
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import sys\n"
    "from twoscale.cli import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
    "print(time.perf_counter() - t0)\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_cli():
    """Import twoscale.cli from this checkout's src/, never from site-packages."""
    if not (SRC / "twoscale" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no twoscale sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twoscale.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "twoscale":
        raise SystemExit(f"benchmark: imported twoscale from {cli.__file__}, not {SRC}")
    return cli


def setup_times(config_paths: list[Path]) -> list[float]:
    """Wall time of fresh interpreters importing twoscale.cli and loading the configs."""
    times = []
    for _ in range(SETUP_STARTS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *map(str, config_paths)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
            check=True, timeout=60, stdout=subprocess.PIPE, text=True,
        )
        times.append(float(probe.stdout))
    return times


def environment(args) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "commit": commit,
    }


def reference_kernel() -> float:
    """Time a fixed mix of the program's kinds of work; return seconds.

    A dense LU solve (BLAS, like the Kronecker and propagation products), a
    loop of small-array updates (per-call dispatch, like the per-step
    trajectory loops) and a batch of normal draws (like the noise tiles).
    The program's code is not involved, so its speed does not move the result.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((300, 300)) + 300 * np.eye(300)
    m = rng.standard_normal((4, 4)) * 1e-3
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.solve(a, a)
        x = np.eye(4)
        for _ in range(1200):
            x = x + m @ x
        rng.standard_normal(300_000).sum()
    return time.perf_counter() - t0


class Runner:
    """Runs commands through cli.main and counts failed operations."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self._digests: dict[str, str] = {}

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        print(f"benchmark: {label}: {reason}", file=sys.stderr)

    def run(self, cmd, config: Path, jobs: str | None = None) -> float:
        """Run one command, check its output, and return its wall time."""
        out = self.workdir / f"{config.stem}.out"
        argv = [str(config) if a == "CONFIG" else str(out) if a == "OUT" else a for a in cmd.argv]
        if jobs is not None:
            argv[argv.index("--jobs") + 1] = jobs
        self.attempted += 1
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            self.fail(cmd.label, f"raised {exc!r}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.fail(cmd.label, f"exit code {code}: {captured.getvalue().strip()[-500:]}")
            return elapsed
        try:
            out_text = out.read_text(encoding="utf-8") if "OUT" in cmd.argv else ""
            cmd.check(out_text, captured.getvalue())
        except Exception as exc:
            self.fail(cmd.label, f"check failed: {exc}")
            return elapsed
        # Same inputs must give the same bytes on every pass and at any --jobs.
        digest = hashlib.sha256((out_text + "\0" + captured.getvalue()).encode()).hexdigest()
        if self._digests.setdefault(config.name, digest) != digest:
            self.fail(cmd.label, "output differs from an earlier run of the same inputs")
        return elapsed

    def run_pass(self, commands, configs, kernel_s: list[float] | None = None) -> list[float]:
        """Run every command once; return each command's wall time.

        With kernel_s given, the reference kernel is timed after each command
        and its times are appended there.
        """
        times = []
        for cmd, path in zip(commands, configs):
            times.append(self.run(cmd, path))
            if kernel_s is not None:
                kernel_s.append(reference_kernel())
        return times


def repeat(run_once, budget: float) -> list[list[float]]:
    """Call run_once while the next call is expected to end within the budget.

    run_once returns the wall times of one pass's commands; the result holds
    one such list per pass.
    """
    passes: list[list[float]] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 + median_pass(passes) <= budget:
        passes.append(run_once())
    return passes


def median_pass(passes: list[list[float]]) -> float:
    """Sum over a pass's commands of each command's median wall time.

    Host contention comes in bursts that a whole pass of several seconds
    averages in; the median of many short commands leaves them out.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def end_to_end(args, runner: Runner, commands, configs) -> tuple[dict, dict]:
    kernel_s: list[float] = []
    passes = repeat(lambda: runner.run_pass(commands, configs, kernel_s), args.seconds)
    setup = setup_times(configs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # The host's speed drifts by a quarter or more within minutes; the kernel,
    # timed between the same commands, drifts with it, and the ratio far less.
    wall_s = median_pass(passes)
    kernel_median_s = statistics.median(kernel_s)
    metrics = {
        "wall_norm_s": (wall_s * REFERENCE_KERNEL_S / kernel_median_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    command_s = {cmd.label: statistics.median(times) for cmd, times in zip(commands, zip(*passes))}
    return metrics, {"wall_s": wall_s, "kernel_median_s": kernel_median_s,
                     "command_median_s": command_s, "wall_samples": len(passes),
                     "setup_starts_s": setup}


def per_layer(args, runner: Runner, commands, configs) -> tuple[dict, dict]:
    import tracing

    untraced = repeat(lambda: runner.run_pass(commands, configs), args.seconds / 2)
    per_pass, spans = [], []

    def traced_pass() -> list[float]:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            elapsed = runner.run_pass(commands, configs)
        per_pass.append(tracing.pass_metrics(tracer.spans))
        spans.extend(tracer.spans)
        return elapsed

    traced = repeat(traced_pass, args.seconds / 2)
    missing = tracing.check_expected(args.workload, spans)
    if missing:
        raise SystemExit(f"benchmark: traced spans never fired on {args.workload}: {missing}")
    layer = tracing.median_metrics(per_pass)

    # Replay contract: --jobs 2 must reproduce the --jobs 1 checkpoint arrays.
    ensembles = [(cmd, path) for cmd, path in zip(commands, configs) if "--jobs" in cmd.argv]
    jobs1 = tracing.ensemble_digests(spans)[: len(ensembles)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for cmd, path in ensembles:
            runner.run(cmd, path, jobs=REPLAY_JOBS)
    jobs2 = tracing.ensemble_digests(tracer.spans)
    matched = sum(a == b for a, b in zip(jobs2, jobs1))
    if matched < len(jobs1):
        runner.fail(args.workload, f"--jobs 2 replay differs in {len(jobs1) - matched} run(s)")
    jobs1_s = layer["engine.run_ensemble_s"]
    jobs2_s = tracing.pass_metrics(tracer.spans)["engine.run_ensemble_s"]

    metrics = {name: (value, tracing.unit(name)) for name, value in layer.items()}
    metrics.update({
        "engine.run_ensemble.jobs2_s": (jobs2_s, "s"),
        "engine.run_ensemble.parallel_efficiency":
            (jobs1_s / (2 * jobs2_s) if jobs2_s > 0 else 0.0, "ratio"),
        "engine.run_ensemble.replay_match": (matched / len(jobs1) if jobs1 else 1.0, "ratio"),
        "trace.overhead_s": (median_pass(traced) - median_pass(untraced), "s"),
        "fail_ratio": (runner.failed / runner.attempted, "ratio"),
    })
    return metrics, {"untraced_pass_s": [sum(p) for p in untraced],
                     "traced_pass_s": [sum(p) for p in traced]}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin the BLAS pools before numpy loads; twoscale and the workloads import it.
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    cli = import_cli()
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.BUILDERS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        commands = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
        configs = workloads.write_configs(commands, workdir, "run")
        runner = Runner(cli, workdir)
        runner.run_pass(commands, configs)  # untimed warm-up
        measure = per_layer if args.trace else end_to_end
        metrics, samples = measure(args, runner, commands, configs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = environment(args)
    info.update(samples, attempted=runner.attempted, failed=runner.failed)
    print(json.dumps({"environment": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
