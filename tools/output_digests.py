"""Digest the output of every benchmark command, to compare two checkouts byte for byte.

Usage, from the repository root:

    python3 tools/output_digests.py [--root DIR] [SEED ...]

Builds the commands of every workload in DIR/benchmarks/workloads.py at each
seed (default 101 and 102), and runs each command in a fresh interpreter
against DIR/src, with BLAS pinned to one thread, in a scratch directory
where the config and `--out` file have fixed relative names. For each
command it prints the exit code and the sha256 of stdout, stderr and the
`--out` bytes ("-" when the command writes no file), then one total over
all of them. Two checkouts with the same total gave the same bytes and exit
code on every command. DIR defaults to the checkout holding this script.
Needs numpy and scipy, as the workloads do.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[101, 102])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads = load_workloads(root)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **{var: "1" for var in BLAS_VARS}}
    total = hashlib.sha256()
    for name in workloads.BUILDERS:
        for seed in args.seeds:
            for cmd in workloads.build(name, seed):
                with tempfile.TemporaryDirectory() as work:
                    Path(work, "config.json").write_text(json.dumps(cmd.config), encoding="utf-8")
                    argv = [{"CONFIG": "config.json", "OUT": "out.csv"}.get(a, a) for a in cmd.argv]
                    run = subprocess.run([sys.executable, "-m", "twoscale.cli", *argv], cwd=work,
                                         env=env, capture_output=True, timeout=600)
                    out = Path(work, "out.csv")
                    out_digest = sha256(out.read_bytes()) if out.exists() else "-"
                line = (f"{name} seed={seed} {cmd.label}: exit={run.returncode} "
                        f"stdout={sha256(run.stdout)} stderr={sha256(run.stderr)} out={out_digest}")
                total.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"total: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
