"""Apply one-line edits to a copy of the checkout and check that some test fails for each.

Usage, from the repository root:

    python3 tools/mutants.py

Each mutant replaces one line of a module under src/twoscale. The script
copies the checkout holding it (without .git) to a temporary directory, runs
TESTS there, all but the DESELECT digest tests, once unedited, which must
pass, and then once per mutant with its edit applied, stopping at the first
failure. A mutant is killed when
some test fails and survives when all pass. Prints one line per mutant and
exits 1 if any survives or if an edit no longer matches its line, and 2 if
the unedited tests fail. Needs pytest, numpy and scipy, as the tests do.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = ["tests/test_cli.py", "tests/test_model.py", "tests/test_schedules.py", "tests/test_engine.py",
         "tests/test_oracles.py", "tests/test_linalg.py", "tests/test_theory.py"]
# Digest tests fail on any change of bits, so they are left out: each kill
# is then credited to a test of behaviour, and a declared bit change that
# refreshes the digests leaves the kill count as it was.
DESELECT = ["test_route_states_golden_digest", "test_route_states_do_not_depend_on_blas_thread_count",
            "test_standard_tile_golden_digest", "test_segment_draws_golden_digest"]

# (name, module, line as it stands without its indentation, replacement).
MUTANTS = [
    ("no top-level key check", "cli.py",
     'reject_unknown_keys(doc, CONFIG_KEYS, "configuration")', "pass"),
    ("no noise key check", "cli.py",
     'reject_unknown_keys(entry, (*NOISE_BLOCKS, "distribution"), "noise")', "pass"),
    ("no schedule key check", "cli.py",
     'reject_unknown_keys(entry, SCHEDULE_KEYS, "schedule")', "pass"),
    ("no averaging key check", "cli.py",
     'reject_unknown_keys(doc, AVERAGING_KEYS, "averaging configuration")', "pass"),
    ("tau and alpha swapped on read", "cli.py",
     'base, tau, alpha = (float(numbers(entry[k], f"schedule {k}")) for k in SCHEDULE_KEYS)',
     'base, alpha, tau = (float(numbers(entry[k], f"schedule {k}")) for k in SCHEDULE_KEYS)'),
    ("tau and alpha swapped on write", "cli.py",
     'doc[key] = {"base": schedule.base, "tau": schedule.horizon_scale, "alpha": schedule.exponent}',
     'doc[key] = {"base": schedule.base, "tau": schedule.exponent, "alpha": schedule.horizon_scale}'),
    ("rademacher noise by default", "cli.py",
     'noise = NoiseSpec(**gammas, distribution=entry.get("distribution", "gaussian"))',
     'noise = NoiseSpec(**gammas, distribution=entry.get("distribution", "scaled-rademacher"))'),
    ("numbers accepts a bool", "cli.py",
     "if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):",
     "if isinstance(value, (int, float, np.integer, np.floating)):"),
    ("no declared-dimension check", "cli.py",
     'raise ValueError(f"declared {key}={doc[key]!r} does not match matrix shapes")', "pass"),
    ("moment tree merges M1 M2", "engine.py",
     "_product(M2, M1, M_next[..., :h], tmp)", "_product(M1, M2, M_next[..., :h], tmp)"),
    ("moment tree drops Q2", "engine.py", "G += Q2", "pass"),
    ("moment tree takes M2 for M2'", "engine.py",
     "G = _product(MQ, M2.swapaxes(0, 1), Q_next[..., :h], tmp)", "G = _product(MQ, M2, Q_next[..., :h], tmp)"),
    ("moment tree drops the odd tail", "engine.py",
     "M_next[..., h], Q_next[..., h] = M[..., -1], Q[..., -1]", "pass"),
    ("planner drops its tile edges", "engine.py",
     "tile_edges = range((t0 // block + 1) * block, t1, block)", "tile_edges = ()"),
    ("planner drops its record edges", "engine.py",
     "cuts = sorted({*tile_edges, *edges[bisect_right(edges, t0) : bisect_left(edges, t1)]})",
     "cuts = sorted(tile_edges)"),
    ("a run yields its first pair for every segment", "engine.py",
     "yield (a + i * L, a + (i + 1) * L, X[i], Y[i])", "yield (a + i * L, a + (i + 1) * L, X[0], Y[0])"),
    ("compose zeroes the last step's noise", "engine.py",
     "steps[-1] = N[-1].swapaxes(-1, -2)", "steps[-1] = 0"),
    ("advance skips locate", "engine.py", "locate(a, b, Z, Z_next)", "pass"),
    ("replay reports one step late", "engine.py",
     "raise Diverged(a + j + 1, where)", "raise Diverged(a + j + 2, where)"),
    ("moment replay reports one step late", "engine.py",
     "raise MomentDiverged(a + j + 1)", "raise MomentDiverged(a + j + 2)"),
    ("moment replay never fires", "engine.py",
     "if not float(np.abs(C).max()) <= DIVERGENCE_CUTOFF**2:", "if False:"),
    ("Lyapunov residual check never fires", "linalg.py",
     "if not resid <= 1e-10 * (1.0 + frobenius(C)):", "if False:"),
    ("Lyapunov solve takes A' for A", "linalg.py",
     "X = scipy.linalg.solve_continuous_lyapunov(A, C)", "X = scipy.linalg.solve_continuous_lyapunov(A.T, C)"),
    ("full prediction drops the cross term from the slow equation", "theory.py",
     "rhs = linalg.symmetrize(G.Gamma11 - spec.A12 @ S12.T - S12 @ spec.A12.T)",
     "rhs = linalg.symmetrize(G.Gamma11)"),
    ("reduced prediction drops the beta_bar / 2 shift", "theory.py",
     "drift = delta_matrix(spec) - 0.5 * beta_bar * np.eye(spec.n)", "drift = delta_matrix(spec)"),
]


def mutate(source: str, old: str, new: str) -> str | None:
    """source with the one line reading old (after its indentation) replaced by new, or None."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + new + "\n"
    return "".join(lines)


def tests_pass(root: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    deselect = "not (" + " or ".join(DESELECT) + ")"
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-k", deselect,
                          *TESTS], cwd=root, env=env, capture_output=True, timeout=1800)
    return run.returncode == 0


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as work:
        copy = Path(work, "repo")
        shutil.copytree(Path(__file__).resolve().parent.parent, copy,
                        ignore=shutil.ignore_patterns(".git", "__pycache__"))
        if not tests_pass(copy):
            print("the unedited tests fail; no mutant was run")
            return 2
        for name, module, old, new in MUTANTS:
            path = copy / "src" / "twoscale" / module
            source = path.read_text(encoding="utf-8")
            edited = mutate(source, old, new)
            if edited is None:
                status = "NO MATCH"
            else:
                path.write_text(edited, encoding="utf-8")
                status = "killed" if not tests_pass(copy) else "SURVIVED"
                path.write_text(source, encoding="utf-8")
            bad += status != "killed"
            print(f"{status}: {name} ({module})", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
