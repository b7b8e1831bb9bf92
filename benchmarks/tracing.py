"""Spans around the public functions of twoscale, installed from outside `src/`.

Each wrapper replaces the function object in every twoscale module that
binds it, so the wrapper fires wherever a caller looks the name up
(`engine.l_sequence`, `cli.validate_system`, `theory.linalg.solve_sylvester`).
Spans stay in memory; per-layer metrics are derived from them after a pass.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans with their parent, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()


def _ensemble_digest(result) -> str:
    h = hashlib.sha256()
    for cp in result.checkpoints:
        h.update(repr((cp.k, cp.theta_hat.shape, cp.r_hat.shape)).encode())
        h.update(cp.theta_hat.tobytes())
        h.update(cp.r_hat.tobytes())
    return h.hexdigest()


def _propagate_attrs(args, kwargs, result):
    spec, _, _, K = args[:4]
    return {"d": spec.n + spec.m, "K": int(K)}


def _ensemble_attrs(args, kwargs, result):
    spec, _, N, K = args[:4]
    return {
        "d": spec.n + spec.m, "N": int(N), "K": int(K),
        "jobs": int(kwargs.get("jobs", 1)), "digest": _ensemble_digest(result),
    }


def _sylvester_attrs(args, kwargs, result):
    return {"pq": int(result.shape[0] * result.shape[1])}


def _l_sequence_attrs(args, kwargs, result):
    return {"k0": int(result.k0)}


# span name -> (module, attribute, attrs hook)
LAYERS = {
    "cli.main": ("cli", "main", None),
    "model.validate_system": ("model", "validate_system", None),
    "theory.predict_full": ("theory", "predict_full", None),
    "theory.predict_reduced": ("theory", "predict_reduced", None),
    "theory.optimal_gain_covariance": ("theory", "optimal_gain_covariance", None),
    "theory.l_sequence": ("theory", "l_sequence", _l_sequence_attrs),
    "linalg.solve_sylvester": ("linalg", "solve_sylvester", _sylvester_attrs),
    "engine.propagate_covariance": ("engine", "propagate_covariance", _propagate_attrs),
    "engine.run_ensemble": ("engine", "run_ensemble", _ensemble_attrs),
    "engine.simulate": ("engine", "simulate", None),
    "engine.simulate_transformed": ("engine", "simulate_transformed", None),
    "engine.reconstruct_original": ("engine", "reconstruct_original", None),
    "estimator.scaled_covariances": ("estimator", "scaled_covariances", None),
    "estimator.standard_errors": ("estimator", "standard_errors", None),
    "estimator.normality_check": ("estimator", "normality_check", None),
}

# Spans that must fire on each workload; a refactor that moves a call past
# its wrapper fails the traced run instead of silently zeroing a metric.
EXPECTED = {
    "propagate-sweep": ("cli.main", "model.validate_system", "engine.propagate_covariance",
                        "theory.predict_full", "linalg.solve_sylvester"),
    "ensemble-gauss": ("cli.main", "engine.run_ensemble", "estimator.scaled_covariances",
                       "estimator.standard_errors"),
    "ensemble-rademacher-d6": ("cli.main", "engine.run_ensemble", "estimator.normality_check"),
    "decouple-predict": ("cli.main", "model.validate_system", "engine.simulate",
                         "engine.simulate_transformed", "engine.reconstruct_original",
                         "theory.l_sequence", "linalg.solve_sylvester", "theory.predict_full",
                         "theory.predict_reduced", "theory.optimal_gain_covariance"),
}


def _wrap(tracer: Tracer, name: str, fn, attrs_hook):
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if attrs_hook is not None:
            record.attrs.update(attrs_hook(args, kwargs, result))
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYERS function in every twoscale module that binds it."""
    modules = [m for k, m in list(sys.modules.items()) if k == "twoscale" or k.startswith("twoscale.")]
    patches = []
    try:
        for name, (home, attr, hook) in LAYERS.items():
            original = getattr(sys.modules[f"twoscale.{home}"], attr, None)
            if not callable(original):
                raise RuntimeError(f"traced layer {name}: twoscale.{home}.{attr} is missing")
            wrapper = _wrap(tracer, name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for module, key, original in reversed(patches):
            setattr(module, key, original)


def check_expected(workload: str, spans: list[Span]) -> list[str]:
    """Names of the spans expected on this workload that never fired."""
    fired = {s.name for s in spans}
    return [name for name in EXPECTED[workload] if name not in fired]


# ---------------------------------------------------------------------------
# per-layer metrics


def _durations(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per span name; self excludes direct child spans."""
    total: dict[str, float] = {}
    child: list[float] = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    self_time: dict[str, float] = {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start - child[i])
    return total, self_time


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    total, self_time = _durations(spans)
    t = lambda name: total.get(name, 0.0)  # noqa: E731

    prop = [s for s in spans if s.name == "engine.propagate_covariance"]
    prop_s = t("engine.propagate_covariance")
    ens = [s for s in spans if s.name == "engine.run_ensemble"]
    ens_s = t("engine.run_ensemble")
    syl = [s for s in spans if s.name == "linalg.solve_sylvester"]
    lseq = [s for s in spans if s.name == "theory.l_sequence"]

    out = {
        "engine.propagate_covariance_s": prop_s,
        "engine.propagate_covariance.steps_per_s":
            sum(s.attrs["K"] for s in prop) / prop_s if prop_s > 0 else 0.0,
        "engine.run_ensemble_s": ens_s,
        "engine.run_ensemble.replica_steps_per_s":
            sum(s.attrs["N"] * s.attrs["K"] for s in ens) / ens_s if ens_s > 0 else 0.0,
        "engine.run_ensemble.draws_computed":
            float(sum(s.attrs["N"] * s.attrs["K"] * s.attrs["d"] for s in ens)),
        "engine.simulate_s": t("engine.simulate"),
        "engine.simulate_transformed.self_s": self_time.get("engine.simulate_transformed", 0.0),
        "engine.reconstruct_original_s": t("engine.reconstruct_original"),
        "theory.l_sequence_s": t("theory.l_sequence"),
        "theory.l_sequence.k0": float(max((s.attrs["k0"] for s in lseq), default=0)),
        "linalg.solve_sylvester_s": t("linalg.solve_sylvester"),
        "linalg.solve_sylvester.calls": float(len(syl)),
        "linalg.solve_sylvester.max_pq": float(max((s.attrs["pq"] for s in syl), default=0)),
        "theory.predict_full_s": t("theory.predict_full"),
        "theory.predict_reduced_s": t("theory.predict_reduced"),
        "theory.optimal_gain_covariance_s": t("theory.optimal_gain_covariance"),
        "model.validate_system_s": t("model.validate_system"),
        "estimator.scaled_covariances_s": t("estimator.scaled_covariances"),
        "estimator.standard_errors_s": t("estimator.standard_errors"),
        "estimator.normality_check_s": t("estimator.normality_check"),
        "cli.main.self_s": self_time.get("cli.main", 0.0),
    }
    for d in (2, 6, 10):
        out[f"engine.propagate_covariance.d{d}_s"] = float(sum(
            s.end - s.start for s in prop if s.attrs["d"] == d
        ))
    return out


_COUNT_UNITS = {"calls": "count", "max_pq": "count", "k0": "count", "draws_computed": "count",
                "steps_per_s": "1/s", "replica_steps_per_s": "1/s"}


def unit(name: str) -> str:
    """Unit of a pass_metrics name: seconds unless its last part is a count or a rate."""
    return _COUNT_UNITS.get(name.rsplit(".", 1)[-1], "s")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def ensemble_digests(spans: list[Span]) -> list[str]:
    """Checkpoint-array digests of the ensemble runs, in call order."""
    return [s.attrs["digest"] for s in spans if s.name == "engine.run_ensemble"]
