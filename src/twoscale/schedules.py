"""Power-law step-size schedules for the slow and fast iterations.

A schedule evaluates to base / (1 + k / horizon_scale)**exponent with
exponent in (1/2, 1].  Exponent 1 gives the classical 1/k decay whose
inverse grows linearly; exponents below 1 decay slower and have vanishing
inverse-difference limits.  A pair of schedules carries two derived limits:

* epsilon: the limit of slow(k) / fast(k), which must exist and is zero
  exactly when the slow exponent is strictly larger;
* beta_bar: the limit of 1/slow(k+1) - 1/slow(k), nonzero only for
  exponent-1 slow schedules, where it equals 1 / (horizon_scale * base).

Both limits are computed analytically from the parameters so downstream
solvers are exact; numerical limiting appears only in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergentRatio
from .validation import ValidationReport


@dataclass(frozen=True)
class StepSchedule:
    """Deterministic positive nonincreasing step sequence base/(1+k/tau)^alpha."""

    base: float
    horizon_scale: float
    exponent: float

    def __post_init__(self):
        if not (self.base > 0.0 and np.isfinite(self.base)):
            raise ValueError(f"base must be a positive finite real, got {self.base}")
        if not (self.horizon_scale > 0.0 and np.isfinite(self.horizon_scale)):
            raise ValueError(f"horizon_scale must be a positive finite real, got {self.horizon_scale}")
        if not (0.5 < self.exponent <= 1.0):
            raise ValueError(f"exponent must lie in (1/2, 1], got {self.exponent}")

    def value(self, k: int | float) -> float:
        """Step size at iteration k >= 0."""
        if k < 0:
            raise ValueError(f"step index must be nonnegative, got {k}")
        return self.base / (1.0 + k / self.horizon_scale) ** self.exponent

    def values(self, ks: np.ndarray) -> np.ndarray:
        """Vectorized step sizes for an array of iteration indices."""
        ks = np.asarray(ks, dtype=np.float64)
        if np.any(ks < 0):
            raise ValueError("step indices must be nonnegative")
        return self.base / (1.0 + ks / self.horizon_scale) ** self.exponent

    def to_dict(self) -> dict:
        return {"base": self.base, "tau": self.horizon_scale, "alpha": self.exponent}

    @classmethod
    def from_dict(cls, d: dict) -> "StepSchedule":
        return cls(base=float(d["base"]), horizon_scale=float(d["tau"]), exponent=float(d["alpha"]))


def beta_bar_limit(schedule: StepSchedule) -> float:
    """Limit of 1/value(k+1) - 1/value(k).

    Equals 1/(horizon_scale*base) for exponent 1 and vanishes for smaller
    exponents, whose inverse grows sublinearly.
    """
    if schedule.exponent == 1.0:
        return 1.0 / (schedule.horizon_scale * schedule.base)
    return 0.0


def epsilon_limit(pair: "SchedulePair") -> float:
    """Limit of slow(k)/fast(k).

    Zero when the slow exponent is strictly larger; for equal exponents the
    ratio tends to (slow.base/fast.base) * (slow.tau/fast.tau)**exponent.
    A slow exponent below the fast one makes the ratio diverge.
    """
    slow, fast = pair.slow, pair.fast
    if slow.exponent > fast.exponent:
        return 0.0
    if slow.exponent == fast.exponent:
        return (slow.base / fast.base) * (slow.horizon_scale / fast.horizon_scale) ** slow.exponent
    raise DivergentRatio(
        f"slow exponent {slow.exponent} < fast exponent {fast.exponent}: step ratio diverges"
    )


@dataclass(frozen=True)
class SchedulePair:
    """Slow/fast schedule pair with its analytic ratio and inverse-growth limits."""

    slow: StepSchedule
    fast: StepSchedule

    @property
    def epsilon(self) -> float:
        return epsilon_limit(self)

    @property
    def beta_bar(self) -> float:
        return beta_bar_limit(self.slow)

    def to_dict(self) -> dict:
        return {"beta": self.slow.to_dict(), "gamma": self.fast.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulePair":
        return cls(slow=StepSchedule.from_dict(d["beta"]), fast=StepSchedule.from_dict(d["gamma"]))


def validate_schedules(pair: SchedulePair) -> ValidationReport:
    """Check a schedule pair against the step-size admissibility conditions.

    Failures are reported, never raised.  The power family satisfies
    positivity, monotonicity, and divergent sums by construction, so those
    checks record measured proxies; the substantive checks are the existence
    of the ratio limit and the vanishing fast inverse-growth when the ratio
    limit is zero.
    """
    report = ValidationReport()
    probe = 10**9
    for label, sched in (("slow", pair.slow), ("fast", pair.fast)):
        decay = sched.value(probe) / sched.value(0)
        report.add(
            f"{label}-steps-positive-nonincreasing",
            True,
            measured=sched.value(0),
            note="guaranteed by the power family",
        )
        report.add(
            f"{label}-steps-vanish",
            decay < 1e-2,
            measured=decay,
            threshold=1e-2,
            note=f"value({probe:.0e})/value(0)",
        )
        report.add(
            f"{label}-step-sums-diverge",
            sched.exponent <= 1.0,
            measured=sched.exponent,
            threshold=1.0,
            note="exponent <= 1 makes partial sums unbounded",
        )

    try:
        eps = epsilon_limit(pair)
        report.add("step-ratio-limit-exists", True, measured=eps)
    except DivergentRatio:
        eps = None
        report.add(
            "step-ratio-limit-exists",
            False,
            note="slow exponent below fast exponent: ratio diverges",
        )

    bbar = beta_bar_limit(pair.slow)
    report.add("slow-inverse-growth-limit", True, measured=bbar)

    if eps is not None and eps == 0.0:
        fast_bar = beta_bar_limit(pair.fast)
        report.add(
            "fast-inverse-growth-vanishes",
            fast_bar == 0.0,
            measured=fast_bar,
            threshold=0.0,
        )
    else:
        report.add(
            "fast-inverse-growth-vanishes",
            True,
            note="not required when the ratio limit is positive",
        )

    if eps is not None:
        report.add(
            "time-scale-separation",
            True,
            measured=eps,
            note="single-time-scale regime" if eps > 0.0 else "two-time-scale regime",
        )
    return report
