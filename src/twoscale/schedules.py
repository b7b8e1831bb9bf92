"""Power-law step-size schedules for the slow and fast iterations.

A schedule evaluates to base / (1 + k / horizon_scale)**exponent with
exponent in (1/2, 1].  Every such schedule is positive and nonincreasing,
vanishes, and has divergent partial sums, so those assumptions hold by
construction and are not checked.  Exponent 1 gives the classical 1/k decay
whose inverse grows linearly; exponents below 1 decay slower and have
vanishing inverse-difference limits.  A pair of schedules carries two
derived limits:

* epsilon: the limit of slow(k) / fast(k), which must exist and is zero,
  the two-time-scale regime, exactly when the slow exponent is strictly
  larger;
* beta_bar: the limit of 1/slow(k+1) - 1/slow(k), which shifts the slow
  drift to Delta - beta_bar/2 I; nonzero only for exponent-1 slow
  schedules, where it equals 1 / (horizon_scale * base).

Both limits are computed analytically from the parameters so downstream
solvers are exact; numerical limiting appears only in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergentRatio


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


@dataclass(frozen=True)
class SchedulePair:
    """Slow/fast schedule pair with its analytic ratio and inverse-growth limits."""

    slow: StepSchedule
    fast: StepSchedule

    @property
    def epsilon(self) -> float:
        """Limit of slow(k)/fast(k); DivergentRatio when the slow exponent is the smaller.

        For equal exponents it is (slow.base/fast.base) * (slow.tau/fast.tau)**exponent.
        """
        slow, fast = self.slow, self.fast
        if slow.exponent > fast.exponent:
            return 0.0
        if slow.exponent == fast.exponent:
            return (slow.base / fast.base) * (slow.horizon_scale / fast.horizon_scale) ** slow.exponent
        raise DivergentRatio(
            f"slow exponent {slow.exponent} < fast exponent {fast.exponent}: step ratio diverges"
        )

    @property
    def beta_bar(self) -> float:
        """Limit of 1/slow(k+1) - 1/slow(k): 1/(tau*base) for a slow exponent of 1, else 0."""
        if self.slow.exponent == 1.0:
            return 1.0 / (self.slow.horizon_scale * self.slow.base)
        return 0.0
