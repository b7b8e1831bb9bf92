"""Exception types shared across the package."""

from __future__ import annotations

# An iterate entry above this in magnitude is divergence; a second moment, its square.
DIVERGENCE_CUTOFF = 1e12


class TwoScaleError(Exception):
    """Base class for every error raised by this package."""


class NonFinite(TwoScaleError):
    """A matrix or vector contains NaN or infinite entries."""


class SingularPencil(TwoScaleError):
    """The Sylvester equation has no numerically unique solution."""


class NotPSD(TwoScaleError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class DivergentRatio(TwoScaleError):
    """The slow/fast step-size ratio has no finite limit."""


class SingularSystem(TwoScaleError):
    """The full coefficient block matrix is numerically singular."""


class SingularA22(TwoScaleError):
    """The fast-block coefficient matrix is numerically singular."""


class SingularDelta(TwoScaleError):
    """The reduced slow drift matrix is numerically singular."""


class AssumptionViolation(TwoScaleError):
    """A computation was requested on a system that fails its admissibility checks."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("admissibility checks failed: " + ", ".join(self.failures))


class SingularStep(TwoScaleError):
    """The decoupling recursion hit a numerically singular step.

    Signals that the start index of the recursion is too small.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"decoupling recursion singular at step {step}; start index too small")


class Diverged(TwoScaleError):
    """An iterate entry crossed the divergence cutoff."""

    crossed = f"iterate entry above {DIVERGENCE_CUTOFF:.0e} in magnitude"

    def __init__(self, step: int, replicas: list[int] | None = None):
        self.step = step
        self.replicas = list(replicas) if replicas is not None else None
        where = f" in replicas {self.replicas}" if self.replicas else ""
        super().__init__(f"{self.crossed} at step {step}{where}")


class MomentDiverged(Diverged):
    """A propagated second-moment entry crossed the squared divergence cutoff."""

    crossed = f"second-moment entry above {DIVERGENCE_CUTOFF**2:.0e} in magnitude"


class EnsembleTooLarge(TwoScaleError):
    """An ensemble's state and checkpoint store would exceed the memory cap."""


class InsufficientSamples(TwoScaleError):
    """Too few replicas for the requested statistic."""


class SingularPrediction(TwoScaleError):
    """The covariance used to standardize samples is numerically singular."""
