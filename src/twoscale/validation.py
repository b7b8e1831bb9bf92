"""Pass/fail reporting for schedule and system admissibility checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One admissibility check: what was measured and whether it passed."""

    name: str
    passed: bool
    measured: float | None = None
    threshold: float | None = None
    note: str = ""

    def format(self) -> str:
        status = "pass" if self.passed else "FAIL"
        parts = [f"{self.name}: {status}"]
        if self.measured is not None:
            parts.append(f"measured={self.measured:.6g}")
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold:.6g}")
        if self.note:
            parts.append(f"({self.note})")
        return "  ".join(parts)


@dataclass
class ValidationReport:
    """Ordered collection of admissibility checks."""

    checks: list[Check] = field(default_factory=list)

    def add(
        self,
        name: str,
        passed: bool,
        measured: float | None = None,
        threshold: float | None = None,
        note: str = "",
    ) -> None:
        self.checks.append(Check(name, bool(passed), measured, threshold, note))

    def extend(self, other: "ValidationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.format() for c in self.checks]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
