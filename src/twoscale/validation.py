"""Pass/fail reporting for admissibility checks, and the key and number checks for configuration documents."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

# Every key of a coupled-system configuration document.  `SystemSpec.from_dict`
# reads the system's keys and `SchedulePair.from_dict` the schedules' from the
# same document, and each refuses any key outside this list.
CONFIG_KEYS = ("n", "m", "A11", "A12", "A21", "A22", "b1", "b2", "noise", "beta", "gamma")


def reject_unknown_keys(doc: dict, allowed: Iterable[str], where: str) -> None:
    """Raise ValueError naming every key of `doc` outside `allowed`."""
    stray = sorted(set(doc) - set(allowed))
    if stray:
        raise ValueError(f"unknown {where} keys: {', '.join(map(repr, stray))}")


# Leaf types of a configuration number as JSON gives it; `numbers` checks others one by one.
_PLAIN_NUMBERS = frozenset((int, float))


def numbers(value, name: str):
    """Return value if it is a number, a numeric array or nested lists of numbers; else raise ValueError.

    A bool or a string is not a number here, though float() and numpy would
    convert it, so a quoted or boolean entry is refused rather than read.
    The message names name and the first value refused.
    """
    if isinstance(value, (list, tuple)):
        if not set(map(type, value)) <= _PLAIN_NUMBERS:
            for item in value:
                numbers(item, name)
        return value
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} holds {value!r}, which is not a number")


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
