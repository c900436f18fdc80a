"""Domain types shared across the package.

All probabilities are exact rationals (`fractions.Fraction`).  Floats only
appear where a metric is explicitly defined as a floating-point quantity
(pass@k evaluation) or at export time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

#: Inputs accepted wherever an exact rational is required.  Floats are
#: deliberately excluded: float(0.2) is not the rational 1/5, and threshold
#: comparisons at breakpoints must not depend on binary rounding.
RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rational(value: RationalLike, name: str = "value") -> Fraction:
    """Coerce to Fraction, rejecting floats.

    Strings are parsed exactly ("0.2" -> 1/5, "1/3" -> 1/3); a zero
    denominator ("1/0") is a ValueError that names the field.  Pass a float
    through `Fraction(f)` yourself if you really mean its binary expansion.
    """
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be a Fraction, int, or decimal string; "
            f"got float {value!r} (float 0.2 is not the rational 1/5)"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{name} has a zero denominator: {value!r}") from None
    raise TypeError(f"{name} must be a Fraction, int, or string, got {type(value).__name__}")


def as_unit_rational(value: RationalLike, name: str = "value") -> Fraction:
    """Coerce to Fraction and require it to lie in [0, 1]."""
    r = as_rational(value, name)
    if not ZERO <= r <= ONE:
        raise ValueError(f"{name} must lie in [0, 1], got {r}")
    return r


def format_tau(tau: Fraction) -> str:
    """Compact exact rendering: decimal when the denominator allows, else num/den."""
    for digits in range(7):
        scaled = tau * 10**digits
        if scaled.denominator == 1:
            if digits == 0:
                return str(scaled.numerator)
            s = str(scaled.numerator).rjust(digits + 1, "0")
            return f"{s[:-digits]}.{s[-digits:]}"
    return f"{tau.numerator}/{tau.denominator}"


@dataclass(frozen=True)
class SampleRecord:
    """One completion's verdict for a (model, task) pair.

    `correct` may be None when the log carries raw answers that still need
    grading against a gold answer; aggregation requires it to be resolved.
    """

    model: str
    task: str
    sample_index: int
    answer: str | None = None
    correct: bool | None = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("model identifier must be nonempty")
        if not self.task:
            raise ValueError("task identifier must be nonempty")
        if self.sample_index < 0:
            raise ValueError(f"sample_index must be >= 0, got {self.sample_index}")

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.model, self.task, self.sample_index)


@dataclass(frozen=True)
class TaskCounts:
    """Per-task trial tally: n trials, c correct, both exact integers."""

    task: str
    n: int
    c: int

    def __post_init__(self) -> None:
        if not self.task:
            raise ValueError("task identifier must be nonempty")
        if self.n < 1:
            raise ValueError(f"n must be >= 1 for task {self.task!r}, got {self.n}")
        if not 0 <= self.c <= self.n:
            raise ValueError(f"need 0 <= c <= n for task {self.task!r}, got c={self.c}, n={self.n}")

    @property
    def rate(self) -> Fraction:
        """Plug-in success estimate c/n as an exact rational."""
        return Fraction(self.c, self.n)


@dataclass(frozen=True)
class SuccessProfile:
    """Per-model vector of per-task success probabilities.

    Entries are (task, p) pairs with p an exact rational in [0, 1]; task
    identifiers are unique and kept in a deterministic (sorted) order.
    """

    model: str
    entries: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("model identifier must be nonempty")
        if not self.entries:
            raise ValueError(f"profile for {self.model!r} has no tasks")
        seen: set[str] = set()
        for task, p in self.entries:
            if not task:
                raise ValueError(f"task identifier must be nonempty in profile for {self.model!r}")
            if task in seen:
                raise ValueError(f"duplicate task {task!r} in profile for {self.model!r}")
            seen.add(task)
            if not isinstance(p, Fraction):
                raise TypeError(f"p for task {task!r} must be a Fraction, got {type(p).__name__}")
            if not ZERO <= p <= ONE:
                raise ValueError(f"p for task {task!r} must lie in [0, 1], got {p}")

    @classmethod
    def from_pairs(cls, model: str, pairs: Iterable[tuple[str, RationalLike]]) -> "SuccessProfile":
        entries = tuple(sorted((task, as_rational(p, f"p[{task}]")) for task, p in pairs))
        return cls(model=model, entries=entries)

    @property
    def num_tasks(self) -> int:
        return len(self.entries)

    @property
    def tasks(self) -> tuple[str, ...]:
        return tuple(task for task, _ in self.entries)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.entries)

    @property
    def mean_p(self) -> Fraction:
        """Exact mean success probability (equals pass@1)."""
        return sum(self.probabilities, ZERO) / self.num_tasks

    def restrict(self, tasks: Sequence[str]) -> "SuccessProfile":
        """Profile limited to the given task ids (order re-sorted)."""
        keep = set(tasks)
        entries = tuple(e for e in self.entries if e[0] in keep)
        if not entries:
            raise ValueError(f"restriction leaves no tasks for model {self.model!r}")
        return SuccessProfile(model=self.model, entries=entries)


@dataclass(frozen=True)
class GoldAnswer:
    """Canonical answer for one task."""

    task: str
    answer: str

    def __post_init__(self) -> None:
        if not self.task:
            raise ValueError("task identifier must be nonempty")
        if not self.answer.strip():
            raise ValueError(f"gold answer for task {self.task!r} is empty")
