"""Domain types shared across the package.

All probabilities are exact rationals (`fractions.Fraction`).  Floats only
appear where a metric is explicitly defined as a floating-point quantity
(pass@k evaluation) or at export time.

Every model, task and source name is checked by one rule, `check_name`: a
nonempty str that UTF-8 can encode.  Each type here that holds a name
applies it when it is built, and so do the readers and writers of files.

Every random draw comes from one constructor, `random_stream(seed,
stream)`: numpy's Philox generator keyed on (seed mod 2**64, stream), so
seeds that differ by a multiple of 2**64 draw alike.  A simulated log's
task i draws from stream i; every other use draws from a named stream
below, the ASCII of its name, far above the 10**6 tasks `simulate` allows.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from itertools import islice
from operator import attrgetter, eq, le, lt
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

# numpy is imported only by `random_stream`, so that commands which draw
# nothing (`--version`, `ingest`, reports without `--bootstrap`) start without it
if TYPE_CHECKING:
    import numpy as np

#: Inputs accepted wherever an exact rational is required.  Floats are
#: deliberately excluded: float(0.2) is not the rational 1/5, and threshold
#: comparisons at breakpoints must not depend on binary rounding.
RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

# so that no integer `as_rational` builds, or `format_tau` prints, has over 2000 digits
_MAX_CHARS = _MAX_EXPONENT = 1000  # of a string `as_rational` reads, and of its exponent
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # Fraction's exponent, which int() reads
_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points that UTF-8 cannot encode


def as_rational(value: RationalLike, name: str = "value") -> Fraction:
    """Coerce to Fraction, rejecting floats.

    Strings are parsed exactly ("0.2" -> 1/5, "1/3" -> 1/3); a string that
    does not parse, has a zero denominator ("1/0"), is longer than 1000
    characters or has an exponent past 1000 in magnitude ("1e-5000") is a
    ValueError that names the field.  Pass a float through `Fraction(f)`
    yourself if you really mean its binary expansion.
    """
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be a Fraction, int, or decimal string; "
            f"got float {value!r} (float 0.2 is not the rational 1/5)"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if len(value) > _MAX_CHARS:
            raise ValueError(f"{name} must be at most {_MAX_CHARS} characters long, got {len(value)}")
        exponent = _EXPONENT_RE.search(value)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise ValueError(f"{name} must have an exponent between -{_MAX_EXPONENT} and {_MAX_EXPONENT}, "
                             f"got {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{name} has a zero denominator: {value!r}") from None
        except ValueError:
            raise ValueError(f"{name} is not a rational number: {value!r}") from None
    raise TypeError(f"{name} must be a Fraction, int, or string, got {type(value).__name__}")


def as_unit_rational(value: RationalLike, name: str = "value") -> Fraction:
    """Coerce to Fraction and require it to lie in [0, 1]."""
    r = as_rational(value, name)
    if not ZERO <= r <= ONE:
        raise ValueError(f"{name} must lie in [0, 1], got {r}")
    return r


def as_thresholds(values: Iterable[RationalLike], name: str = "tau") -> tuple[Fraction, ...]:
    """Each value by `as_unit_rational`; a repeated threshold is a ValueError naming `name`."""
    taus = tuple(as_unit_rational(v, name) for v in values)
    for i, tau in enumerate(taus):
        if tau in taus[:i]:
            raise ValueError(f"{name} gives threshold {format_tau(tau)} more than once")
    return taus


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


def check_name(value: object, what: str) -> str:
    """`value` if it is a name, else a ValueError that names `what`: the one
    rule for a model, task or source name.  A name is a nonempty str with no
    code point in U+D800-U+DFFF, that is, a str that UTF-8 can encode."""
    if not (isinstance(value, str) and value):
        raise ValueError(f"{what} must be a nonempty string, got {value!r}")
    if not value.isascii() and _SURROGATE.search(value):
        raise ValueError(f"{what} {value!r} holds a surrogate code point, which UTF-8 cannot encode")
    return value


#: the streams of the draws that are not a simulated task's: the bootstrap's resamples, "boot",
#: and the uniform-random profile's p values, "prof"
BOOTSTRAP_STREAM = 0x626F6F74
PROFILE_STREAM = 0x70726F66


def random_stream(seed: int, stream: int) -> np.random.Generator:
    """numpy's Philox generator keyed on (seed mod 2**64, stream), the one
    source of every random draw."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, stream], dtype=np.uint64)))


_setattr = object.__setattr__


class Value:
    """Base of the package's value types: plain classes whose `__slots__`
    name their fields in constructor order, after those of the classes they
    extend.

    Two values are equal when their classes are the same and so are their
    compared fields (the first `compare` fields, given as a class keyword,
    or all of them); a value hashes as the tuple of those fields and prints
    as `Name(field=value, ...)`.  It pickles and copies field by field
    without re-running its constructor's checks, and refuses every
    attribute assignment and deletion once built.  A subclass that is
    filled in as it goes, as `ingest.SampleTally` is, may restore
    `object`'s `__setattr__` and `__delattr__` and set `__hash__` to None.
    """

    __slots__ = ()

    def __init_subclass__(cls, compare: int | None = None) -> None:
        cls._names = names = tuple(name for klass in cls.__mro__[::-1] for name in klass.__dict__.get("__slots__", ()))
        cls._fields = attrgetter(*names)
        cls._key = attrgetter(*names[:compare])

    def _assign(self, *values: object) -> None:
        for name, value in zip(self._names, values):
            _setattr(self, name, value)

    @classmethod
    def _make(cls, *values: object):
        """An instance holding `values`, in field order, built without the constructor's checks."""
        self = object.__new__(cls)
        self._assign(*values)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self._make, self._fields(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SampleRecord(Value):
    """One completion's verdict for a (model, task) pair.

    `correct` may be None when the log carries raw answers that still need
    grading against a gold answer; aggregation requires it to be resolved.
    """

    __slots__ = ("model", "task", "sample_index", "answer", "correct")

    def __init__(self, model: str, task: str, sample_index: int, answer: str | None = None,
                 correct: bool | None = None) -> None:
        check_name(model, "model")
        check_name(task, "task")
        if sample_index < 0:
            raise ValueError(f"sample_index must be >= 0, got {sample_index}")
        self._assign(model, task, sample_index, answer, correct)

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.model, self.task, self.sample_index)


class TaskCounts(Value):
    """Per-task trial tally: n trials, c correct, both exact integers."""

    __slots__ = ("task", "n", "c")

    def __init__(self, task: str, n: int, c: int) -> None:
        check_name(task, "task")
        if type(n) is not int or type(c) is not int:  # True or 2.0 would persist as true or 2.0
            name, value = ("n", n) if type(n) is not int else ("c", c)
            raise ValueError(f"{name} must be an integer for task {task!r}, got {value!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1 for task {task!r}, got {n}")
        if not 0 <= c <= n:
            raise ValueError(f"need 0 <= c <= n for task {task!r}, got c={c}, n={n}")
        self._assign(task, n, c)

    @property
    def rate(self) -> Fraction:
        """Plug-in success estimate c/n as an exact rational."""
        return Fraction(self.c, self.n)


def _pick(column: Sequence, rows: Sequence[int]) -> Sequence:
    """column[i] for each i of `rows`: in an array of the column's type if it is one, else in a list."""
    items = map(column.__getitem__, rows)
    return array(column.typecode, items) if isinstance(column, array) else list(items)


class TaskColumns(Value, SequenceABC):
    """One model's per-task tallies as three columns: `tasks`, unique and in
    sorted order, and each task's trial count `n` and correct count `c`
    (lists of ints, or `array('q')` as the loaders build them).

    A read-only `Sequence[TaskCounts]` that builds a `TaskCounts` only when
    it is indexed or iterated.  It equals a list of the same `TaskCounts`,
    either way round, and a slice of it is such a list.  It holds the
    columns it is given, without a copy, so they must not change after.
    """

    __slots__ = ("tasks", "n", "c")
    __hash__ = None  # as a list's

    def __init__(self, tasks: Sequence[str], n: Sequence[int], c: Sequence[int]) -> None:
        if not len(tasks) == len(n) == len(c):
            raise ValueError(f"columns differ in length: {len(tasks)} tasks, {len(n)} n and {len(c)} c")
        for task in tasks:
            check_name(task, "task")
        if not all(map(lt, tasks, islice(tasks, 1, None))):
            raise ValueError("tasks must be unique and in sorted order")
        if ({*map(type, n), *map(type, c)} - {int} or not all(map(le, c, n))
                or tasks and (min(n) < 1 or min(c) < 0)):
            for _ in map(TaskCounts, tasks, n, c):  # which raises for the first bad row
                pass
        self._assign(tasks, n, c)

    @classmethod
    def _take(cls, tasks: Sequence[str], n: Sequence[int], c: Sequence[int],
              rows: Sequence[int] | None = None) -> "TaskColumns":
        """The columns of the rows (tasks[i], n[i], c[i]) for each i of `rows`, by
        default every row sorted by task, unchecked: the rows must be checked
        already, and `rows` must leave the tasks unique and in order."""
        if rows is None:
            rows = sorted(range(len(tasks)), key=tasks.__getitem__)
        return cls._make(*(_pick(column, rows) for column in (tasks, n, c)))

    @classmethod
    def of(cls, counts: Sequence[TaskCounts]) -> "TaskColumns":
        """`counts` if it is a TaskColumns, else its rows sorted by task, checked as columns."""
        if isinstance(counts, cls):
            return counts
        rows = sorted(counts, key=attrgetter("task"))
        return cls([tc.task for tc in rows], [tc.n for tc in rows], [tc.c for tc in rows])

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return TaskCounts._make(self.tasks[i], self.n[i], self.c[i])

    def __iter__(self) -> Iterator[TaskCounts]:
        return map(TaskCounts._make, self.tasks, self.n, self.c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, TaskColumns)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented


def count_columns(counts: Mapping[str, Sequence[TaskCounts]]) -> Iterator[tuple[str, TaskColumns]]:
    """The one rule for a `{model: counts}` map: (model, its counts as one
    `TaskColumns`) per model in sorted order.  It refuses an empty map, a
    name that `check_name` refuses and, naming the model, a model with no
    tasks and a repeated task.  It checks the model names first and each
    model's counts, task names too, as it yields them, so that a run writer
    holds one model's columns at a time."""
    if not counts:
        raise ValueError("no models in the counts")
    for model in sorted([check_name(model, "model") for model in counts]):
        if not counts[model]:
            raise ValueError(f"no task counts for model {model!r}")
        try:  # a TaskColumns holds each task once; a list is sorted into one
            view = TaskColumns.of(counts[model])
        except ValueError:
            raise ValueError(f"duplicate task in the counts for model {model!r}") from None
        if not "".join(view.tasks).isascii():  # else no task can hold a surrogate
            for task in view.tasks:
                check_name(task, "task")
        yield model, view


class SuccessProfile(Value):
    """Per-model vector of per-task success probabilities.

    Entries are (task, p) pairs with p an exact rational in [0, 1]; task
    identifiers are unique and kept in a deterministic (sorted) order.
    """

    __slots__ = ("model", "entries")

    def __init__(self, model: str, entries: tuple[tuple[str, Fraction], ...]) -> None:
        check_name(model, "model")
        if not entries:
            raise ValueError(f"profile for {model!r} has no tasks")
        seen: set[str] = set()
        for task, p in entries:
            check_name(task, "task")
            if task in seen:
                raise ValueError(f"duplicate task {task!r} in profile for {model!r}")
            seen.add(task)
            if not isinstance(p, Fraction):
                raise TypeError(f"p for task {task!r} must be a Fraction, got {type(p).__name__}")
            if not ZERO <= p <= ONE:
                raise ValueError(f"p for task {task!r} must lie in [0, 1], got {p}")
        self._assign(model, entries)

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


class GoldAnswer(Value):
    """Canonical answer for one task."""

    __slots__ = ("task", "answer")

    def __init__(self, task: str, answer: str) -> None:
        check_name(task, "task")
        if not answer.strip():
            raise ValueError(f"gold answer for task {task!r} is empty")
        self._assign(task, answer)
