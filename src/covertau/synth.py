"""Synthetic profiles and Monte-Carlo completion logs.

Draws come from `records.random_stream`: task i of a log draws from stream
i, and trial j is the j-th draw of that stream, so generating tasks in
parallel reproduces the serial output bit for bit.  The uniform-random
profile draws its p values from `PROFILE_STREAM`, a stream of their own,
independent of every task's trials.  Bernoulli(p) draws for rational
p = a/b are exact: integers(0, b) < a, with no float thresholding.  The
guesser draws from the same streams at p = 1/m: its draws 0..m-1 are its
labels, and gold is "0".

Two canned regimes:

  * a uniform random guesser over a small discrete answer space (support m,
    per-task success exactly 1/m), whose pass@k saturates at large k while
    its coverage collapses at modest thresholds;
  * constant-p and two-point profiles, the toy pair where equal pass@1
    hides opposite breadth/consistency trade-offs.

Logs are written column-wise: `guesser_log` and `completions_log` turn
each task's draw column straight into canonical JSON lines (one prefix per
draw value, built when the value is first drawn, then the sample index and
a per-task suffix) and yield one chunk per slice of at most SLICE draws of
a task, so a log of any length streams in fixed memory.  `simulate_guesser`,
`simulate_completions` and `records_to_jsonl` build on the same draws and
give the same bytes through `SampleRecord`s; they are the record-level API
and the emitters' test oracle.

The guesser is a deliberate simplification: a real model's answer
distribution over a small support is not uniform.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import chain, count
from operator import gt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .records import (PROFILE_STREAM, RationalLike, SampleRecord, SuccessProfile, Value, as_unit_rational,
                      check_name, random_stream)

# numpy is loaded by `random_stream`, so that commands which draw nothing
# (`--version`, `ingest`) start without it
if TYPE_CHECKING:
    import numpy as np

SLICE = 65_536  # trials drawn and rendered at a time; Philox continues its stream across slices

PROFILE_KINDS = ("constant-p", "two-point", "uniform-random", "user-list")


class GuesserSpec(Value):
    """Uniform guesser over `support_size` labels, gold fixed at label "0"."""

    __slots__ = ("support_size", "tasks", "trials", "seed", "model")

    def __init__(self, support_size: int, tasks: int, trials: int, seed: int, model: str = "guesser") -> None:
        if support_size < 2:
            raise ValueError(f"support_size must be >= 2, got {support_size}")
        if tasks < 1:
            raise ValueError(f"tasks must be >= 1, got {tasks}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        check_name(model, "model")
        self._assign(support_size, tasks, trials, seed, model)

    @property
    def success_probability(self) -> Fraction:
        return Fraction(1, self.support_size)


class ProfileSpec(Value):
    """Named profile generator.

    kind "constant-p":     every task at p
    kind "two-point":      low/high values; `ratio` of tasks at high
    kind "uniform-random": p values drawn uniformly on [0, 1] (seeded)
    kind "user-list":      explicit p values
    """

    __slots__ = ("kind", "tasks", "seed", "model", "p", "low", "high", "ratio", "values")

    def __init__(self, kind: str, tasks: int, seed: int = 0, model: str = "synthetic", p: RationalLike | None = None,
                 low: RationalLike | None = None, high: RationalLike | None = None, ratio: RationalLike | None = None,
                 values: Sequence[RationalLike] | None = None) -> None:
        if kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}")
        if tasks < 1:
            raise ValueError(f"tasks must be >= 1, got {tasks}")
        self._assign(kind, tasks, seed, model, p, low, high, ratio, values)


def task_ids(count: int) -> list[str]:
    """Canonical synthetic task names t0000, t0001, ..."""
    width = max(4, len(str(count - 1)))
    return [f"t{i:0{width}d}" for i in range(count)]


def make_profile(spec: ProfileSpec) -> SuccessProfile:
    """Materialize a profile spec; deterministic for a fixed seed."""
    ids = task_ids(spec.tasks)
    if spec.kind == "constant-p":
        if spec.p is None:
            raise ValueError("constant-p profile needs p")
        p = as_unit_rational(spec.p, "p")
        pairs = [(t, p) for t in ids]
    elif spec.kind == "two-point":
        if spec.low is None or spec.high is None or spec.ratio is None:
            raise ValueError("two-point profile needs low, high, and ratio")
        low = as_unit_rational(spec.low, "low")
        high = as_unit_rational(spec.high, "high")
        ratio = as_unit_rational(spec.ratio, "ratio")
        n_high = int(ratio * spec.tasks)
        pairs = [(t, high if i < n_high else low) for i, t in enumerate(ids)]
    elif spec.kind == "uniform-random":
        draws = random_stream(spec.seed, PROFILE_STREAM).random(spec.tasks)
        pairs = [(t, Fraction(float(x))) for t, x in zip(ids, draws)]
    else:  # user-list
        if spec.values is None or len(spec.values) != spec.tasks:
            raise ValueError("user-list profile needs exactly `tasks` values")
        pairs = [(t, as_unit_rational(v, f"values[{i}]")) for i, (t, v) in enumerate(zip(ids, spec.values))]
    return SuccessProfile.from_pairs(spec.model, pairs)


def toy_model_a(tasks: int = 100, model: str = "A") -> SuccessProfile:
    """Constant p = 1/2 on every task: broad, never reliable."""
    return make_profile(ProfileSpec(kind="constant-p", tasks=tasks, model=model, p=Fraction(1, 2)))


def toy_model_b(tasks: int = 100, model: str = "B") -> SuccessProfile:
    """Half the tasks at p = 0, half at p = 1: narrow but fully reliable."""
    return make_profile(
        ProfileSpec(kind="two-point", tasks=tasks, model=model, low=0, high=1, ratio=Fraction(1, 2))
    )


def _draws(entries: Iterable[tuple[str, Fraction]], trials: int,
           seed: int) -> Iterator[tuple[str, Fraction, Iterator[np.ndarray]]]:
    """(task, p, slices) per task: `trials` integers in 0..b-1 for p = a/b from
    `random_stream(seed, i)` of the i-th task, so draws < a are exact Bernoulli(p)
    verdicts, in consecutive slices of at most SLICE.  `trials` is checked
    now; the draws are made lazily."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def slices(rng: np.random.Generator, bound: int) -> Iterator[np.ndarray]:
        return (rng.integers(0, bound, size=min(SLICE, trials - start)) for start in range(0, trials, SLICE))
    return ((task, p, slices(random_stream(seed, i), p.denominator)) for i, (task, p) in enumerate(entries))


def simulate_completions(profile: SuccessProfile, trials: int, seed: int) -> list[SampleRecord]:
    """n i.i.d. Bernoulli(p) verdicts per task, task-major, trial-minor."""
    return [
        SampleRecord(model=profile.model, task=task, sample_index=j, correct=hit)
        for task, p, draws in _draws(profile.entries, trials, seed)
        for j, hit in enumerate(chain.from_iterable((d < p.numerator).tolist() for d in draws))
    ]


def guesser_profile(spec: GuesserSpec) -> SuccessProfile:
    """The guesser's exact profile: p = 1/m on every task."""
    p = spec.success_probability
    return SuccessProfile.from_pairs(spec.model, ((t, p) for t in task_ids(spec.tasks)))


def simulate_guesser(spec: GuesserSpec) -> tuple[SuccessProfile, list[SampleRecord]]:
    """Uniform guesses over labels "0"…"m-1" with gold fixed at "0".

    Returns the exact profile (p = 1/m everywhere) alongside the sampled
    records; records carry both the guessed answer text and the verdict, so
    the same log also exercises consensus scoring.
    """
    profile = guesser_profile(spec)
    records = [
        SampleRecord(model=spec.model, task=task, sample_index=j, answer=str(g), correct=g == 0)
        for task, _, guesses in _draws(profile.entries, spec.trials, spec.seed)
        for j, g in enumerate(chain.from_iterable(d.tolist() for d in guesses))
    ]
    return profile, records


def guesser_gold(spec: GuesserSpec) -> dict[str, str]:
    """Gold answers for the guesser regime (always label "0")."""
    return {t: "0" for t in task_ids(spec.tasks)}


def records_to_jsonl(records: Sequence[SampleRecord]) -> str:
    """Render records in the per-completion log schema (canonical JSON)."""
    lines = []
    for rec in records:
        obj: dict = {"model": rec.model, "sample_index": rec.sample_index, "task": rec.task}
        if rec.correct is not None:
            obj["correct"] = rec.correct
        if rec.answer is not None:
            obj["answer"] = rec.answer
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def _jsonl_chunks(
    model: str, draws: Iterable[tuple[str, Iterable[np.ndarray]]], fields: Callable[[int], str]
) -> Iterator[str]:
    """One chunk of canonical-JSON lines per slice of a task's draws, the
    bytes of `records_to_jsonl`.  `fields(v)` holds the fields that sort
    before "model" for draw value v; the keys sort as answer, correct,
    model, sample_index, task, so a line is prefix[v] + index + task suffix.
    A value's prefix is built when it is first drawn."""
    head = f',"model":{json.dumps(model)},"sample_index":'
    prefixes: dict[int, str] = {}
    for task, column in draws:
        suffix = f',"task":{json.dumps(task)}}}\n'
        for start, values in zip(count(0, SLICE), (piece.tolist() for piece in column)):
            for v in set(values).difference(prefixes):
                prefixes[v] = "{" + fields(v) + head
            yield "".join([prefixes[v] + str(j) + suffix for j, v in enumerate(values, start)])


def completions_log(profile: SuccessProfile, trials: int, seed: int) -> Iterator[str]:
    """`records_to_jsonl(simulate_completions(profile, trials, seed))`, one
    chunk per slice of a task's draws, with no record objects."""
    # numerator > d is d < numerator, bound to this task's p now, not when the slice is drawn
    hits = ((task, map(partial(gt, p.numerator), draws)) for task, p, draws in _draws(profile.entries, trials, seed))
    return _jsonl_chunks(profile.model, hits, lambda hit: f'"correct":{json.dumps(hit)}')


def guesser_log(spec: GuesserSpec) -> Iterator[str]:
    """`records_to_jsonl(simulate_guesser(spec)[1])`, one chunk per slice
    of a task's draws, with no record objects."""
    p = spec.success_probability
    draws = _draws(((t, p) for t in task_ids(spec.tasks)), spec.trials, spec.seed)
    return _jsonl_chunks(spec.model, ((task, labels) for task, _, labels in draws),
                         lambda g: f'"answer":{json.dumps(str(g))},"correct":{json.dumps(g == 0)}')
