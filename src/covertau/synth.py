"""Synthetic profiles and Monte-Carlo completion logs.

The random source is numpy's Philox counter-based generator.  Streams are
split per task: task i uses key (seed, i), and trial j is the j-th draw of
that stream, so generating tasks in parallel reproduces the serial output
bit for bit.  Bernoulli(p) draws for rational p = a/b are exact:
integers(0, b) < a, with no float thresholding.

Two canned regimes:

  * a uniform random guesser over a small discrete answer space (support m,
    per-task success exactly 1/m), whose pass@k saturates at large k while
    its coverage collapses at modest thresholds;
  * constant-p and two-point profiles, the toy pair where equal pass@1
    hides opposite breadth/consistency trade-offs.

Logs are written column-wise: `guesser_log` and `completions_log` turn
each task's draw column straight into canonical JSON lines (one prebuilt
prefix per possible draw value, then the sample index and a per-task
suffix) and yield one chunk per task, so a log of any length is streamed
with one task's column in memory.  `simulate_guesser`,
`simulate_completions` and `records_to_jsonl` build on the same draws and
give the same bytes through `SampleRecord`s; they are the record-level API
and the emitters' test oracle.

The guesser is a deliberate simplification: a real model's answer
distribution over a small support is not uniform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .records import RationalLike, SampleRecord, SuccessProfile, as_unit_rational

# numpy is imported inside the functions that compute with it, so that
# commands which never do (`--version`, `ingest`) start without loading it
if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1

PROFILE_KINDS = ("constant-p", "two-point", "uniform-random", "user-list")


@dataclass(frozen=True)
class GuesserSpec:
    """Uniform guesser over `support_size` labels, gold fixed at label "0"."""

    support_size: int
    tasks: int
    trials: int
    seed: int
    model: str = "guesser"

    def __post_init__(self) -> None:
        if self.support_size < 2:
            raise ValueError(f"support_size must be >= 2, got {self.support_size}")
        if self.tasks < 1:
            raise ValueError(f"tasks must be >= 1, got {self.tasks}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.model:
            raise ValueError("model identifier must be nonempty")

    @property
    def success_probability(self) -> Fraction:
        return Fraction(1, self.support_size)


@dataclass(frozen=True)
class ProfileSpec:
    """Named profile generator.

    kind "constant-p":     every task at p
    kind "two-point":      low/high values; `ratio` of tasks at high
    kind "uniform-random": p values drawn uniformly on [0, 1] (seeded)
    kind "user-list":      explicit p values
    """

    kind: str
    tasks: int
    seed: int = 0
    model: str = "synthetic"
    p: RationalLike | None = None
    low: RationalLike | None = None
    high: RationalLike | None = None
    ratio: RationalLike | None = None
    values: Sequence[RationalLike] | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if self.tasks < 1:
            raise ValueError(f"tasks must be >= 1, got {self.tasks}")


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
        rng = _task_rng(spec.seed, 0)
        draws = rng.random(spec.tasks)
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


def _task_rng(seed: int, task_index: int) -> np.random.Generator:
    import numpy as np

    key = np.array([seed & _MASK64, task_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _completion_draws(
    profile: SuccessProfile, trials: int, seed: int
) -> Iterator[tuple[str, np.ndarray]]:
    """(task, hits) per task: `trials` exact Bernoulli(p) verdicts as a bool
    column.  `trials` is checked now; the draws are made lazily, one task at
    a time."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return (
        (task, _task_rng(seed, i).integers(0, p.denominator, size=trials) < p.numerator)
        for i, (task, p) in enumerate(profile.entries)
    )


def _guesser_draws(spec: GuesserSpec) -> Iterator[tuple[str, np.ndarray]]:
    """(task, guesses) per task: `spec.trials` labels drawn from 0..m-1."""
    for i, task in enumerate(task_ids(spec.tasks)):
        yield task, _task_rng(spec.seed, i).integers(0, spec.support_size, size=spec.trials)


def simulate_completions(profile: SuccessProfile, trials: int, seed: int) -> list[SampleRecord]:
    """n i.i.d. Bernoulli(p) verdicts per task, task-major, trial-minor."""
    return [
        SampleRecord(model=profile.model, task=task, sample_index=j, correct=hit)
        for task, hits in _completion_draws(profile, trials, seed)
        for j, hit in enumerate(hits.tolist())
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
    records = [
        SampleRecord(model=spec.model, task=task, sample_index=j, answer=str(g), correct=g == 0)
        for task, guesses in _guesser_draws(spec)
        for j, g in enumerate(guesses.tolist())
    ]
    return guesser_profile(spec), records


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
    model: str, draws: Iterable[tuple[str, np.ndarray]], fields: Sequence[str]
) -> Iterator[str]:
    """One chunk of canonical-JSON lines per task, the bytes of
    `records_to_jsonl`.  `fields[v]` holds the fields that sort before
    "model" for draw value v; the keys sort as answer, correct, model,
    sample_index, task, so a line is prefix[v] + index + task suffix."""
    head = f',"model":{json.dumps(model)},"sample_index":'
    prefixes = ["{" + f + head for f in fields]
    for task, column in draws:
        suffix = f',"task":{json.dumps(task)}}}\n'
        yield "".join([prefixes[v] + str(j) + suffix for j, v in enumerate(column.tolist())])


def completions_log(profile: SuccessProfile, trials: int, seed: int) -> Iterator[str]:
    """`records_to_jsonl(simulate_completions(profile, trials, seed))`, one
    chunk per task, with no record objects."""
    return _jsonl_chunks(profile.model, _completion_draws(profile, trials, seed),
                         ['"correct":false', '"correct":true'])


def guesser_log(spec: GuesserSpec) -> Iterator[str]:
    """`records_to_jsonl(simulate_guesser(spec)[1])`, one chunk per task,
    with no record objects."""
    fields = [f'"answer":{json.dumps(str(g))},"correct":{json.dumps(g == 0)}'
              for g in range(spec.support_size)]
    return _jsonl_chunks(spec.model, _guesser_draws(spec), fields)
