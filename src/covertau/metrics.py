"""Point metrics over aggregated completion counts.

The estimators:

    pass@k (exact)     (1/T) * sum_i 1 - (1 - p_i)^k
    pass@k (unbiased)  1 - C(n-c, k) / C(n, k), running-product form
    cover@tau          (1/T) * sum_i 1{p_i >= tau}
    maj@n              fraction of tasks with a strict majority of correct trials
    cons@n             fraction of tasks whose modal answer matches gold

cover@tau thresholds compare exact rationals (integer cross-multiplication);
pass@k is a floating-point quantity evaluated from exact per-task rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from .records import (
    ONE,
    RationalLike,
    SampleRecord,
    SuccessProfile,
    TaskCounts,
    as_unit_rational,
)


def aggregate(records: Sequence[SampleRecord]) -> dict[str, list[TaskCounts]]:
    """Tally records into per-model, per-task (n, c) counts.

    Rejects empty input, duplicate (model, task, sample_index) keys, and
    records whose verdict is still unresolved (correct is None); grading
    happens upstream in the ingest layer.
    """
    if not records:
        raise ValueError("no records to aggregate")
    seen: set[tuple[str, str, int]] = set()
    totals: dict[str, dict[str, list[int]]] = {}
    for rec in records:
        if rec.key in seen:
            raise ValueError(f"duplicate record key (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index})")
        seen.add(rec.key)
        if rec.correct is None:
            raise ValueError(f"record (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index}) has no verdict")
        tally = totals.setdefault(rec.model, {}).setdefault(rec.task, [0, 0])
        tally[0] += 1
        tally[1] += int(rec.correct)
    return {
        model: [TaskCounts(task=t, n=nc[0], c=nc[1]) for t, nc in sorted(tasks.items())]
        for model, tasks in sorted(totals.items())
    }


def estimate_success(counts: Sequence[TaskCounts], model: str) -> SuccessProfile:
    """Plug-in profile: p = c/n exactly per task, no smoothing."""
    if not counts:
        raise ValueError(f"no task counts for model {model!r}")
    return SuccessProfile.from_pairs(model, ((tc.task, tc.rate) for tc in counts))


def pass_at_k_exact(profile: SuccessProfile, k: int) -> float:
    """pass@k of the exact profile, evaluated in floating point.

    Each per-task complement (1 - p) is formed as a Fraction before the float
    conversion, so the power base is the correctly rounded complement even
    for p near 1.
    """
    return _pass_from_complements(complements(profile), k)


def _pass_from_complements(qs: Sequence[float], k: int) -> float:
    """pass@k from per-task complements float(1 - p), so a k grid can
    reuse one `complements` call.  `fsum` rounds the sum once, so the value
    does not depend on task order: a model and a permutation of its counts
    get equal pass@k, and no crossover between them."""
    _check_k(k)
    return math.fsum(1.0 - q**k for q in qs) / len(qs)


def complements(profile: SuccessProfile) -> list[float]:
    """Per-task float(1 - p), in profile (task id) order."""
    return [float(ONE - p) for p in profile.probabilities]


def pass_at_k_unbiased(counts: TaskCounts, k: int, exact: bool = False):
    """Unbiased subset estimator 1 - C(n-c, k)/C(n, k) for one task.

    Equals the average, over all size-k subsets of the n trials, of the
    indicator that the subset contains a correct trial.  Computed as a
    running product (never factorials); `exact=True` switches to Fraction
    arithmetic for oracle-grade comparisons.

    Requires 1 <= k <= n: above n the estimator is undefined.
    """
    _check_k(k)
    if k > counts.n:
        raise ValueError(f"k={k} exceeds trial count n={counts.n} for task {counts.task!r}")
    n, c = counts.n, counts.c
    if n - c < k:
        # cannot fill k slots with incorrect trials: some draw always succeeds
        return Fraction(1) if exact else 1.0
    if exact:
        prod = Fraction(1)
        for j in range(k):
            prod *= Fraction(n - c - j, n - j)
        return Fraction(1) - prod
    prod = 1.0
    for j in range(k):
        prod *= (n - c - j) / (n - j)
    return 1.0 - prod


def cover_at_tau(profile: SuccessProfile, tau: RationalLike) -> Fraction:
    """cover@tau: fraction of tasks with p >= tau, exact rational comparison."""
    t = as_unit_rational(tau, "tau")
    hits = sum(1 for p in profile.probabilities if p >= t)
    return Fraction(hits, profile.num_tasks)


def maj_at_n(counts: Sequence[TaskCounts]) -> Fraction:
    """Fraction of tasks with a strict majority of correct trials (2c > n).

    A tie (c = n/2 with n even) does not count as a majority.
    """
    if not counts:
        raise ValueError("no task counts")
    hits = sum(1 for tc in counts if 2 * tc.c > tc.n)
    return Fraction(hits, len(counts))


def majority_threshold(n: int) -> Fraction:
    """Smallest success rate that is a strict majority of n trials."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(n // 2 + 1, n)


def cons_at_n(records: Sequence[SampleRecord], gold: Mapping[str, str]) -> Fraction:
    """cons@n: fraction of tasks whose modal answer equals the gold answer.

    The mode is taken over canonicalized answer texts; a tie for the mode
    counts as unsolved.  Records must belong to a single model and every
    record must carry an answer; gold must cover every task present.
    """
    from .ingest import canonical_answer, grade  # late import: ingest owns grading

    if not records:
        raise ValueError("no records")
    models = {rec.model for rec in records}
    if len(models) > 1:
        raise ValueError(f"records span multiple models {sorted(models)}; score one model at a time")

    by_task: dict[str, list[str]] = {}
    for rec in records:
        if rec.answer is None:
            raise ValueError(f"record (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index}) has no answer text")
        by_task.setdefault(rec.task, []).append(rec.answer)

    solved = 0
    for task, answers in sorted(by_task.items()):
        if task not in gold:
            raise ValueError(f"no gold answer for task {task!r}")
        tally = Counter(canonical_answer(a) for a in answers)
        best = max(tally.values())
        modes = [a for a, cnt in tally.items() if cnt == best]
        if len(modes) == 1 and grade(modes[0], gold[task]):
            solved += 1
    return Fraction(solved, len(by_task))


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
