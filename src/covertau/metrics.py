"""Point metrics over aggregated completion counts.

The estimators:

    pass@k (exact)     (1/T) * sum_i 1 - (1 - p_i)^k
    pass@k (unbiased)  1 - C(n-c, k) / C(n, k), over min(c, k) factors
    cover@tau          (1/T) * sum_i 1{p_i >= tau}
    maj@n              fraction of tasks with a strict majority of correct trials

cover@tau thresholds compare exact rationals (integer cross-multiplication);
pass@k is a floating-point quantity evaluated from exact per-task rationals.
The metrics of records rather than counts live with grading in `ingest`:
`aggregate` tallies graded records into counts, and `cons_at_n` scores
their modal answers against gold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .records import ONE, RationalLike, SuccessProfile, TaskCounts, as_unit_rational

_FLOAT_LIMIT = 2**1024 - 2**970  # the least int that float() rounds past the largest float


def estimate_success(counts: Sequence[TaskCounts], model: str) -> SuccessProfile:
    """Plug-in profile: p = c/n exactly per task, no smoothing."""
    if not counts:
        raise ValueError(f"no task counts for model {model!r}")
    return SuccessProfile.from_pairs(model, ((tc.task, tc.rate) for tc in counts))


def pass_at_k_exact(profile: SuccessProfile, k: int) -> float:
    """pass@k of the exact profile in floating point.  Each complement 1 - p
    is a Fraction before its float conversion, so the power base is
    correctly rounded even for p near 1."""
    return pass_values([float(ONE - p) for p in profile.probabilities], [k])[0]


def pass_values(qs: Sequence[float], ks: Sequence[int]) -> tuple[float, ...]:
    """Plug-in pass@k at each k of the grid `ks`, which `check_k_grid`
    checks, from per-task complements qs[i] = float(1 - p_i).  `fsum` rounds
    each sum once, so a model and a permutation of its counts get equal
    pass@k and no crossover."""
    check_k_grid(ks, "k")
    return tuple(math.fsum(1.0 - q**k for q in qs) / len(qs) for k in ks)


def pass_at_k_unbiased(counts: TaskCounts, k: int, exact: bool = False):
    """Unbiased subset estimator 1 - C(n-c, k)/C(n, k) for one task.

    Equals the average, over all size-k subsets of the n trials, of the
    indicator that the subset contains a correct trial.  As C(n-c, k)/C(n, k)
    = perm(n-c, k)/perm(n, k) = perm(n-k, c)/perm(n, c), it takes min(c, k)
    factors: one exact integer ratio with `exact=True`, else a float product.

    Requires 1 <= k <= n: above n the estimator is undefined.
    """
    check_k_grid((k,), "k")
    if k > counts.n:
        raise ValueError(f"k={k} exceeds trial count n={counts.n} for task {counts.task!r}")
    n = counts.n
    short, long = sorted((counts.c, k))
    if exact:
        return 1 - Fraction(math.perm(n - long, short), math.perm(n, short))
    prod = 1.0
    for j in range(short):
        prod *= (n - long - j) / (n - j)
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


def check_k_grid(ks: Sequence[int], name: str = "k") -> Sequence[int]:
    """`ks` if it is a pass@k grid: nonempty, strictly ascending, each k an
    int >= 1 that converts to a float; else a ValueError naming `name`."""
    if not ks:
        raise ValueError(f"{name} grid is empty")
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in ks):
        raise ValueError(f"{name} values must be integers, got {list(ks)}")
    if any(k < 1 for k in ks):
        raise ValueError(f"{name} values must be >= 1, got {list(ks)}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"{name} values must be strictly ascending, got {list(ks)}")
    if ks[-1] >= _FLOAT_LIMIT:
        raise ValueError(f"{name} values must convert to a float; one has {len(str(ks[-1]))} digits")
    return ks
