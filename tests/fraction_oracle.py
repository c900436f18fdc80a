"""Reference cover-curve algebra and unbiased pass@k in plain Fraction
arithmetic.

These are the sorted-Fraction and bisect implementations that covertau used
before its integer-grid kernel, and the k-factor Fraction running product
that `pass_at_k_unbiased` used before it took the shorter permutation
product.  They are slow but obviously exact, and the property tests require
covertau to agree with them exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from covertau import CoverCurve, SuccessProfile

ZERO = Fraction(0)
ONE = Fraction(1)


def build_cover_curve(profile: SuccessProfile) -> CoverCurve:
    probs = sorted(profile.probabilities)
    bps = sorted({ZERO, ONE, *probs})
    t = profile.num_tasks
    values = [ONE]
    for b in bps[1:]:
        values.append(Fraction(t - bisect_left(probs, b), t))
    return CoverCurve(
        model=profile.model,
        breakpoints=tuple(bps),
        values=tuple(values),
        num_tasks=t,
    )


def merged_partition(curve_a: CoverCurve, curve_b: CoverCurve) -> list[Fraction]:
    if curve_a.num_tasks != curve_b.num_tasks:
        raise ValueError("curves cover different task universes")
    return sorted(set(curve_a.breakpoints) | set(curve_b.breakpoints))


def auc_plus_cover(curve_a: CoverCurve, curve_b: CoverCurve) -> Fraction:
    taus = merged_partition(curve_a, curve_b)
    total = ZERO
    for lo, hi in zip(taus, taus[1:]):
        # both curves are constant on (lo, hi]; evaluate at the right end
        diff = curve_a.value_at(hi) - curve_b.value_at(hi)
        if diff > 0:
            total += diff * (hi - lo)
    return total


def avg_auc_plus(curves: Sequence[CoverCurve]) -> dict[str, Fraction]:
    m = len(curves)
    return {
        a.model: sum((auc_plus_cover(a, b) for b in curves if b is not a), ZERO) / (m - 1)
        for a in curves
    }


def check_cover_dominance(curve_a: CoverCurve, curve_b: CoverCurve) -> bool:
    taus = merged_partition(curve_a, curve_b)
    return all(curve_a.value_at(t) >= curve_b.value_at(t) for t in taus[1:])


def pass_at_k_unbiased(n: int, c: int, k: int) -> Fraction:
    """1 - C(n-c, k)/C(n, k) as a running product of k Fractions."""
    if n - c < k:
        # cannot fill k slots with incorrect trials: some draw always succeeds
        return ONE
    prod = ONE
    for j in range(k):
        prod *= Fraction(n - c - j, n - j)
    return ONE - prod
