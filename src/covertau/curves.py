"""Cover@tau step curves, pass@k curves, and the integral identities tying
them together.

A cover curve G is the complementary CDF of the per-task success
probabilities: G(tau) = fraction of tasks with p >= tau.  It is a
non-increasing step function, constant on half-open intervals
(b[j-1], b[j]] between consecutive breakpoints, with G(0) = 1 by
definition.  Breakpoints and values are exact rationals; floats appear
only when a caller asks for them.

Every plug-in p is c/n, so over L = lcm of the trial counts each p is the
integer c * (L / n) and a cover curve is a vector of integer task counts.
Reports feed `scaled_cover_curve` and `complement_pass_curve` straight from
the counts; `build_cover_curve` and `pass_curve` convert a profile's
Fractions (`scale_to_lcm`, `complements`) and call the same kernels.

Key identities (realized exactly or in closed form):

    pass@k  = integral over [0,1] of k(1-tau)^(k-1) * G(tau) dtau
    pass@1  = integral over [0,1] of G(tau) dtau          (uniform AUC)
    pass@k -> fraction of tasks with p > 0 as k -> infinity
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .metrics import _check_k, _pass_from_complements, complements
from .records import ONE, ZERO, RationalLike, SuccessProfile, as_unit_rational


@dataclass(frozen=True)
class CoverCurve:
    """Non-increasing step function G(tau) on [0, 1].

    breakpoints: ascending distinct rationals, always starting at 0 and
        ending at 1.
    values: values[0] = G(0) = 1; values[j] = G(tau) for tau in
        (breakpoints[j-1], breakpoints[j]], which equals G evaluated at
        breakpoints[j].
    num_tasks: size of the generating task set (needed to compare curves).
    """

    model: str
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    num_tasks: int

    def __post_init__(self) -> None:
        bps, vals = self.breakpoints, self.values
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if vals[0] != ONE:
            raise ValueError("G(0) must be 1")
        if any(not ZERO <= v <= ONE for v in vals):
            raise ValueError("curve values must lie in [0, 1]")
        if any(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("cover curve must be non-increasing")
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")

    def value_at(self, tau: RationalLike) -> Fraction:
        """G(tau), exact."""
        t = as_unit_rational(tau, "tau")
        return self.values[bisect_left(self.breakpoints, t)]


@dataclass(frozen=True)
class PassCurve:
    """pass@k sampled on an ascending grid of k values."""

    model: str
    ks: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.ks:
            raise ValueError("k grid is empty")
        if len(self.ks) != len(self.values):
            raise ValueError("ks and values must have equal length")
        if any(k < 1 for k in self.ks):
            raise ValueError("k values must be positive")
        if any(k2 <= k1 for k1, k2 in zip(self.ks, self.ks[1:])):
            raise ValueError("k grid must be strictly ascending")
        if any(v2 < v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("pass curve must be non-decreasing")


def scale_to_lcm(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rows of Fractions as integers over one scale, the lcm of all their
    denominators: rows[i][j] == scaled[i][j] / scale."""
    scale = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def scaled_cover_curve(model: str, scaled: Sequence[int], scale: int) -> CoverCurve:
    """Cover curve of tasks whose p values are scaled[i] / scale: breakpoints
    are the distinct p values plus the endpoints 0 and 1, and the number of
    tasks at each is an integer tally."""
    tally = Counter(scaled)
    t = len(scaled)
    bps = [ZERO]
    values = [ONE]
    at_least = t  # tasks with p >= the current point
    for point in sorted(tally):
        if point:
            bps.append(Fraction(point, scale))
            values.append(Fraction(at_least, t))
        at_least -= tally[point]
    if bps[-1] != ONE:
        bps.append(ONE)
        values.append(ZERO)
    return CoverCurve(model=model, breakpoints=tuple(bps), values=tuple(values), num_tasks=t)


def build_cover_curve(profile: SuccessProfile) -> CoverCurve:
    """Cover curve of a profile, its p values scaled to integers over the
    lcm of their denominators."""
    (scaled,), scale = scale_to_lcm([profile.probabilities])
    return scaled_cover_curve(profile.model, scaled, scale)


def complement_pass_curve(model: str, qs: Sequence[float], ks: Sequence[int]) -> PassCurve:
    """Pointwise pass@k over an ascending k grid, from per-task complements
    qs[i] = float(1 - p_i); `PassCurve` checks the grid."""
    return PassCurve(model=model, ks=tuple(ks), values=tuple(_pass_from_complements(qs, k) for k in ks))


def pass_curve(profile: SuccessProfile, ks: Sequence[int]) -> PassCurve:
    """Pointwise pass@k of a profile over an ascending k grid."""
    return complement_pass_curve(profile.model, complements(profile), ks)


def beta_weighted_pass(curve: CoverCurve, k: int) -> float:
    """Weighted average of G under the Beta(1, k) density k(1-tau)^(k-1).

    Evaluated in closed form per step piece:
        integral over [a,b] of k(1-tau)^(k-1) dtau = (1-a)^k - (1-b)^k
    which recovers pass@k of the generating profile.
    """
    _check_k(k)
    total = 0.0
    bps, vals = curve.breakpoints, curve.values
    for j in range(1, len(bps)):
        qa = float(ONE - bps[j - 1])
        qb = float(ONE - bps[j])
        total += float(vals[j]) * (qa**k - qb**k)
    return total


def uniform_auc(curve: CoverCurve) -> Fraction:
    """Exact area under G; equals the profile's mean p (pass@1)."""
    total = ZERO
    bps, vals = curve.breakpoints, curve.values
    for j in range(1, len(bps)):
        total += vals[j] * (bps[j] - bps[j - 1])
    return total


def fraction_nonzero(profile: SuccessProfile) -> Fraction:
    """Fraction of tasks with p > 0: the k -> infinity limit of pass@k."""
    hits = sum(1 for p in profile.probabilities if p > ZERO)
    return Fraction(hits, profile.num_tasks)


def beta_mass_below(tau: RationalLike, k: int) -> float:
    """Beta(1, k) probability mass on [0, tau]: 1 - (1-tau)^k.

    Grows with k for any fixed tau > 0; this is the concentration at 0
    that makes large-k pass@k a breadth-only statistic.
    """
    _check_k(k)
    t = as_unit_rational(tau, "tau")
    return 1.0 - float(ONE - t) ** k


def export_curve(
    curve: CoverCurve | PassCurve,
    grid: Sequence[RationalLike] | None = None,
) -> list[tuple[Fraction, Fraction] | tuple[int, float]]:
    """Tabulate a curve as (x, value) rows.

    Cover curves default to their own breakpoints; an explicit grid must lie
    in [0, 1] and is evaluated exactly against the step function.  Pass
    curves ignore `grid` semantics beyond validation and always export their
    own k grid.
    """
    if isinstance(curve, PassCurve):
        if grid:
            raise ValueError("pass curves export their own k grid; grid is not supported")
        return list(zip(curve.ks, curve.values))
    if grid is None or len(grid) == 0:
        return list(zip(curve.breakpoints, curve.values))
    xs = [as_unit_rational(x, "grid value") for x in grid]
    return [(x, curve.value_at(x)) for x in xs]
