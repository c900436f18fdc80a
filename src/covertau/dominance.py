"""Pairwise and set-level model comparison on cover curves.

The excess AUC between two cover curves,

    auc_plus(A, B) = integral over [0,1] of max(G_A - G_B, 0) dtau,

is the total coverage advantage of A over B across reliability thresholds,
ignoring regions where A is worse.  Averaging it against every other model
in a set gives a single dominance score per model.

Both integrals are exact and run on an integer grid.  With L the lcm of all
breakpoint denominators and V that of all curve values, each curve is a
vector of integer heights V*G on the merged breakpoint grid, whose interval
widths are integers over L.  Row i of the whole auc+ matrix is then

    sum over the grid of max(H_i - H_j, 0) * width,

an integer sum in int64 (or Python ints once V*L reaches 2**62) that is
divided by V*L once, as a Fraction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .curves import CoverCurve, PassCurve, scale_to_lcm
from .records import RationalLike, SuccessProfile, as_unit_rational, format_tau


@dataclass(frozen=True)
class CrossoverResult:
    """Smallest evaluated k at which the pass@k ordering of a pair flips."""

    pair: tuple[str, str]
    k_star: int | None
    direction: str

    @property
    def crossed(self) -> bool:
        return self.k_star is not None


@dataclass(frozen=True)
class DominanceReport:
    """Pairwise excess-AUC matrix plus per-model summary scores."""

    models: tuple[str, ...]
    auc_plus: tuple[tuple[Fraction, ...], ...]
    avg_auc_plus: tuple[Fraction, ...]
    rankings: dict[str, list[tuple[str, float, int]]]


def _grid_dtype(scale: int) -> type:
    # int64 cannot wrap below 2**62; past it, the same code runs on Python ints
    return np.int64 if scale < 2**62 else object


def _cover_grid(curves: Sequence[CoverCurve]) -> tuple[np.ndarray, np.ndarray, int]:
    """Curves over one task set as integers on their merged breakpoint grid.

    Returns (heights, widths, scale).  heights[i, j] is V * G_i on the j-th
    interval (grid[j], grid[j+1]] and widths[j] is L * its length, so each
    interval contributes heights * widths / scale with scale = V * L.  All
    heights lie in [0, V] and the widths sum to L, so no product, and no sum
    of clipped differences times widths, exceeds scale.
    """
    first = curves[0]
    for curve in curves[1:]:
        if curve.num_tasks != first.num_tasks:
            raise ValueError(
                f"curves cover different task universes "
                f"({first.model!r}: {first.num_tasks} tasks, {curve.model!r}: {curve.num_tasks}); "
                "align profiles to a shared task set first"
            )
    scaled, width_scale = scale_to_lcm([c.breakpoints for c in curves])
    scaled_values, height_scale = scale_to_lcm([c.values for c in curves])
    scale = width_scale * height_scale
    dtype = _grid_dtype(scale)
    grid = np.array(sorted(set().union(*scaled)), dtype=dtype)
    heights = np.stack([
        # each curve is constant on (lo, hi]: its value at the first own breakpoint >= hi
        np.array(v, dtype=dtype)[np.searchsorted(np.array(b, dtype=dtype), grid[1:], side="left")]
        for b, v in zip(scaled, scaled_values)
    ])
    return heights, np.diff(grid), scale


def _excess_totals(heights: np.ndarray, widths: np.ndarray) -> list[list[int]]:
    """totals[i][j] = sum over the grid of max(heights[i] - heights[j], 0) * widths."""
    return [(np.maximum(row - heights, 0) * widths).sum(axis=1).tolist() for row in heights]


def _auc_plus_totals(curves: Sequence[CoverCurve]) -> tuple[list[list[int]], int]:
    """The whole auc+ matrix as integers over one denominator:
    auc_plus(curves[i], curves[j]) == totals[i][j] / scale."""
    heights, widths, scale = _cover_grid(curves)
    return _excess_totals(heights, widths), scale


def _row_averages(totals: list[list[int]], scale: int) -> list[Fraction]:
    """AvgAUC+ per model: each row's excess over the m - 1 other models."""
    m = len(totals)
    return [Fraction(sum(row), scale * (m - 1)) for row in totals]


def _check_model_set(curves: Sequence[CoverCurve]) -> None:
    if len(curves) < 2:
        raise ValueError(f"need at least 2 models, got {len(curves)}")
    names = [c.model for c in curves]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names in {names}")


def auc_plus_cover(curve_a: CoverCurve, curve_b: CoverCurve) -> Fraction:
    """Exact integral of max(G_A - G_B, 0) over [0, 1]."""
    totals, scale = _auc_plus_totals([curve_a, curve_b])
    return Fraction(totals[0][1], scale)


def avg_auc_plus(curves: Sequence[CoverCurve]) -> dict[str, Fraction]:
    """Mean pairwise excess AUC of each model against all others."""
    _check_model_set(curves)
    totals, scale = _auc_plus_totals(curves)
    return {c.model: avg for c, avg in zip(curves, _row_averages(totals, scale))}


def check_cover_dominance(curve_a: CoverCurve, curve_b: CoverCurve) -> bool:
    """True iff G_A >= G_B on every merged-breakpoint interval.

    When true, pass@k(A) >= pass@k(B) for every k: pass@k is a
    positive-weight integral of the curve difference.
    """
    heights, _, _ = _cover_grid([curve_a, curve_b])
    return bool((heights[0] >= heights[1]).all())


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def find_crossover(pass_a: PassCurve, pass_b: PassCurve) -> CrossoverResult:
    """Smallest grid k where the pass@k ordering strictly reverses.

    Exact ties at a grid point do not count as a flip; the sign must go
    from strictly positive to strictly negative or vice versa between
    consecutive grid points.
    """
    if pass_a.ks != pass_b.ks:
        raise ValueError(f"k grids differ: {list(pass_a.ks)} vs {list(pass_b.ks)}")
    pair = (pass_a.model, pass_b.model)
    signs = [_sign(va - vb) for va, vb in zip(pass_a.values, pass_b.values)]
    prev = 0
    for i, s in enumerate(signs):
        if prev != 0 and s != 0 and s != prev:
            leader_before = pair[0] if prev > 0 else pair[1]
            leader_after = pair[0] if s > 0 else pair[1]
            return CrossoverResult(
                pair=pair,
                k_star=pass_a.ks[i],
                direction=f"{leader_before} leads before k={pass_a.ks[i]}, {leader_after} after",
            )
        if s != 0:
            prev = s
    return CrossoverResult(pair=pair, k_star=None, direction="no crossover")


def rank_models(values: Mapping[str, float | Fraction]) -> list[tuple[str, float, int]]:
    """Rank models descending by value; ties share a rank (1, 1, 3, ...).

    Tied models are listed lexicographically.  Values are compared as given,
    so pass exact rationals when exact ties matter.
    """
    if not values:
        raise ValueError("no values to rank")
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    ranking: list[tuple[str, float, int]] = []
    rank = 0
    prev_value = None
    for i, (name, value) in enumerate(ordered):
        if prev_value is None or value != prev_value:
            rank = i + 1
            prev_value = value
        ranking.append((name, float(value), rank))
    return ranking


def dominance_report(
    curves: Sequence[CoverCurve],
    extra_metrics: Mapping[str, Mapping[str, float | Fraction]] | None = None,
) -> DominanceReport:
    """Full pairwise matrix, AvgAUC+ vector, and rankings.

    `extra_metrics` maps metric name -> per-model values to rank alongside
    the always-present avg_auc_plus ranking.
    """
    _check_model_set(curves)
    models = tuple(c.model for c in curves)
    totals, scale = _auc_plus_totals(curves)
    matrix = tuple(tuple(Fraction(total, scale) for total in row) for row in totals)
    avg_vector = tuple(_row_averages(totals, scale))
    averages = dict(zip(models, avg_vector))
    rankings = {"avg_auc_plus": rank_models(averages)}
    for metric, vals in (extra_metrics or {}).items():
        rankings[metric] = rank_models(vals)
    return DominanceReport(
        models=models,
        auc_plus=matrix,
        avg_auc_plus=avg_vector,
        rankings=rankings,
    )


def bootstrap_bands(
    profiles: Sequence[SuccessProfile],
    taus: Sequence[RationalLike],
    resamples: int = 1000,
    seed: int = 0,
    levels: tuple[float, float] = (0.025, 0.975),
) -> dict[str, dict[str, tuple[float, float]]]:
    """Percentile bands from resampling tasks with replacement.

    Resample r uses task indices idx[r], row r of one (resamples, T) integer
    draw from Philox keyed on (seed mod 2**64, 0x626F6F74).  On each resampled
    multiset, cov@tau and AvgAUC+ are computed exactly on the integer grid of
    the point estimates (p >= tau is scaled p >= ceil(tau * L)) and rounded
    to a float once; bands are percentiles of those samples.  Profiles must
    share an identical task tuple.
    Returns {model: {"cov@<tau>": (lo, hi), "avg_auc_plus": (lo, hi)}}.
    """
    if not profiles:
        raise ValueError("no profiles")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    tasks = profiles[0].tasks
    for prof in profiles[1:]:
        if prof.tasks != tasks:
            raise ValueError("bootstrap requires profiles aligned to the same task set")
    tau_fracs = [as_unit_rational(t, "tau") for t in taus]
    t_count = len(tasks)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0x626F6F74], dtype=np.uint64)))
    idx = rng.integers(0, t_count, size=(resamples, t_count))

    # grid[g] is the g-th distinct scaled p (plus 0 and L); model i's task at
    # grid position g is cell i * size + g of one flat tally
    scaled, scale = scale_to_lcm([prof.probabilities for prof in profiles])
    grid = sorted(set().union(*scaled, (0, scale)))
    position = {point: g for g, point in enumerate(grid)}
    m, size = len(profiles), len(grid)
    cells = np.array([[i * size + position[x] for x in row] for i, row in enumerate(scaled)])
    tau_at = [bisect_left(grid, math.ceil(tau * scale)) for tau in tau_fracs]
    dtype = _grid_dtype(t_count * scale)
    widths = np.diff(np.array(grid, dtype=dtype))
    divisor = t_count * scale * (m - 1)

    cover_samples = np.empty((m, len(tau_fracs), resamples))
    avg_samples = np.empty((m, resamples)) if m >= 2 else None
    for r in range(resamples):
        tally = np.bincount(cells[:, idx[r]].ravel(), minlength=m * size).reshape(m, size)
        at_least = tally[:, ::-1].cumsum(axis=1)[:, ::-1]  # tasks with p >= grid[g]
        cover_samples[:, :, r] = at_least[:, tau_at] / t_count
        if avg_samples is not None:
            # on (grid[g-1], grid[g]] each curve is at_least[:, g] / T
            totals = _excess_totals(at_least[:, 1:].astype(dtype, copy=False), widths)
            avg_samples[:, r] = [sum(row) / divisor for row in totals]

    def band(samples: np.ndarray) -> tuple[float, float]:
        lo, hi = np.quantile(samples, levels)
        return float(lo), float(hi)

    out: dict[str, dict[str, tuple[float, float]]] = {}
    for i, prof in enumerate(profiles):
        out[prof.model] = {f"cov@{format_tau(tau)}": band(cover_samples[i, j]) for j, tau in enumerate(tau_fracs)}
        if avg_samples is not None:
            out[prof.model]["avg_auc_plus"] = band(avg_samples[i])
    return out
