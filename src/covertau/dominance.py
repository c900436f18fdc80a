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

Reports start from counts: p = c/n is the integer c * (L/n) over L = lcm
of the trial counts, and `scaled_dominance_report` tallies those integers,
so every curve is a task count over T.  The bootstrap tallies each resample
the same way: a point estimate is the identity resample.
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


def _task_grid(scaled: Sequence[Sequence[int]], scale: int) -> tuple[list[int], np.ndarray]:
    """Tasks whose p values are scaled[i][t] / scale, on the grid of their
    distinct values plus 0 and scale.  Returns (grid, cells): model i's task t
    at grid position g is cell i * len(grid) + g of one flat tally."""
    grid = sorted(set().union(*scaled, (0, scale)))
    position = {point: g for g, point in enumerate(grid)}
    size = len(grid)
    return grid, np.array([[i * size + position[x] for x in row] for i, row in enumerate(scaled)])


def _at_least(cells: np.ndarray, size: int) -> np.ndarray:
    """at_least[i, g]: how many tasks in row i of `cells` have p >= grid[g].
    On (grid[g-1], grid[g]] model i's cover curve is at_least[i, g] / T."""
    m = len(cells)
    tally = np.bincount(cells.ravel(), minlength=m * size).reshape(m, size)
    return tally[:, ::-1].cumsum(axis=1)[:, ::-1]


def _check_model_set(names: Sequence[str]) -> None:
    if len(names) < 2:
        raise ValueError(f"need at least 2 models, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names in {names}")


def auc_plus_cover(curve_a: CoverCurve, curve_b: CoverCurve) -> Fraction:
    """Exact integral of max(G_A - G_B, 0) over [0, 1]."""
    heights, widths, scale = _cover_grid([curve_a, curve_b])
    return Fraction(_excess_totals(heights, widths)[0][1], scale)


def avg_auc_plus(curves: Sequence[CoverCurve]) -> dict[str, Fraction]:
    """Mean pairwise excess AUC of each model against all others."""
    report = dominance_report(curves)
    return dict(zip(report.models, report.avg_auc_plus))


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


def _dominance(models: Sequence[str], heights: np.ndarray, widths: np.ndarray, scale: int) -> DominanceReport:
    """The auc+ matrix of curves given as heights on one grid (as `_cover_grid` returns them)."""
    totals = _excess_totals(heights, widths)
    # AvgAUC+: each row's excess over the m - 1 other models
    avg_vector = tuple(Fraction(sum(row), scale * (len(totals) - 1)) for row in totals)
    return DominanceReport(
        models=tuple(models),
        auc_plus=tuple(tuple(Fraction(total, scale) for total in row) for row in totals),
        avg_auc_plus=avg_vector,
        rankings={"avg_auc_plus": rank_models(dict(zip(models, avg_vector)))},
    )


def dominance_report(curves: Sequence[CoverCurve]) -> DominanceReport:
    """Full pairwise matrix, AvgAUC+ vector, and the avg_auc_plus ranking."""
    models = [c.model for c in curves]
    _check_model_set(models)
    return _dominance(models, *_cover_grid(curves))


def scaled_dominance_report(models: Sequence[str], scaled: Sequence[Sequence[int]], scale: int) -> DominanceReport:
    """`dominance_report` of the cover curves of tasks whose p values are
    scaled[i][t] / scale (rows over one task set), from their task tallies."""
    _check_model_set(models)
    grid, cells = _task_grid(scaled, scale)
    t_scale = cells.shape[1] * scale
    dtype = _grid_dtype(t_scale)
    heights = _at_least(cells, len(grid))[:, 1:].astype(dtype, copy=False)
    return _dominance(models, heights, np.diff(np.array(grid, dtype=dtype)), t_scale)


def scaled_bootstrap_bands(
    models: Sequence[str],
    scaled: Sequence[Sequence[int]],
    scale: int,
    taus: Sequence[RationalLike],
    resamples: int = 1000,
    seed: int = 0,
    levels: tuple[float, float] = (0.025, 0.975),
) -> dict[str, dict[str, tuple[float, float]]]:
    """Percentile bands from resampling tasks with replacement, for tasks
    whose p values are scaled[i][t] / scale (rows over one task set).

    Resample r uses task indices idx[r], row r of one (resamples, T) integer
    draw from Philox keyed on (seed mod 2**64, 0x626F6F74).  On each resampled
    multiset, cov@tau and AvgAUC+ are computed exactly on the integer grid of
    the point estimates (p >= tau is scaled p >= ceil(tau * scale)) and
    rounded to a float once; bands are percentiles of those samples.
    Returns {model: {"cov@<tau>": (lo, hi), "avg_auc_plus": (lo, hi)}}.
    """
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    tau_fracs = [as_unit_rational(t, "tau") for t in taus]
    grid, cells = _task_grid(scaled, scale)
    m, t_count = cells.shape
    size = len(grid)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0x626F6F74], dtype=np.uint64)))
    idx = rng.integers(0, t_count, size=(resamples, t_count))
    tau_at = [bisect_left(grid, math.ceil(tau * scale)) for tau in tau_fracs]
    dtype = _grid_dtype(t_count * scale)
    widths = np.diff(np.array(grid, dtype=dtype))
    divisor = t_count * scale * (m - 1)

    cover_samples = np.empty((m, len(tau_fracs), resamples))
    avg_samples = np.empty((m, resamples)) if m >= 2 else None
    for r in range(resamples):
        at_least = _at_least(cells[:, idx[r]], size)
        cover_samples[:, :, r] = at_least[:, tau_at] / t_count
        if avg_samples is not None:
            totals = _excess_totals(at_least[:, 1:].astype(dtype, copy=False), widths)
            avg_samples[:, r] = [sum(row) / divisor for row in totals]

    def band(samples: np.ndarray) -> tuple[float, float]:
        lo, hi = np.quantile(samples, levels)
        return float(lo), float(hi)

    out: dict[str, dict[str, tuple[float, float]]] = {}
    for i, model in enumerate(models):
        out[model] = {f"cov@{format_tau(tau)}": band(cover_samples[i, j]) for j, tau in enumerate(tau_fracs)}
        if avg_samples is not None:
            out[model]["avg_auc_plus"] = band(avg_samples[i])
    return out


def bootstrap_bands(
    profiles: Sequence[SuccessProfile],
    taus: Sequence[RationalLike],
    resamples: int = 1000,
    seed: int = 0,
    levels: tuple[float, float] = (0.025, 0.975),
) -> dict[str, dict[str, tuple[float, float]]]:
    """`scaled_bootstrap_bands` of profiles that share one task tuple, their
    p values scaled to integers over the lcm of their denominators."""
    if not profiles:
        raise ValueError("no profiles")
    for prof in profiles[1:]:
        if prof.tasks != profiles[0].tasks:
            raise ValueError("bootstrap requires profiles aligned to the same task set")
    scaled, scale = scale_to_lcm([prof.probabilities for prof in profiles])
    return scaled_bootstrap_bands([p.model for p in profiles], scaled, scale, taus, resamples, seed, levels)
