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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .curves import CoverCurve, PassCurve
from .records import RationalLike, SuccessProfile, as_unit_rational


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
    width_scale = math.lcm(*{b.denominator for c in curves for b in c.breakpoints})
    height_scale = math.lcm(*{v.denominator for c in curves for v in c.values})
    scale = width_scale * height_scale
    # int64 cannot wrap below 2**62; past it, the same code runs on Python ints
    dtype = np.int64 if scale < 2**62 else object
    scaled = [[b.numerator * (width_scale // b.denominator) for b in c.breakpoints] for c in curves]
    bps = [np.array(s, dtype=dtype) for s in scaled]
    grid = np.array(sorted(set().union(*scaled)), dtype=dtype)
    heights = np.stack([
        # each curve is constant on (lo, hi]: its value at the first own breakpoint >= hi
        np.array([v.numerator * (height_scale // v.denominator) for v in c.values], dtype=dtype)[
            np.searchsorted(b, grid[1:], side="left")
        ]
        for c, b in zip(curves, bps)
    ])
    return heights, np.diff(grid), scale


def _auc_plus_totals(curves: Sequence[CoverCurve]) -> tuple[list[list[int]], int]:
    """The whole auc+ matrix as integers over one denominator:
    auc_plus(curves[i], curves[j]) == totals[i][j] / scale."""
    heights, widths, scale = _cover_grid(curves)
    totals = [(np.maximum(row - heights, 0) * widths).sum(axis=1).tolist() for row in heights]
    return totals, scale


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

    Cover values and AvgAUC+ are recomputed on each resampled task multiset
    in float arithmetic (bands are statistical decoration; point estimates
    stay exact elsewhere).  Profiles must share an identical task tuple.
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
    p_matrix = np.array([[float(p) for p in prof.probabilities] for prof in profiles])
    rng = np.random.Generator(np.random.Philox(key=np.array([seed & _MASK64, 0x626F6F74], dtype=np.uint64)))
    idx = rng.integers(0, t_count, size=(resamples, t_count))

    m = len(profiles)
    cover_samples = np.empty((m, len(tau_fracs), resamples))
    avg_samples = np.empty((m, resamples)) if m >= 2 else None
    for r in range(resamples):
        sample = p_matrix[:, idx[r]]
        for j, tau in enumerate(tau_fracs):
            cover_samples[:, j, r] = (sample >= float(tau)).mean(axis=1)
        if avg_samples is not None:
            avg_samples[:, r] = _avg_auc_plus_float(sample)

    lo_q, hi_q = levels
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for i, prof in enumerate(profiles):
        bands: dict[str, tuple[float, float]] = {}
        for j, tau in enumerate(tau_fracs):
            lo, hi = np.quantile(cover_samples[i, j], [lo_q, hi_q])
            bands[f"cov@{tau}"] = (float(lo), float(hi))
        if avg_samples is not None:
            lo, hi = np.quantile(avg_samples[i], [lo_q, hi_q])
            bands["avg_auc_plus"] = (float(lo), float(hi))
        out[prof.model] = bands
    return out


_MASK64 = (1 << 64) - 1


def _avg_auc_plus_float(p_matrix: np.ndarray) -> np.ndarray:
    """Float AvgAUC+ per model for one resampled probability matrix.

    Integrates max(G_A - G_B, 0) on the merged grid of distinct p values;
    on (grid[j-1], grid[j]] each curve equals the fraction of its p values
    >= grid[j].
    """
    m, t = p_matrix.shape
    grid = np.unique(np.concatenate([p_matrix.ravel(), [0.0, 1.0]]))
    widths = np.diff(grid)
    sorted_p = np.sort(p_matrix, axis=1)
    # counts[i, j] = #{p in model i >= grid[j+1]}
    counts = t - np.stack([np.searchsorted(sorted_p[i], grid[1:], side="left") for i in range(m)])
    g = counts / t
    out = np.empty(m)
    for i in range(m):
        excess = np.clip(g[i] - g, 0.0, None) * widths
        out[i] = excess.sum() / (m - 1)
    return out
