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
of the trial counts.  A `TaskTally` places each task once on the grid of
those integers.  Every report number is read off one count of it over a
multiset of task columns (all of them for the pooled table, cover curves
and auc+ matrix, a group's own, a bootstrap draw with replacement), by
one formula per metric in `TaskTally.table`.  p >= tau is always scaled
p >= ceil(tau * L), one threshold rule for point values and bands alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .curves import CoverCurve, PassCurve, scale_to_lcm
from .records import RationalLike, SuccessProfile, as_unit_rational, format_tau

# numpy is imported inside the functions that compute with it, so that
# commands which never do (`--version`, `ingest`) start without loading it
if TYPE_CHECKING:
    import numpy as np

#: quantiles of the resampled values that bound a bootstrap band (a 95% interval)
BAND_LEVELS = (0.025, 0.975)

#: (t, at_least, totals): a `TaskTally.count` of t task columns
Count = tuple[int, "np.ndarray", list[list[int]]]


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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    return [(np.maximum(row - heights, 0) * widths).sum(axis=1).tolist() for row in heights]


def _task_grid(scaled: Sequence[Sequence[int]], scale: int) -> tuple[list[int], np.ndarray]:
    """Tasks whose p values are scaled[i][t] / scale, on the grid of their
    distinct values plus 0 and scale.  Returns (grid, cells): model i's task t
    at grid position g is cell i * len(grid) + g of one flat tally."""
    import numpy as np

    grid = sorted(set().union(*scaled, (0, scale)))
    position = {point: g for g, point in enumerate(grid)}
    size = len(grid)
    return grid, np.array([[i * size + position[x] for x in row] for i, row in enumerate(scaled)])


class TaskTally:
    """Tasks whose p values are scaled[i][t] / scale (rows over one task set,
    one row per model), placed once on the grid of their distinct values
    plus 0 and scale, with each tau's grid position and the grid widths.
    `count` counts any multiset of task columns on it; `table` and
    `cover_curve` read every report number off such a count."""

    def __init__(self, models: Sequence[str], scaled: Sequence[Sequence[int]], scale: int,
                 taus: Sequence[Fraction]) -> None:
        import numpy as np

        self.models = tuple(models)
        self.scale = scale
        self.grid, self.cells = _task_grid(scaled, scale)
        # p >= tau is scaled p >= ceil(tau * scale): the first grid point at or above it
        self.tau_at = [bisect_left(self.grid, math.ceil(tau * scale)) for tau in taus]
        # every multiset counted has at most T tasks, so T * scale bounds its
        # sums; counts (at most T) times widths take the widths' dtype
        self.widths = np.diff(np.array(self.grid, dtype=_grid_dtype(self.cells.shape[1] * scale)))
        self.metric_names = ("pass@1", *(f"cov@{format_tau(tau)}" for tau in taus))
        if len(self.models) >= 2:
            self.metric_names += ("avg_auc_plus",)

    def count(self, columns: Sequence[int] | np.ndarray) -> Count:
        """(t, at_least, totals) of the t tasks at `columns`, repeats counted:
        at_least[i, g] tasks of model i have p >= grid[g], so on (grid[g-1],
        grid[g]] its cover curve is at_least[i, g] / t, and auc+ of model i
        over model j is totals[i][j] / (t * scale)."""
        import numpy as np

        size = len(self.grid)
        # take gathers the columns in about half the time of cells[:, columns]
        tally = np.bincount(self.cells.take(columns, axis=1).ravel(), minlength=len(self.models) * size)
        at_least = tally.reshape(-1, size)[:, ::-1].cumsum(axis=1)[:, ::-1]
        return len(columns), at_least, _excess_totals(at_least[:, 1:], self.widths)

    def table(self, count: Count) -> dict[str, tuple[list[int], int]]:
        """{metric: (numerators, denominator)} of a count, one numerator per
        model, for each of `metric_names`."""
        t, at_least, totals = count
        # pass@1 is the area under the cover curve
        rows = [((at_least[:, 1:] @ self.widths).tolist(), t * self.scale)]
        rows += [(at_least[:, g].tolist(), t) for g in self.tau_at]
        if len(self.models) >= 2:
            rows.append(_avg_excess(totals, t * self.scale))
        return dict(zip(self.metric_names, rows))

    def cover_curve(self, i: int, count: Count) -> CoverCurve:
        """Cover curve of model i over a count: breakpoints at 0, at each grid
        point where model i has tasks, and at 1."""
        import numpy as np

        t, at_least, _ = count
        row = at_least[i]
        # model i has tasks at grid[g] where at_least drops after g
        points = [0, *(np.flatnonzero(row[1:-1] > row[2:]) + 1).tolist(), len(self.grid) - 1]
        breakpoints = tuple(Fraction(self.grid[g], self.scale) for g in points)
        return CoverCurve(self.models[i], breakpoints, tuple(Fraction(k, t) for k in row[points].tolist()), t)


def _avg_excess(totals: Sequence[Sequence[int]], scale: int) -> tuple[list[int], int]:
    """AvgAUC+ of the auc+ matrix totals / scale as (numerators, denominator):
    each row's excess over the m - 1 other models."""
    return [sum(row) for row in totals], scale * (len(totals) - 1)


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


def _dominance(models: Sequence[str], totals: Sequence[Sequence[int]], scale: int) -> DominanceReport:
    """The auc+ matrix whose entry (i, j) is totals[i][j] / scale."""
    sums, divisor = _avg_excess(totals, scale)
    avg_vector = tuple(Fraction(total, divisor) for total in sums)
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
    heights, widths, scale = _cover_grid(curves)
    return _dominance(models, _excess_totals(heights, widths), scale)


def scaled_bootstrap_bands(
    tally: TaskTally,
    resamples: int = 1000,
    seed: int = 0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Percentile bands from resampling the tally's tasks with replacement.

    Resample r uses task indices idx[r], row r of one (resamples, T) integer
    draw from Philox keyed on (seed mod 2**64, 0x626F6F74), drawn row by row
    as each is counted.  Each resampled multiset is counted exactly on the
    tally and its `table` read, as for the point estimates, each cov@tau and
    AvgAUC+ rounded to a float once; bands are their BAND_LEVELS quantiles.
    Returns {model: {"cov@<tau>": (lo, hi), "avg_auc_plus": (lo, hi)}}.
    """
    import numpy as np

    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    m, t_count = tally.cells.shape
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0x626F6F74], dtype=np.uint64)))
    samples = {name: np.empty((resamples, m)) for name in tally.metric_names if name != "pass@1"}  # not banded
    for r in range(resamples):
        # row r of the one-shot draw: Philox keeps its buffered half-word in
        # the bit generator, not in the call, so row-by-row draws continue it
        table = tally.table(tally.count(rng.integers(0, t_count, size=t_count)))
        for name, values in samples.items():
            nums, den = table[name]
            values[r] = [num / den for num in nums]  # int true division: correctly rounded
    bands = {name: np.quantile(values, BAND_LEVELS, axis=0).tolist() for name, values in samples.items()}
    return {model: {name: (lo[i], hi[i]) for name, (lo, hi) in bands.items()} for i, model in enumerate(tally.models)}


def bootstrap_bands(
    profiles: Sequence[SuccessProfile],
    taus: Sequence[RationalLike],
    resamples: int = 1000,
    seed: int = 0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """`scaled_bootstrap_bands` of the tally of profiles that share one task
    tuple, their p values scaled to integers over the lcm of their
    denominators."""
    if not profiles:
        raise ValueError("no profiles")
    for prof in profiles[1:]:
        if prof.tasks != profiles[0].tasks:
            raise ValueError("bootstrap requires profiles aligned to the same task set")
    tau_fracs = [as_unit_rational(t, "tau") for t in taus]
    scaled, scale = scale_to_lcm([prof.probabilities for prof in profiles])
    tally = TaskTally([p.model for p in profiles], scaled, scale, tau_fracs)
    return scaled_bootstrap_bands(tally, resamples, seed)
