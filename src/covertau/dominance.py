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

an integer sum in Python ints that is divided by V*L once, as a Fraction.

A `TaskTally` starts from each model's per-task trial and pass counts n
and c: p = c/n is the integer c * (L/n) over L = lcm of every n, made once
per distinct (n, c) pair, and each task is placed once on the grid of
those integers.  Reports pass their count columns; a profile's p = a/b in
lowest terms counts as b trials with a passes (`build_cover_curve` counts
one profile on its own tally, `bootstrap_bands` a set of them).  Every
report number is read off one count of the tally over a multiset of task
columns (all of them for the pooled table, cover curves and auc+ matrix, a
group's own, a bootstrap draw with replacement), by one formula per metric
in `TaskTally.table`.  p >= tau is always scaled p >= ceil(tau * L), one
threshold rule for point values and bands alike.
Point counts run on Python ints.  Only a bootstrap resample is counted in
numpy, into the same `Count` of Python ints.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul, sub
from typing import TYPE_CHECKING, Mapping, Sequence

from .curves import CoverCurve, PassCurve
from .records import BOOTSTRAP_STREAM, RationalLike, SuccessProfile, Value, as_thresholds, format_tau, random_stream

# numpy is imported only by the bootstrap: commands that draw no resample
# (`--version`, `ingest`, reports without `--bootstrap`) start without it
if TYPE_CHECKING:
    import numpy as np

#: quantiles of the resampled values that bound a bootstrap band (a 95% interval)
BAND_LEVELS = (0.025, 0.975)

#: (t, passed, covered, excess) of t task columns, in Python ints: model i's pass@1 is passed[i] / (t * scale),
#: cov@taus[k] covered[k][i] / t, and its auc+ summed over the other models excess[i] / (t * scale)
Count = tuple[int, list[int], list[list[int]], list[int]]


class CrossoverResult(Value):
    """Smallest evaluated k at which the pass@k ordering of a pair flips."""

    __slots__ = ("pair", "k_star", "direction")

    def __init__(self, pair: tuple[str, str], k_star: int | None, direction: str) -> None:
        self._assign(pair, k_star, direction)

    @property
    def crossed(self) -> bool:
        return self.k_star is not None


class DominanceReport(Value):
    """Pairwise excess-AUC matrix plus per-model summary scores."""

    __slots__ = ("models", "auc_plus", "avg_auc_plus", "rankings")

    def __init__(self, models: tuple[str, ...], auc_plus: tuple[tuple[Fraction, ...], ...],
                 avg_auc_plus: tuple[Fraction, ...], rankings: dict[str, list[tuple[str, float, int]]]) -> None:
        self._assign(models, auc_plus, avg_auc_plus, rankings)


def scale_to_lcm(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rows of Fractions as integers over one scale, the lcm of all their
    denominators: rows[i][j] == scaled[i][j] / scale."""
    scale = math.lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _cover_totals(curves: Sequence[CoverCurve]) -> tuple[list[list[int]], int]:
    """(totals, scale): the auc+ matrix of curves over one task set is
    totals / scale.  On each interval of their merged breakpoint grid, V * G_i
    is an integer height and L times its length an integer width; scale = V * L."""
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
    grid = sorted(set().union(*scaled))
    # each curve is constant on (lo, hi]: its value at the first own breakpoint >= hi
    heights = [[v[bisect_left(b, hi)] for hi in grid[1:]] for b, v in zip(scaled, scaled_values)]
    return _excess_totals(heights, list(map(sub, grid[1:], grid)))[1], width_scale * height_scale


def _excess_totals(heights: Sequence[Sequence[int]], widths: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """(areas, totals): areas[i] = sum over the grid of heights[i] * widths,
    totals[i][j] = sum over the grid of max(heights[i] - heights[j], 0) * widths."""
    areas = [sum(map(mul, row, widths)) for row in heights]
    totals = [[0] * len(heights) for _ in heights]
    for i, j in combinations(range(len(heights)), 2):
        above = sum(d * w for d, w in zip(map(sub, heights[i], heights[j]), widths) if d > 0)
        # totals[i][j] - totals[j][i] is the whole difference, areas[i] - areas[j]
        totals[i][j], totals[j][i] = above, above - areas[i] + areas[j]
    return areas, totals


def _task_grid(n: Sequence[Sequence[int]], c: Sequence[Sequence[int]], scale: int) -> tuple[list[int], Sequence[int]]:
    """Tasks whose p values are c[i][t] / n[i][t], each n dividing `scale`,
    on the grid of their distinct values c * (scale // n) plus 0 and scale;
    each distinct (n, c) pair is scaled once.  Returns (grid, cells): model
    i's task t at grid position g is cells[i * T + t] = i * len(grid) + g, a
    cell of one flat tally, held as int64 that numpy reads without a copy."""
    point = {(tn, tc): tc * (scale // tn) for tn, tc in set().union(*map(zip, n, c))}
    grid = sorted({0, scale, *point.values()})
    position = {x: g for g, x in enumerate(grid)}
    at = {pair: position[x] for pair, x in point.items()}
    size = len(grid)
    return grid, array("q", (i * size + at[pair] for i, row in enumerate(map(zip, n, c)) for pair in row))


class TaskTally:
    """Tasks whose p values are c[i][t] / n[i][t] (rows over one task set,
    one row per model, of trial and pass counts), scaled to integers over
    `scale`, the lcm of every n, and placed once on the grid of their
    distinct values plus 0 and scale, with each tau's grid position and the
    grid widths.  `at_least` counts any multiset of task columns on it;
    `count`, `table` and `cover_curve` read every report number off such a
    count."""

    def __init__(self, models: Sequence[str], n: Sequence[Sequence[int]], c: Sequence[Sequence[int]],
                 taus: Sequence[Fraction]) -> None:
        self.models = tuple(models)
        self.scale = scale = math.lcm(*set().union(*n))
        self.grid, self.cells = _task_grid(n, c, scale)
        self.rows = [memoryview(self.cells)[i * len(row):(i + 1) * len(row)] for i, row in enumerate(n)]
        # p >= tau is scaled p >= ceil(tau * scale): the first grid point at or above it
        self.tau_at = [bisect_left(self.grid, math.ceil(tau * scale)) for tau in taus]
        self.widths = list(map(sub, self.grid[1:], self.grid))
        self.metric_names = ("pass@1", *(f"cov@{format_tau(tau)}" for tau in taus))
        if len(self.models) >= 2:
            self.metric_names += ("avg_auc_plus",)

    def at_least(self, columns: Sequence[int]) -> list[list[int]]:
        """at_least[i][g]: tasks at `columns`, repeats counted, of model i
        with p >= grid[g], so on (grid[g-1], grid[g]] its cover curve is
        at_least[i][g] / at_least[i][0]."""
        size = len(self.grid)
        tally = [0] * (len(self.models) * size)
        for row in self.rows:
            for t in columns:
                tally[row[t]] += 1
        return [list(accumulate(reversed(tally[g:g + size])))[::-1] for g in range(0, len(tally), size)]

    def count(self, at_least: Sequence[Sequence[int]]) -> Count:
        """The `Count` of an `at_least` count."""
        return self.count_totals(at_least)[0]

    def count_totals(self, at_least: Sequence[Sequence[int]]) -> tuple[Count, list[list[int]]]:
        """The `Count` of an `at_least` count, pass@1 being the area under
        the cover curve, and the auc+ totals whose row sums are its excess."""
        passed, totals = _excess_totals([row[1:] for row in at_least], self.widths)
        covered = [[row[g] for row in at_least] for g in self.tau_at]
        return (at_least[0][0], passed, covered, [sum(row) for row in totals]), totals

    def table(self, count: Count) -> dict[str, tuple[list[int], int]]:
        """{metric: (numerators, denominator)} of a count, one numerator per
        model, for each of `metric_names`."""
        t, passed, covered, excess = count
        rows = [(passed, t * self.scale), *((row, t) for row in covered)]
        if len(self.models) >= 2:
            rows.append(_avg_excess(excess, t * self.scale))
        return dict(zip(self.metric_names, rows))

    def cover_curve(self, i: int, at_least: Sequence[int]) -> CoverCurve:
        """Cover curve of model i over its `at_least` row: breakpoints at 0,
        at each grid point where model i has tasks, and at 1.  It is built
        without `CoverCurve`'s checks, which such a row always passes."""
        t, last = at_least[0], len(self.grid) - 1
        # model i has tasks at grid[g] where at_least drops after g
        points = [0, *(g for g in range(1, last) if at_least[g] > at_least[g + 1]), last]
        breakpoints = tuple(Fraction(self.grid[g], self.scale) for g in points)
        values = tuple(Fraction(at_least[g], t) for g in points)
        return CoverCurve._make(self.models[i], breakpoints, values, t)


def build_cover_curve(profile: SuccessProfile) -> CoverCurve:
    """Cover curve of a profile, counted on a one-model task tally."""
    tally = _profile_tally([profile], ())
    return tally.cover_curve(0, tally.at_least(range(profile.num_tasks))[0])


def _profile_tally(profiles: Sequence[SuccessProfile], taus: Sequence[Fraction]) -> TaskTally:
    """The tally of profiles over one task tuple, each p = a / b in lowest
    terms counted as b trials with a passes."""
    rows = [prof.probabilities for prof in profiles]
    return TaskTally([prof.model for prof in profiles], [[p.denominator for p in row] for row in rows],
                     [[p.numerator for p in row] for row in rows], taus)


def _avg_excess(excess: Sequence[int], scale: int) -> tuple[Sequence[int], int]:
    """AvgAUC+ as (numerators, denominator) of the row sums excess / scale of
    an auc+ matrix: each model's excess over the m - 1 other models."""
    return excess, scale * (len(excess) - 1)


def _check_model_set(names: Sequence[str]) -> None:
    if len(names) < 2:
        raise ValueError(f"need at least 2 models, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names in {names}")


def auc_plus_cover(curve_a: CoverCurve, curve_b: CoverCurve) -> Fraction:
    """Exact integral of max(G_A - G_B, 0) over [0, 1]."""
    totals, scale = _cover_totals([curve_a, curve_b])
    return Fraction(totals[0][1], scale)


def avg_auc_plus(curves: Sequence[CoverCurve]) -> dict[str, Fraction]:
    """Mean pairwise excess AUC of each model against all others."""
    report = dominance_report(curves)
    return dict(zip(report.models, report.avg_auc_plus))


def check_cover_dominance(curve_a: CoverCurve, curve_b: CoverCurve) -> bool:
    """True iff G_A >= G_B on every merged-breakpoint interval, that is iff
    auc+(B, A) = 0: every interval has a positive width.

    When true, pass@k(A) >= pass@k(B) for every k: pass@k is a
    positive-weight integral of the curve difference.
    """
    return _cover_totals([curve_a, curve_b])[0][1][0] == 0


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
    sums, divisor = _avg_excess([sum(row) for row in totals], scale)
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
    return _dominance(models, *_cover_totals(curves))


def _resample_count(tally: TaskTally, cells: np.ndarray, widths: np.ndarray, columns: np.ndarray) -> Count:
    """`tally.count(tally.at_least(columns))`, with tally.cells as an (m, T)
    array and tally.widths as an array whose dtype holds every sum over m - 1
    models and T tasks: only the m-long rows of the `Count` become Python
    ints.  The excess is summed per grid point over the other models, then
    weighted by the widths once; the auc+ matrix itself is never built."""
    import numpy as np

    size = len(tally.grid)
    # take gathers the columns in about half the time of cells[:, columns]
    counts = np.bincount(cells.take(columns, axis=1).ravel(), minlength=len(tally.models) * size)
    at_least = counts.reshape(-1, size)[:, ::-1].cumsum(axis=1)[:, ::-1]
    heights = at_least[:, 1:]
    # above[i, g] = sum over j of max(heights[i, g] - heights[j, g], 0), in
    # row chunks of at most about 2**18 differences each, clipped in place: a
    # second chunk-sized array per resample can make malloc trim and refault the heap
    step = max(1, (1 << 18) // heights.size)
    above = np.concatenate([np.maximum(d := heights[i:i + step, None] - heights, 0, out=d).sum(axis=1)
                            for i in range(0, len(heights), step)])
    return (len(columns), (heights @ widths).tolist(), at_least[:, tally.tau_at].T.tolist(),
            (above @ widths).tolist())


def scaled_bootstrap_bands(
    tally: TaskTally,
    resamples: int = 1000,
    seed: int = 0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Percentile bands from resampling the tally's tasks with replacement.

    Resample r uses task indices idx[r], row r of one (resamples, T) integer
    draw from `random_stream(seed, BOOTSTRAP_STREAM)`, Philox keyed on
    (seed mod 2**64, "boot"), drawn row by row as each is counted.  Each resampled multiset is counted exactly, as the
    point estimates are, and its `table` read, each cov@tau and AvgAUC+
    rounded to a float once; bands are their BAND_LEVELS quantiles.
    Returns {model: {"cov@<tau>": (lo, hi), "avg_auc_plus": (lo, hi)}}.
    """
    import numpy as np

    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    cells = np.frombuffer(tally.cells, dtype=np.int64).reshape(len(tally.models), -1)
    m, t_count = cells.shape
    # T * scale bounds a sum over T tasks, and an excess adds m - 1 of them;
    # int64 cannot wrap below 2**62
    bound = max(m - 1, 1) * t_count * tally.scale
    widths = np.array(tally.widths, dtype=np.int64 if bound < 2**62 else object)
    rng = random_stream(seed, BOOTSTRAP_STREAM)
    samples = {name: np.empty((resamples, m)) for name in tally.metric_names if name != "pass@1"}  # not banded
    for r in range(resamples):
        # row r of the one-shot draw: Philox keeps its buffered half-word in
        # the bit generator, not in the call, so row-by-row draws continue it
        table = tally.table(_resample_count(tally, cells, widths, rng.integers(0, t_count, size=t_count)))
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
    tuple; a repeated threshold in `taus` is a ValueError."""
    if not profiles:
        raise ValueError("no profiles")
    for prof in profiles[1:]:
        if prof.tasks != profiles[0].tasks:
            raise ValueError("bootstrap requires profiles aligned to the same task set")
    return scaled_bootstrap_bands(_profile_tally(profiles, as_thresholds(taus, "tau")), resamples, seed)
