"""Report assembly: metric tables, curve tables, dominance serialization.

Human-facing tables print metrics x100 with two decimals (cover/pass) and
mark the top three per column; machine-readable outputs (JSON, CSV) keep
raw [0, 1] values, with exact rationals rendered as "num/den" strings.

`build_report` reads each model's counts as one `TaskColumns` (checked, and
a list of `TaskCounts` turned into one once, by `records.count_columns`),
scales each task's c/n by L, the lcm of the aligned trial counts, straight
from the columns, and places every task once on a `TaskTally`.  It counts
all task columns once and reads the pooled table, the cover curves and the
auc+ matrix off that count; a grouped report adds one count per task
group, and the bootstrap one per resample, the only count made in numpy.
Every table row comes from `TaskTally.table`, with one threshold rule:
p >= tau is scaled p >= ceil(tau * L).  A pooled table is the table of one
group holding every task.  Pass curves read (n - c) / n, and a Fraction is
formed only for a value that is written out.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from operator import sub, truediv
from typing import Iterable, Iterator, Mapping, Sequence

from . import __version__
from .curves import CoverCurve, PassCurve
from .curves import pass_curve  # noqa: F401  (perfbench/spans.py wraps it)
from .dominance import (CrossoverResult, DominanceReport, TaskTally, _dominance, find_crossover, rank_models,
                        scaled_bootstrap_bands)
from .dominance import avg_auc_plus, bootstrap_bands, dominance_report  # noqa: F401  (perfbench/spans.py wraps them)
from .dominance import build_cover_curve  # noqa: F401  (perfbench/spans.py wraps it)
from .metrics import cover_at_tau, estimate_success  # noqa: F401  (perfbench/spans.py wraps them)
from .metrics import check_k_grid, pass_values
from .records import RationalLike, TaskColumns, TaskCounts, Value, as_thresholds, count_columns

DEFAULT_TAUS = (Fraction(1, 5), Fraction(4, 5))
DEFAULT_K_GRID = tuple(2**i for i in range(14))  # 1 .. 2^13

LOW_TRIAL_WARNING = 16


def format_exact(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class ReportBundle(Value):
    """Everything a report run computed, recomputable from the run file."""

    __slots__ = ("models", "taus", "k_grid", "aggregation", "metric_names", "metrics", "rankings", "cover_curves",
                 "pass_curves", "dominance", "crossovers", "dropped_tasks", "notes", "bootstrap", "provenance")

    def __init__(self, models: tuple[str, ...], taus: tuple[Fraction, ...], k_grid: tuple[int, ...], aggregation: str,
                 metric_names: tuple[str, ...], metrics: dict[str, dict[str, Fraction]],
                 rankings: dict[str, list[tuple[str, float, int]]], cover_curves: dict[str, CoverCurve],
                 pass_curves: dict[str, PassCurve], dominance: DominanceReport | None,
                 crossovers: tuple[CrossoverResult, ...], dropped_tasks: dict[str, tuple[str, ...]],
                 notes: tuple[str, ...], bootstrap: dict[str, dict[str, tuple[float, float]]] | None,
                 provenance: dict[str, object] | None = None) -> None:
        self._assign(models, taus, k_grid, aggregation, metric_names, metrics, rankings, cover_curves, pass_curves,
                     dominance, crossovers, dropped_tasks, notes, bootstrap, {} if provenance is None else provenance)


def align_profiles(
    counts: Mapping[str, Sequence[TaskCounts]],
) -> tuple[dict[str, TaskColumns], dict[str, tuple[str, ...]]]:
    """Restrict every model's counts, as `count_columns` gives them, to the
    task set all models share: curves are only comparable over one task
    set.  The returned map names each model's dropped tasks; both maps are
    in sorted model order.  Builds no task set when every model has the same
    tasks, else one.  (The name predates counts; perfbench/spans.py wraps it.)"""
    views = dict(count_columns(counts))
    first, *rest = views.values()
    if all(view.tasks == first.tasks for view in rest):
        return views, {}
    shared = set(first.tasks).intersection(*(view.tasks for view in rest))
    if not shared:
        raise ValueError(f"task sets have empty intersection across models {list(views)}; nothing to compare")
    dropped: dict[str, tuple[str, ...]] = {}
    for model, view in views.items():
        if len(view) > len(shared):
            dropped[model] = tuple(task for task in view.tasks if task not in shared)
            kept = [t for t, task in enumerate(view.tasks) if task in shared]
            views[model] = TaskColumns._take(view.tasks, view.n, view.c, kept)
    return views, dropped


def build_report(
    counts: Mapping[str, Sequence[TaskCounts]],
    taus: Sequence[RationalLike] = DEFAULT_TAUS,
    ks: Sequence[int] = DEFAULT_K_GRID,
    group_delimiter: str | None = None,
    bootstrap_resamples: int = 0,
    seed: int = 0,
    provenance: Mapping[str, object] | None = None,
) -> ReportBundle:
    """Compute the full report bundle from aggregated counts, over every
    model they hold: each model's `TaskColumns`, or a list of `TaskCounts`,
    which `records.count_columns` checks and turns into one once."""
    if bootstrap_resamples < 0:
        raise ValueError(f"bootstrap resample count must be >= 0, got {bootstrap_resamples}")
    if group_delimiter == "":
        raise ValueError("group delimiter must be a nonempty string, got ''")
    tau_fracs, ks = as_thresholds(taus, "tau"), check_k_grid(tuple(ks), "k")

    aligned, dropped = align_profiles(counts)
    models, columns = list(aligned), list(aligned.values())
    tasks = columns[0].tasks

    notes: list[str] = []
    for model, view in zip(models, columns):
        low = sum(map(LOW_TRIAL_WARNING.__gt__, view.n))
        if low:
            notes.append(
                f"model {model!r}: {low} task(s) with fewer than {LOW_TRIAL_WARNING} trials; "
                f"cover estimates at high thresholds are coarse (granularity 1/n)"
            )
    for model, extra in dropped.items():
        notes.append(
            f"model {model!r}: dropped {len(extra)} task(s) outside the shared task set: "
            + ", ".join(extra)
        )

    tally = TaskTally(models, [view.n for view in columns], [view.c for view in columns], tau_fracs)
    at_least = tally.at_least(range(len(tasks)))
    pooled, totals = tally.count_totals(at_least)
    aggregation, counts_per_group = "pooled", [pooled]
    if group_delimiter is not None:
        members: dict[str, list[int]] = {}
        for t, task in enumerate(tasks):
            members.setdefault(task.split(group_delimiter, 1)[0], []).append(t)
        aggregation = "per-group-averaged"
        counts_per_group = [tally.count(tally.at_least(cols)) for _, cols in sorted(members.items())]
        notes.append(
            f"metric table averages per task group (split on {group_delimiter!r}); "
            "curves, dominance and any bootstrap bands remain pooled"
        )
    # the published table is the mean of the group tables; pooled is one group
    tables = [tally.table(count) for count in counts_per_group]
    metrics = {
        model: {
            name: sum((Fraction(table[name][0][i], table[name][1]) for table in tables), Fraction(0)) / len(tables)
            for name in tally.metric_names
        }
        for i, model in enumerate(models)
    }
    cover_curves = {model: tally.cover_curve(i, row) for i, (model, row) in enumerate(zip(models, at_least))}
    dominance = None
    if len(models) >= 2:
        dominance = _dominance(models, totals, len(tasks) * tally.scale)
    else:
        notes.append("avg_auc_plus column absent: needs at least 2 models")

    # (n - c) / n is correctly rounded, as float(1 - Fraction(c, n)) is
    pass_curves = {m: PassCurve(m, ks, pass_values([*map(truediv, map(sub, view.n, view.c), view.n)], ks))
                   for m, view in aligned.items()}
    crossovers = [
        find_crossover(pass_curves[a], pass_curves[b]) for i, a in enumerate(models) for b in models[i + 1 :]
    ]

    bands = None
    if bootstrap_resamples > 0:
        bands = scaled_bootstrap_bands(tally, resamples=bootstrap_resamples, seed=seed)

    rankings = {metric: rank_models({m: metrics[m][metric] for m in metrics}) for metric in tally.metric_names}

    prov: dict[str, object] = {
        "tool_version": __version__,
        "seed": seed,
        "bootstrap_resamples": bootstrap_resamples,
    }
    if provenance:
        prov.update(provenance)

    return ReportBundle(
        models=tuple(models),
        taus=tau_fracs,
        k_grid=ks,
        aggregation=aggregation,
        metric_names=tally.metric_names,
        metrics=metrics,
        rankings=rankings,
        cover_curves=cover_curves,
        pass_curves=pass_curves,
        dominance=dominance,
        crossovers=tuple(crossovers),
        dropped_tasks=dropped,
        notes=tuple(notes),
        bootstrap=bands,
        provenance=prov,
    )


# ---------------------------------------------------------------- rendering


def _columns(rows: Sequence[Sequence[str]], rule: bool = False) -> list[str]:
    """Text lines of `rows` (the first is the header), columns left-aligned
    two spaces apart and trailing spaces cut; `rule` adds a dash rule under
    the header."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    if rule:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def render_metrics_table(bundle: ReportBundle) -> str:
    """Fixed-width text table, x100 scaling, top-3 markers per column."""
    marks = [
        {m: f"({rank})" for m, _v, rank in bundle.rankings[metric] if rank <= 3 and len(bundle.models) > 1}
        for metric in bundle.metric_names
    ]
    rows = [["model"] + [f"{m} x100" for m in bundle.metric_names]] + [
        [model] + [
            f"{float(bundle.metrics[model][metric]) * 100:.2f}{mark.get(model, '')}"
            for metric, mark in zip(bundle.metric_names, marks)
        ]
        for model in bundle.models
    ]
    lines = _columns(rows, rule=True) + [
        "",
        "markers: (1)=best (2)=second (3)=third per column; ties share a rank",
        f"aggregation: {bundle.aggregation}",
    ]
    if "avg_auc_plus" in bundle.metric_names:
        raw = ", ".join(
            f"{m}={format_exact(bundle.metrics[m]['avg_auc_plus'])}"
            f" ({float(bundle.metrics[m]['avg_auc_plus']):.6f})"
            for m in bundle.models
        )
        lines.append(f"avg_auc_plus raw [0,1]: {raw}")
    lines += [f"note: {note}" for note in bundle.notes]
    return "\n".join(lines) + "\n"


def render_dominance_text(bundle: ReportBundle) -> str:
    """Matrix + rankings + crossovers as plain text."""
    if bundle.dominance is None:
        raise ValueError("dominance requires at least 2 models")
    dom = bundle.dominance
    rows = [["auc_plus(A,B)"] + list(dom.models)] + [
        [a] + [f"{float(v):.6f}" for v in row] for a, row in zip(dom.models, dom.auc_plus)
    ]
    lines = _columns(rows) + ["", "avg_auc_plus (raw / x100):"]
    for model, value in zip(dom.models, dom.avg_auc_plus):
        lines.append(f"  {model}: {format_exact(value)} = {float(value):.6f} / {float(value) * 100:.2f}")
    lines += ["", "rankings:"]
    for metric in sorted(bundle.rankings):
        lines.append(f"  {metric}: " + ", ".join(f"{m}({rank})" for m, _v, rank in bundle.rankings[metric]))
    lines += ["", "crossovers (pass@k ordering flips on the evaluated grid):"]
    for cross in bundle.crossovers:
        verdict = f"k*={cross.k_star} ({cross.direction})" if cross.crossed else "no crossover"
        lines.append(f"  {cross.pair[0]} vs {cross.pair[1]}: {verdict}")
    return "\n".join(lines) + "\n"


def _csv(rows: Iterable[Sequence[object]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def metrics_csv(bundle: ReportBundle) -> str:
    """Raw-value CSV: one row per (model, metric), exact and float columns."""
    return _csv([["model", "metric", "value", "value_exact"]] + [
        [model, metric, repr(float(bundle.metrics[model][metric])), format_exact(bundle.metrics[model][metric])]
        for model in bundle.models
        for metric in bundle.metric_names
    ])


def cover_curve_csv(curve: CoverCurve) -> str:
    return _csv([["tau", "tau_float", "cover", "cover_float"]] + [
        [format_exact(tau), repr(float(tau)), format_exact(value), repr(float(value))]
        for tau, value in zip(curve.breakpoints, curve.values)
    ])


def pass_curve_csv(curve: PassCurve) -> str:
    return _csv([["k", "pass"]] + [[k, repr(value)] for k, value in zip(curve.ks, curve.values)])


def _fraction_json(value: Fraction) -> dict[str, object]:
    return {"exact": format_exact(value), "value": float(value)}


def bundle_json(bundle: ReportBundle) -> str:
    """Canonical JSON for the whole bundle (raw [0,1] values); `sort_keys`
    orders every key."""
    return "".join(bundle_chunks(bundle))


def bundle_chunks(bundle: ReportBundle) -> Iterator[str]:
    """`bundle_json` in the pieces that `json.JSONEncoder.iterencode` yields,
    so that a writer need not hold the whole text."""
    obj: dict[str, object] = {
        "models": list(bundle.models),
        "taus": [format_exact(t) for t in bundle.taus],
        "k_grid": list(bundle.k_grid),
        "aggregation": bundle.aggregation,
        "metrics": {
            model: {metric: _fraction_json(v) for metric, v in bundle.metrics[model].items()}
            for model in bundle.models
        },
        "rankings": {
            metric: [{"model": m, "value": v, "rank": r} for m, v, r in ranks]
            for metric, ranks in bundle.rankings.items()
        },
        "cover_curves": {
            model: {
                "breakpoints": [format_exact(b) for b in curve.breakpoints],
                "values": [format_exact(v) for v in curve.values],
                "num_tasks": curve.num_tasks,
            }
            for model, curve in bundle.cover_curves.items()
        },
        "pass_curves": {
            model: {"ks": list(curve.ks), "values": list(curve.values)}
            for model, curve in bundle.pass_curves.items()
        },
        "dropped_tasks": {m: list(ts) for m, ts in bundle.dropped_tasks.items()},
        "notes": list(bundle.notes),
        "provenance": bundle.provenance,
    }
    if bundle.dominance is not None:
        dom = bundle.dominance
        obj["dominance"] = {
            "models": list(dom.models),
            "auc_plus": [[_fraction_json(v) for v in row] for row in dom.auc_plus],
            "avg_auc_plus": {m: _fraction_json(v) for m, v in zip(dom.models, dom.avg_auc_plus)},
        }
        obj["crossovers"] = [
            {"pair": list(cross.pair), "k_star": cross.k_star, "direction": cross.direction}
            for cross in bundle.crossovers
        ]
    if bundle.bootstrap is not None:
        obj["bootstrap"] = {
            model: {metric: list(band) for metric, band in bands.items()}
            for model, bands in bundle.bootstrap.items()
        }
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    yield "\n"


def safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)
