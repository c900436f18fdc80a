"""Report assembly: metric tables, curve tables, dominance serialization.

Human-facing tables print metrics x100 with two decimals (cover/pass) and
mark the top three per column; machine-readable outputs (JSON, CSV) keep
raw [0, 1] values, with exact rationals rendered as "num/den" strings.

`build_report` scales each task's c/n by L, the lcm of the aligned trial
counts, straight from the counts: every table, curve, matrix and band reads
those integers (the pass curves read (n - c) / n), and a Fraction is formed
only for a value that is written out.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import __version__
from .curves import CoverCurve, PassCurve, complement_pass_curve, scaled_cover_curve
from .curves import build_cover_curve, pass_curve  # noqa: F401  (perfbench/spans.py wraps them)
from .dominance import (
    CrossoverResult,
    DominanceReport,
    find_crossover,
    rank_models,
    scaled_bootstrap_bands,
    scaled_dominance_report,
)
from .dominance import avg_auc_plus, bootstrap_bands, dominance_report  # noqa: F401  (perfbench/spans.py wraps them)
from .metrics import cover_at_tau, estimate_success  # noqa: F401  (perfbench/spans.py wraps them)
from .records import RationalLike, TaskCounts, as_unit_rational, format_tau

DEFAULT_TAUS = (Fraction(1, 5), Fraction(4, 5))
DEFAULT_K_GRID = tuple(2**i for i in range(14))  # 1 .. 2^13

LOW_TRIAL_WARNING = 16


def format_exact(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class ReportBundle:
    """Everything a report run computed, recomputable from the run file."""

    models: tuple[str, ...]
    taus: tuple[Fraction, ...]
    k_grid: tuple[int, ...]
    aggregation: str
    metric_names: tuple[str, ...]
    metrics: dict[str, dict[str, Fraction | float | None]]
    rankings: dict[str, list[tuple[str, float, int]]]
    cover_curves: dict[str, CoverCurve]
    pass_curves: dict[str, PassCurve]
    dominance: DominanceReport | None
    crossovers: tuple[CrossoverResult, ...]
    dropped_tasks: dict[str, tuple[str, ...]]
    notes: tuple[str, ...]
    bootstrap: dict[str, dict[str, tuple[float, float]]] | None
    provenance: dict[str, object] = field(default_factory=dict)


def align_profiles(
    counts: Mapping[str, Sequence[TaskCounts]],
) -> tuple[dict[str, list[TaskCounts]], dict[str, tuple[str, ...]]]:
    """Restrict every model's counts, in task order, to the task set all
    models share: curves are only comparable over one task set.  The
    returned map names each model's dropped tasks.  (The name predates
    counts; perfbench/spans.py wraps it.)"""
    if not counts:
        raise ValueError("no models to align")
    for model, row in counts.items():
        if not model:
            raise ValueError("model identifier must be nonempty")
        if not row:
            raise ValueError(f"no task counts for model {model!r}")
        if len({tc.task for tc in row}) != len(row):
            raise ValueError(f"duplicate task in the counts for model {model!r}")
    shared = set.intersection(*({tc.task for tc in row} for row in counts.values()))
    if not shared:
        raise ValueError(
            "task sets have empty intersection across models "
            f"{list(counts)}; nothing to compare"
        )
    aligned = {}
    dropped: dict[str, tuple[str, ...]] = {}
    for model, row in counts.items():
        extra = tuple(sorted(tc.task for tc in row if tc.task not in shared))
        if extra:
            dropped[model] = extra
        aligned[model] = sorted((tc for tc in row if tc.task in shared), key=lambda tc: tc.task)
    return aligned, dropped


def _metric_table(
    scaled: Mapping[str, list[int]], scale: int, taus: Sequence[Fraction]
) -> tuple[dict[str, dict[str, Fraction]], dict[str, CoverCurve], DominanceReport | None]:
    """Metric table of tasks whose p values are row / scale, with the cover
    curves and (for two or more models) the dominance report it reads."""
    curves = {model: scaled_cover_curve(model, row, scale) for model, row in scaled.items()}
    table: dict[str, dict[str, Fraction]] = {}
    for model, row in scaled.items():
        table[model] = {"pass@1": Fraction(sum(row), len(row) * scale)}
        for tau in taus:
            table[model][f"cov@{format_tau(tau)}"] = curves[model].value_at(tau)
    dominance = None
    if len(scaled) >= 2:
        dominance = scaled_dominance_report(list(scaled), list(scaled.values()), scale)
        for model, value in zip(dominance.models, dominance.avg_auc_plus):
            table[model]["avg_auc_plus"] = value
    return table, curves, dominance


def _metric_table_grouped(
    scaled: Mapping[str, list[int]], tasks: Sequence[str], scale: int, taus: Sequence[Fraction], delimiter: str
) -> dict[str, dict[str, Fraction]]:
    """The metric table of each task group, averaged over the groups."""
    groups: dict[str, list[int]] = {}
    for t, task in enumerate(tasks):
        groups.setdefault(task.split(delimiter, 1)[0], []).append(t)
    per_group = [
        _metric_table({model: [row[t] for t in members] for model, row in scaled.items()}, scale, taus)[0]
        for _, members in sorted(groups.items())
    ]
    return {
        model: {
            metric: sum((grp[model][metric] for grp in per_group), Fraction(0)) / len(per_group)
            for metric in per_group[0][model]
        }
        for model in scaled
    }


def build_report(
    counts: Mapping[str, Sequence[TaskCounts]],
    taus: Sequence[RationalLike] = DEFAULT_TAUS,
    ks: Sequence[int] = DEFAULT_K_GRID,
    model_filter: Sequence[str] | None = None,
    group_delimiter: str | None = None,
    bootstrap_resamples: int = 0,
    seed: int = 0,
    provenance: Mapping[str, object] | None = None,
) -> ReportBundle:
    """Compute the full report bundle from aggregated counts."""
    known = sorted(counts)
    selected = known
    if model_filter:
        unknown = sorted(set(model_filter) - set(known))
        if unknown:
            raise ValueError(f"unknown models {unknown}; known models: {known}")
        selected = sorted(set(model_filter))
    if bootstrap_resamples < 0:
        raise ValueError(f"bootstrap resample count must be >= 0, got {bootstrap_resamples}")
    tau_fracs = tuple(as_unit_rational(t, "tau") for t in taus)

    aligned, dropped = align_profiles({m: counts[m] for m in selected})
    tasks = [tc.task for tc in aligned[selected[0]]]
    scale = math.lcm(*{tc.n for row in aligned.values() for tc in row})
    scaled = {m: [tc.c * (scale // tc.n) for tc in row] for m, row in aligned.items()}

    notes: list[str] = []
    for model in selected:
        low = [tc for tc in counts[model] if tc.n < LOW_TRIAL_WARNING]
        if low:
            notes.append(
                f"model {model!r}: {len(low)} task(s) with fewer than {LOW_TRIAL_WARNING} trials; "
                f"cover estimates at high thresholds are coarse (granularity 1/n)"
            )
    for model, extra in sorted(dropped.items()):
        notes.append(
            f"model {model!r}: dropped {len(extra)} task(s) outside the shared task set: "
            + ", ".join(extra)
        )

    metrics, cover_curves, dominance = _metric_table(scaled, scale, tau_fracs)
    aggregation = "pooled"
    if group_delimiter:
        aggregation = "per-group-averaged"
        metrics = _metric_table_grouped(scaled, tasks, scale, tau_fracs, group_delimiter)
        notes.append(
            f"metric table averages per task group (split on {group_delimiter!r}); "
            "curves and dominance remain pooled"
        )
    if dominance is None:
        notes.append("avg_auc_plus column absent: needs at least 2 models")

    # (n - c) / n is correctly rounded, as float(1 - Fraction(c, n)) is
    pass_curves = {m: complement_pass_curve(m, [(tc.n - tc.c) / tc.n for tc in row], ks) for m, row in aligned.items()}
    crossovers = [
        find_crossover(pass_curves[a], pass_curves[b]) for i, a in enumerate(selected) for b in selected[i + 1 :]
    ]

    bands = None
    if bootstrap_resamples > 0:
        bands = scaled_bootstrap_bands(
            selected, list(scaled.values()), scale, tau_fracs, resamples=bootstrap_resamples, seed=seed
        )

    metric_names = ["pass@1"] + [f"cov@{format_tau(t)}" for t in tau_fracs]
    if dominance is not None:
        metric_names.append("avg_auc_plus")
    rankings = {metric: rank_models({m: metrics[m][metric] for m in metrics}) for metric in metric_names}

    prov: dict[str, object] = {
        "tool_version": __version__,
        "seed": seed,
        "bootstrap_resamples": bootstrap_resamples,
    }
    if provenance:
        prov.update(provenance)

    return ReportBundle(
        models=tuple(selected),
        taus=tau_fracs,
        k_grid=tuple(ks),
        aggregation=aggregation,
        metric_names=tuple(metric_names),
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


def _rank_marks(bundle: ReportBundle, metric: str) -> dict[str, str]:
    if len(bundle.models) < 2:
        return {}
    marks: dict[str, str] = {}
    for model, _value, rank in bundle.rankings.get(metric, []):
        if rank <= 3:
            marks[model] = f"({rank})"
    return marks


def render_metrics_table(bundle: ReportBundle) -> str:
    """Fixed-width text table, x100 scaling, top-3 markers per column."""
    headers = ["model"] + [f"{m} x100" for m in bundle.metric_names]
    rows: list[list[str]] = []
    for model in bundle.models:
        row = [model]
        for metric in bundle.metric_names:
            value = bundle.metrics[model].get(metric)
            if value is None:
                row.append("-")
                continue
            mark = _rank_marks(bundle, metric).get(model, "")
            row.append(f"{float(value) * 100:.2f}{mark}")
        rows.append(row)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append("")
    lines.append("markers: (1)=best (2)=second (3)=third per column; ties share a rank")
    lines.append(f"aggregation: {bundle.aggregation}")
    if "avg_auc_plus" in bundle.metric_names:
        raw = ", ".join(
            f"{m}={format_exact(bundle.metrics[m]['avg_auc_plus'])}"
            f" ({float(bundle.metrics[m]['avg_auc_plus']):.6f})"
            for m in bundle.models
        )
        lines.append(f"avg_auc_plus raw [0,1]: {raw}")
    for note in bundle.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_dominance_text(bundle: ReportBundle) -> str:
    """Matrix + rankings + crossovers as plain text."""
    if bundle.dominance is None:
        raise ValueError("dominance requires at least 2 models")
    dom = bundle.dominance
    headers = ["auc_plus(A,B)"] + list(dom.models)
    rows = []
    for i, a in enumerate(dom.models):
        rows.append([a] + [f"{float(v):.6f}" for v in dom.auc_plus[i]])
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    lines.append("")
    lines.append("avg_auc_plus (raw / x100):")
    for model, value in zip(dom.models, dom.avg_auc_plus):
        lines.append(f"  {model}: {format_exact(value)} = {float(value):.6f} / {float(value) * 100:.2f}")
    lines.append("")
    lines.append("rankings:")
    for metric in sorted(bundle.rankings):
        ordered = ", ".join(f"{m}({rank})" for m, _v, rank in bundle.rankings[metric])
        lines.append(f"  {metric}: {ordered}")
    lines.append("")
    lines.append("crossovers (pass@k ordering flips on the evaluated grid):")
    if not bundle.crossovers:
        lines.append("  none evaluated")
    for cross in bundle.crossovers:
        a, b = cross.pair
        if cross.crossed:
            lines.append(f"  {a} vs {b}: k*={cross.k_star} ({cross.direction})")
        else:
            lines.append(f"  {a} vs {b}: no crossover")
    return "\n".join(lines) + "\n"


def metrics_csv(bundle: ReportBundle) -> str:
    """Raw-value CSV: one row per (model, metric), exact and float columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "metric", "value", "value_exact"])
    for model in bundle.models:
        for metric in bundle.metric_names:
            value = bundle.metrics[model].get(metric)
            if value is None:
                continue
            exact = format_exact(value) if isinstance(value, Fraction) else ""
            writer.writerow([model, metric, repr(float(value)), exact])
    return buf.getvalue()


def cover_curve_csv(curve: CoverCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "tau_float", "cover", "cover_float"])
    for tau, value in zip(curve.breakpoints, curve.values):
        writer.writerow([format_exact(tau), repr(float(tau)), format_exact(value), repr(float(value))])
    return buf.getvalue()


def pass_curve_csv(curve: PassCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "pass"])
    for k, value in zip(curve.ks, curve.values):
        writer.writerow([k, repr(value)])
    return buf.getvalue()


def _fraction_json(value: Fraction) -> dict[str, object]:
    return {"exact": format_exact(value), "value": float(value)}


def bundle_json(bundle: ReportBundle) -> str:
    """Canonical JSON for the whole bundle (raw [0,1] values)."""
    obj: dict[str, object] = {
        "models": list(bundle.models),
        "taus": [format_exact(t) for t in bundle.taus],
        "k_grid": list(bundle.k_grid),
        "aggregation": bundle.aggregation,
        "metrics": {
            model: {
                metric: (_fraction_json(v) if isinstance(v, Fraction) else v)
                for metric, v in sorted(bundle.metrics[model].items())
            }
            for model in bundle.models
        },
        "rankings": {
            metric: [{"model": m, "value": v, "rank": r} for m, v, r in ranks]
            for metric, ranks in sorted(bundle.rankings.items())
        },
        "cover_curves": {
            model: {
                "breakpoints": [format_exact(b) for b in curve.breakpoints],
                "values": [format_exact(v) for v in curve.values],
                "num_tasks": curve.num_tasks,
            }
            for model, curve in sorted(bundle.cover_curves.items())
        },
        "pass_curves": {
            model: {"ks": list(curve.ks), "values": list(curve.values)}
            for model, curve in sorted(bundle.pass_curves.items())
        },
        "dropped_tasks": {m: list(ts) for m, ts in sorted(bundle.dropped_tasks.items())},
        "notes": list(bundle.notes),
        "provenance": dict(sorted(bundle.provenance.items(), key=lambda kv: kv[0])),
    }
    if bundle.dominance is not None:
        dom = bundle.dominance
        obj["dominance"] = {
            "models": list(dom.models),
            "auc_plus": [[_fraction_json(v) for v in row] for row in dom.auc_plus],
            "avg_auc_plus": {m: _fraction_json(v) for m, v in zip(dom.models, dom.avg_auc_plus)},
        }
        obj["crossovers"] = [
            {
                "pair": list(cross.pair),
                "k_star": cross.k_star,
                "direction": cross.direction,
            }
            for cross in bundle.crossovers
        ]
    if bundle.bootstrap is not None:
        obj["bootstrap"] = {
            model: {metric: list(band) for metric, band in sorted(bands.items())}
            for model, bands in sorted(bundle.bootstrap.items())
        }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)
