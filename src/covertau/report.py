"""Report assembly: metric tables, curve tables, dominance serialization.

Human-facing tables print metrics x100 with two decimals (cover/pass) and
mark the top three per column; machine-readable outputs (JSON, CSV) keep
raw [0, 1] values, with exact rationals rendered as "num/den" strings.

`build_report` scales each task's c/n by L, the lcm of the aligned trial
counts, straight from the counts, and places every task once on a
`TaskTally`.  It counts all task columns once and reads the pooled table,
the cover curves and the auc+ matrix off that count; a grouped report
adds one count per task group, and the bootstrap one per resample.  Every
table row comes from `TaskTally.table`, with one threshold rule: p >= tau
is scaled p >= ceil(tau * L).  A pooled table is the table of one group
holding every task.  Pass curves read (n - c) / n, and a Fraction is
formed only for a value that is written out.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import __version__
from .curves import CoverCurve, PassCurve, complement_pass_curve
from .curves import build_cover_curve, pass_curve  # noqa: F401  (perfbench/spans.py wraps them)
from .dominance import (CrossoverResult, DominanceReport, TaskTally, _dominance, find_crossover, rank_models,
                        scaled_bootstrap_bands)
from .dominance import avg_auc_plus, bootstrap_bands, dominance_report  # noqa: F401  (perfbench/spans.py wraps them)
from .metrics import cover_at_tau, estimate_success  # noqa: F401  (perfbench/spans.py wraps them)
from .records import RationalLike, TaskCounts, as_unit_rational
from .records import format_tau  # re-exported: callers import it from covertau.report

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
    metrics: dict[str, dict[str, Fraction]]
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
    if group_delimiter == "":
        raise ValueError("group delimiter must be a nonempty string, got ''")
    tau_fracs = tuple(as_unit_rational(t, "tau") for t in taus)
    for i, tau in enumerate(tau_fracs):
        if tau in tau_fracs[:i]:
            raise ValueError(f"threshold {format_tau(tau)} is given more than once")

    aligned, dropped = align_profiles({m: counts[m] for m in selected})
    tasks = [tc.task for tc in aligned[selected[0]]]
    scale = math.lcm(*{tc.n for row in aligned.values() for tc in row})
    scaled = [[tc.c * (scale // tc.n) for tc in row] for row in aligned.values()]

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

    tally = TaskTally(selected, scaled, scale, tau_fracs)
    pooled = tally.count(range(len(tasks)))
    aggregation, counts_per_group = "pooled", [pooled]
    if group_delimiter is not None:
        members: dict[str, list[int]] = {}
        for t, task in enumerate(tasks):
            members.setdefault(task.split(group_delimiter, 1)[0], []).append(t)
        aggregation = "per-group-averaged"
        counts_per_group = [tally.count(cols) for _, cols in sorted(members.items())]
        notes.append(
            f"metric table averages per task group (split on {group_delimiter!r}); "
            "curves and dominance remain pooled"
        )
    # the published table is the mean of the group tables; pooled is one group
    tables = [tally.table(count) for count in counts_per_group]
    metrics = {
        model: {
            name: sum((Fraction(table[name][0][i], table[name][1]) for table in tables), Fraction(0)) / len(tables)
            for name in tally.metric_names
        }
        for i, model in enumerate(selected)
    }
    cover_curves = {model: tally.cover_curve(i, pooled) for i, model in enumerate(selected)}
    dominance = None
    if len(selected) >= 2:
        dominance = _dominance(selected, pooled[2], len(tasks) * scale)
    else:
        notes.append("avg_auc_plus column absent: needs at least 2 models")

    # (n - c) / n is correctly rounded, as float(1 - Fraction(c, n)) is
    pass_curves = {m: complement_pass_curve(m, [(tc.n - tc.c) / tc.n for tc in row], ks) for m, row in aligned.items()}
    crossovers = [
        find_crossover(pass_curves[a], pass_curves[b]) for i, a in enumerate(selected) for b in selected[i + 1 :]
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
        models=tuple(selected),
        taus=tau_fracs,
        k_grid=tuple(ks),
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
    if not bundle.crossovers:
        lines.append("  none evaluated")
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
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)
