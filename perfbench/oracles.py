"""Output checks that do not use covertau code.

Each check reads what covertau wrote and compares it with values worked out
here from the generator's tallies (see `workloads.Workload`), in stdlib
Fractions.  A check returns a list of failure messages; an empty list means
it passed.  The harness counts each failing check against `fail_frac`
instead of stopping.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from workloads import Workload

TAUS = {"cov@0.2": Fraction(1, 5), "cov@0.8": Fraction(4, 5)}
SATURATION_K = 8192


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _exact(entry: dict) -> Fraction:
    return Fraction(entry["exact"])


def shared_tasks(wl: Workload) -> list[str]:
    sets = [set(per_task) for per_task in wl.tallies.values()]
    return sorted(set.intersection(*sets))


def expected_row(per_task: dict[str, tuple[int, int]], tasks: list[str]) -> dict[str, Fraction]:
    """pass@1 and cover at TAUS over `tasks`, from (n, c) tallies."""
    rates = [Fraction(per_task[t][1], per_task[t][0]) for t in tasks]
    row = {"pass@1": sum(rates, Fraction(0)) / len(rates)}
    for name, tau in TAUS.items():
        row[name] = Fraction(sum(1 for r in rates if r >= tau), len(rates))
    return row


def expected_grouped_row(per_task: dict[str, tuple[int, int]], tasks: list[str]) -> dict[str, Fraction]:
    """Per-group rows averaged with equal weight per "/"-prefixed group."""
    groups: dict[str, list[str]] = {}
    for t in tasks:
        groups.setdefault(t.split("/", 1)[0], []).append(t)
    rows = [expected_row(per_task, members) for _, members in sorted(groups.items())]
    return {k: sum((r[k] for r in rows), Fraction(0)) / len(rows) for k in rows[0]}


def check_simulated(path: Path, wl: Workload) -> list[str]:
    """simulate's guesser log: every task has the requested trials, and a
    record is correct exactly when its answer is the gold label "0"."""
    per_task: dict[str, int] = {}
    errors = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            per_task[obj["task"]] = per_task.get(obj["task"], 0) + 1
            if obj["correct"] != (obj["answer"] == "0"):
                errors.append(f"simulated record {obj['task']}/{obj['sample_index']}: verdict disagrees with answer")
                break
    if len(per_task) != wl.sim_tasks or set(per_task.values()) != {wl.sim_trials}:
        errors.append(f"simulated log has {len(per_task)} tasks with trial counts {sorted(set(per_task.values()))}")
    return errors


def check_run_file(path: Path, wl: Workload) -> list[str]:
    """The run file's (model, task, n, c) rows equal the generator's tallies."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = json.loads(lines[0])
    rows: dict[str, dict[str, tuple[int, int]]] = {}
    for line in lines[1:]:
        obj = json.loads(line)
        rows.setdefault(obj["model"], {})[obj["task"]] = (obj["n"], obj["c"])
    errors = []
    if rows != wl.tallies:
        bad = sorted(
            (m, t)
            for m in set(rows) | set(wl.tallies)
            for t in set(rows.get(m, {})) | set(wl.tallies.get(m, {}))
            if rows.get(m, {}).get(t) != wl.tallies.get(m, {}).get(t)
        )
        errors.append(f"{path.name}: {len(bad)} (model, task) rows differ from the generator, first {bad[:3]}")
    total = sum(n for per_task in wl.tallies.values() for n, _ in per_task.values())
    if head.get("record_count") != total:
        errors.append(f"{path.name}: record_count {head.get('record_count')} != generated {total}")
    return errors


def check_metrics(doc: dict, wl: Workload, grouped: bool = False) -> list[str]:
    """Exact pass@1 and cover values in a bundle equal the generator's."""
    tasks = shared_tasks(wl)
    errors = []
    for model, per_task in sorted(wl.tallies.items()):
        want = (expected_grouped_row if grouped else expected_row)(per_task, tasks)
        got = doc["metrics"][model]
        for name, value in want.items():
            if _exact(got[name]) != value:
                errors.append(f"{model} {name}: got {got[name]['exact']}, generator gives {value}")
    return errors


def check_saturation(doc: dict, model: str = "flagged") -> list[str]:
    """The 30-label guesser: cover@0.2 exactly 0 while pass@8192 saturates."""
    errors = []
    cov = _exact(doc["metrics"][model]["cov@0.2"])
    if cov != 0:
        errors.append(f"{model}: cov@0.2 = {cov}, expected exactly 0")
    curve = doc["pass_curves"][model]
    value = dict(zip(curve["ks"], curve["values"])).get(SATURATION_K)
    if value is None or not value > 1 - 1e-6:
        errors.append(f"{model}: pass@{SATURATION_K} = {value}, expected > 1 - 1e-6")
    return errors


def check_auc_identity(doc: dict, wl: Workload) -> list[str]:
    """auc+(A,B) - auc+(B,A) = pass@1(A) - pass@1(B) for every pair, exactly."""
    dom = doc["dominance"]
    models = dom["models"]
    tasks = shared_tasks(wl)
    p1 = {m: expected_row(wl.tallies[m], tasks)["pass@1"] for m in models}
    matrix = [[_exact(e) for e in row] for row in dom["auc_plus"]]
    errors = []
    for i, a in enumerate(models):
        for j, b in enumerate(models):
            if i < j and matrix[i][j] - matrix[j][i] != p1[a] - p1[b]:
                errors.append(f"auc+ identity fails for ({a}, {b})")
    return errors


def check_svgs(out: Path) -> list[str]:
    errors = []
    svgs = sorted(out.rglob("*.svg"))
    if not svgs:
        errors.append(f"no SVG files under {out.name}")
    for svg in svgs:
        try:
            ET.parse(svg)
        except ET.ParseError as exc:
            errors.append(f"{svg.name}: not well-formed XML ({exc})")
    return errors


def check_dropped(doc: dict, wl: Workload) -> list[str]:
    """Each model drops exactly the tasks it has that another model omitted."""
    omitted_anywhere = set().union(*wl.omitted.values())
    want = {m: sorted(omitted_anywhere - wl.omitted[m]) for m in wl.tallies}
    want = {m: ts for m, ts in want.items() if ts}
    got = doc["dropped_tasks"]
    if got != want:
        return [f"dropped tasks differ for models {sorted(m for m in set(got) | set(want) if got.get(m) != want.get(m))}"]
    return []


def check_bands(doc: dict) -> list[str]:
    errors = []
    for model, bands in sorted(doc["bootstrap"].items()):
        for metric, (lo, hi) in sorted(bands.items()):
            if not 0 <= lo <= hi <= 1:
                errors.append(f"{model} {metric}: band ({lo}, {hi}) not ordered inside [0, 1]")
    return errors


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def checks_for(wl: Workload, out: Path) -> dict[str, Callable[[], list[str]]]:
    """Every oracle for one pass of `wl` whose outputs are under `out`."""
    if wl.name == "graded-log":
        bundle = partial(_load, out / "compute" / "bundle.json")
        return {
            "simulate_log": lambda: check_simulated(out / "simulated.jsonl", wl),
            "run_file": lambda: check_run_file(out / "run.jsonl", wl),
            "metrics": lambda: check_metrics(bundle(), wl),
            "saturation": lambda: check_saturation(bundle()),
        }
    if wl.name == "model-matrix":
        dom = partial(_load, out / "dominance" / "dominance.json")
        return {
            "run_file": lambda: check_run_file(out / "run.jsonl", wl),
            "metrics": lambda: check_metrics(dom(), wl),
            "auc_identity": lambda: check_auc_identity(dom(), wl),
            "svg": lambda: check_svgs(out / "curves"),
        }
    bundle = partial(_load, out / "compute" / "bundle.json")
    return {
        "dropped": lambda: check_dropped(bundle(), wl),
        "group_metrics": lambda: check_metrics(bundle(), wl, grouped=True),
        "bands": lambda: check_bands(bundle()),
    }
