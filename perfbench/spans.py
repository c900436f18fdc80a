"""Layer spans recorded from outside the covertau package.

`Tracer.installed()` replaces each public function in WRAPS at the module
attribute its callers look it up through, and puts the originals back on
exit.  Each wrapper records a span (name, start, end, parent, run id) in
memory and, where WRAPS names a counter, reads a count from the call's
arguments and return value.  Nothing inside covertau changes, so a traced
run must write byte-identical outputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


def _records(args, kwargs, result):
    if result.records is not None:
        return {"ingest.records": len(result.records)}
    return {"ingest.records": sum(len(tcs) for tcs in result.counts.values())}


def _graded(args, kwargs, result):
    return {"ingest.graded": sum(1 for rec in args[0] if rec.correct is None)}


def _resamples(args, kwargs, result):
    return {"dominance.resamples": kwargs["resamples"]}


def _breakpoints(args, kwargs, result):
    return {"curves.breakpoints": len(result.breakpoints)}


def _dropped(args, kwargs, result):
    return {"report.tasks_dropped": sum(len(ts) for ts in result[1].values())}


# (module, attribute path looked up by the caller, span name, counter)
WRAPS = (
    ("covertau.cli", "simulate_guesser", "synth.simulate_guesser", None),
    ("covertau.cli", "records_to_jsonl", "synth.records_to_jsonl", None),
    ("covertau.cli", "is_run_file", "ingest.is_run_file", None),
    ("covertau.cli", "read_log", "ingest.read_log", _records),
    ("covertau.cli", "parse_gold", "ingest.parse_gold", None),
    ("covertau.cli", "counts_from_log", "ingest.counts_from_log", None),
    ("covertau.ingest", "apply_grading", "ingest.apply_grading", _graded),
    ("covertau.ingest", "aggregate", "metrics.aggregate", None),
    ("covertau.cli", "digest_file", "ingest.digest_file", None),
    ("covertau.cli", "build_manifest", "ingest.build_manifest", None),
    ("covertau.cli", "persist_run", "ingest.persist_run", None),
    ("covertau.cli", "load_run", "ingest.load_run", None),
    ("covertau.cli", "build_report", "report.build_report", None),
    ("covertau.report", "estimate_success", "metrics.estimate_success", None),
    ("covertau.report", "align_profiles", "report.align_profiles", _dropped),
    ("covertau.report", "cover_at_tau", "metrics.cover_at_tau", None),
    ("covertau.report", "build_cover_curve", "curves.build_cover_curve", _breakpoints),
    ("covertau.report", "pass_curve", "curves.pass_curve", None),
    ("covertau.report", "avg_auc_plus", "dominance.avg_auc_plus", None),
    ("covertau.report", "dominance_report", "dominance.dominance_report", None),
    ("covertau.report", "find_crossover", "dominance.find_crossover", None),
    ("covertau.report", "bootstrap_bands", "dominance.bootstrap_bands", _resamples),
    ("covertau.dominance", "avg_auc_plus", "dominance.avg_auc_plus", None),
    ("covertau.dominance", "auc_plus_cover", "dominance.auc_plus_cover", None),
    ("covertau.cli", "bundle_json", "report.bundle_json", None),
    ("covertau.cli", "render_metrics_table", "report.render", None),
    ("covertau.cli", "render_dominance_text", "report.render", None),
    ("covertau.cli", "metrics_csv", "report.render", None),
    ("covertau.cli", "cover_curve_csv", "report.render", None),
    ("covertau.cli", "pass_curve_csv", "report.render", None),
    ("covertau.cli", "cover_curves_svg", "plots.svg", None),
    ("covertau.cli", "pass_curves_svg", "plots.svg", None),
    ("covertau.cli", "write_atomic", "io.write_atomic", None),
    ("covertau.ingest", "write_atomic", "io.write_atomic", None),
    ("covertau.cli", "build_parser", "cli.build_parser", None),
    ("argparse", "ArgumentParser.parse_args", "cli.parse_args", None),
)


def resolve(module: str, path: str) -> tuple[object, str]:
    """The object holding `path`'s last attribute, and that attribute's name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[self.run_id][key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every WRAPS entry for the duration of the block."""
        saved = []
        try:
            for module, path, name, counter in WRAPS:
                owner, attr = resolve(module, path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, run_ids: set[str]) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.run_id not in run_ids:
                continue
            out[s.name] += s.duration
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.duration
        return dict(out)

    def calls(self, run_ids: set[str]) -> dict[str, int]:
        """Per span name: number of calls."""
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.run_id in run_ids:
                out[s.name] += 1
        return dict(out)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "run_id": s.run_id}, sort_keys=True) + "\n"
            for i, s in enumerate(self.spans)
        )
