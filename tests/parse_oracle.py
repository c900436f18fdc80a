"""Reference parse of a completion log: every line through `json.loads` and
the checked path.

`covertau.ingest.read_log` and `load_run` read a file of either schema in
blocks, and fold a block whose lines all match the layout of its first
line without `json.loads`.  This module keeps the per-line fold they ran
before: each nonblank line is parsed and classified by `_line_kind`, then
read by `_sample_fields` into its key's tally, or by the oracle's own
aggregated fold, `add_aggregated`, into its model's counts.  It keeps each
key's whole set of sample_index values, checks each line's index against
it, and gives each tally the (stop, ahead) pair of that set at the end.  It
is slow but has no shortcut, and the property tests require the readers to
agree with it on every tally and every error message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from covertau.ingest import (
    ParsedLog,
    ParseError,
    SampleTally,
    TaskCounts,
    _line_kind,
    _parse_json_line,
    _require_str,
    _sample_fields,
)

MANIFEST = {"kind": "manifest", "format": "covertau-run-v2", "source_digests": {}, "verdict_source": "aggregated"}


def add_aggregated(counts: dict[str, dict[str, TaskCounts]], obj: dict, lineno: int, source: str) -> None:
    model = _require_str(obj, "model", lineno, source)
    task = _require_str(obj, "task", lineno, source)
    try:  # TaskCounts rejects an n or c that is missing, a bool or not an integer
        tc = TaskCounts(task=task, n=obj.get("n"), c=obj.get("c"))
    except ValueError as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from exc
    per_model = counts.setdefault(model, {})
    if task in per_model:
        raise ParseError(f"{source}:{lineno}: duplicate aggregated line for (model={model!r}, task={task!r})")
    per_model[task] = tc


def parse_records(lines: Iterable[str], source: str = "<stream>") -> ParsedLog:
    tallies: dict[tuple[str, str], SampleTally] = {}
    seen: dict[tuple[str, str], set[int]] = {}  # each key's sample_index values
    counts: dict = {}
    kind = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        obj = _parse_json_line(line, lineno, source)
        kind = _line_kind(obj, kind, lineno, source)
        if kind == "aggregated":
            add_aggregated(counts, obj, lineno, source)
            continue
        model, task, index, correct, answer = _sample_fields(obj, lineno, source)
        tally = tallies.setdefault((model, task), SampleTally())
        indices = seen.setdefault((model, task), set())
        if index in indices:
            raise ParseError(
                f"{source}:{lineno}: duplicate record key (model={model!r}, "
                f"task={task!r}, sample_index={index})"
            )
        indices.add(index)
        if correct is None:
            tally.answers[answer] += 1
            if tally.first_ungraded is None:
                tally.first_ungraded = (lineno, index)
        else:
            tally.n += 1
            tally.c += correct
    if kind is None:
        raise ParseError(f"{source}: no records found")
    if kind == "samples":
        for key, tally in tallies.items():
            tally.stop, tally.ahead = canonical_indices(seen[key])
        return ParsedLog(records=tallies, counts=None, source=source)
    return ParsedLog(records=None, counts={m: [tc for _, tc in sorted(t.items())] for m, t in sorted(counts.items())},
                     source=source)


def canonical_indices(indices: set[int]) -> tuple[int, set[int]]:
    """(stop, ahead) of a set of sample_index values: stop the smallest
    value >= 0 not in it, ahead the values above stop."""
    stop = 0
    while stop in indices:
        stop += 1
    return stop, {i for i in indices if i > stop}


def read_log(path: Path) -> ParsedLog:
    """What `read_log` gives for a file of valid UTF-8: its lines, split at
    "\\n" only, through `parse_records`."""
    return parse_records(path.read_bytes().decode("utf-8").split("\n"), str(path))


def load_run(path: Path, body: str, record_count: int) -> dict[str, list[TaskCounts]]:
    """What `load_run` gives for a run file whose body is `body` and whose
    run_id is right: the body numbered from line 2, then the per-completion
    and record_count checks."""
    source = str(path)
    lines = ["", *body.split("\n")]
    parsed = parse_records(lines, source)
    if parsed.counts is None:
        lineno = next(i for i, line in enumerate(lines, start=1) if line.strip())
        raise ParseError(f"{source}:{lineno}: per-completion line; a run body holds aggregated (n, c) lines")
    if record_count != sum(tc.n for tcs in parsed.counts.values() for tc in tcs):
        raise ParseError(f"{source}:1: field 'record_count' must be what the lines after the manifest imply")
    return parsed.counts


def write_run(path: Path, body: str, record_count: int) -> None:
    """A run file of `body` under a manifest whose run_id is the body's sha256."""
    data = body.encode("utf-8")
    head = dict(MANIFEST, run_id=hashlib.sha256(data).hexdigest(), record_count=record_count)
    path.write_bytes(json.dumps(head).encode() + b"\n" + data)
