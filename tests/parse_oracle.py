"""Reference parse of a completion log: every line through `json.loads` and
the checked path.

This is the per-line fold that `covertau.ingest.parse_records` ran before it
read repeated per-completion lines from trusted templates, and that
`read_log` and `load_run` ran before they read aggregated lines in blocks.
Each nonblank line is parsed, classified by `_line_kind` and read by
`_sample_fields` (or `_add_aggregated`), then folded into its key's tally.
It is slow but has no shortcut, and the property tests require all three
readers to agree with it on every tally and every error message.
"""

from __future__ import annotations

from typing import Iterable

from covertau.ingest import (
    ParsedLog,
    ParseError,
    SampleTally,
    _add_aggregated,
    _line_kind,
    _parse_json_line,
    _sample_fields,
    _sorted_counts,
)


def parse_records(lines: Iterable[str], source: str = "<stream>") -> ParsedLog:
    tallies: dict[tuple[str, str], SampleTally] = {}
    counts: dict = {}
    kind = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        obj = _parse_json_line(line, lineno, source)
        kind = _line_kind(obj, kind, lineno, source)
        if kind == "aggregated":
            _add_aggregated(counts, obj, lineno, source)
            continue
        model, task, index, correct, answer = _sample_fields(obj, lineno, source)
        tally = tallies.setdefault((model, task), SampleTally())
        if index in tally.seen:
            raise ParseError(
                f"{source}:{lineno}: duplicate record key (model={model!r}, "
                f"task={task!r}, sample_index={index})"
            )
        tally.seen.add(index)
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
        return ParsedLog(records=tallies, counts=None, source=source)
    return ParsedLog(records=None, counts=_sorted_counts(counts), source=source)
