"""Completion-log parsing, answer grading, record tallies, and run persistence.

File formats (all JSON Lines, UTF-8, "\n" line endings):

  per-completion log   {"model": str, "task": str, "sample_index": int,
                        "correct": bool?, "answer": str?}
  aggregated log       {"model": str, "task": str, "n": int, "c": int}
  gold answers         {"task": str, "answer": str}
  persisted run        manifest object on line 1 ({"kind": "manifest", ...}),
                       then an aggregated log

A file holds either per-completion lines or aggregated lines, never both.
Persisted runs are canonical JSON (sorted keys, no spaces), so re-saving
unchanged data is byte-identical.  A run stores its counts once, in its
body; the manifest adds provenance, the body's sha256 and its record_count.
Saving refuses what loading could not give back equal (`_implied_manifest`).
The body is rendered, hashed and written one model at a time:
`build_manifest` hashes each model's chunk as it is rendered, and
`persist_run` writes the manifest line and then each chunk, and checks the
run_id after the last chunk.  So neither holds more than one model's lines,
and `load_run` reads and hashes the body block by block, as `read_log` does.

A per-completion log is folded line by line into one `SampleTally` per
(model, task): flagged lines add to its n and c at once, and unflagged lines
add their answer text to a counter.  The key's sample_index values read so
far are one counter, `stop`, below which every index was read, plus the set
`ahead` of those read above it; an index is held in `ahead` until `stop`
reaches it.  So memory grows with keys, distinct answers and indices read
out of order, and a log whose indices run 0, 1, 2, ... per key keeps no
per-line state.  `counts_from_log` grades each distinct answer once per
gold text.  `apply_grading` and `aggregate` do the same job record by
record for in-memory `SampleRecord` lists, and `cons_at_n` scores such a
list's modal answers with the same `canonical_answer` and `grade`.

`read_log` and `load_run` read a file, of either schema, in blocks of about
`_BLOCK` bytes, each cut after a "\n".  A block's first line gives its
layout: the order of its keys and its separators (":" or ": ", "," or
", ").  Each schema's key sets give one anchored pattern per layout, whose
values are strings without quotes or control characters (nonempty but for
an answer), true or false, and integers of at most 18 digits without a
leading zero; a value that holds a backslash is then decoded as JSON string
text.  A block goes line by line through `json.loads` if a line does not
match (a blank line, another layout, an escaped key, an escaped quote in a
value), if a value does not decode, if a decoded model or task is refused
by `records.check_name`, or if it is not UTF-8.  Both paths fold their rows
with the same two functions, which make the checks no pattern can (a
repeated sample_index within a key, n >= 1, c <= n and a repeated task) and
name the line of each error.  Aggregated rows fold into one `TaskColumns`
per model: interned task names, shared by every model's row for a task, and
n and c in `array('q')`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
from array import array
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps does to a str
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from .files import write_atomic
from .records import GoldAnswer, SampleRecord, TaskColumns, TaskCounts, Value, check_name, count_columns

FORMAT_NAME = "covertau-run-v2"
_MANIFEST_KEYS = frozenset({"kind", "format", "run_id", "source_digests", "record_count", "verdict_source"})

# optional sign, ASCII digits with optional fraction part (or bare ".5"),
# optional exponent; no fraction bars, no thousands separators, no other
# script's digits
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# an integer literal: sign, then ASCII digits after any leading zeros
_INTEGER_RE = re.compile(r"([+-]?)0*([0-9]+)")
_WS_RE = re.compile(r"\s+")
_DIGEST_CHUNK = 1 << 20
# a name (nonempty; no quote or control character, and decoded by `_unescape`
# if it holds a backslash) and an integer, as the layout patterns read them,
# and each key's value captured; an answer may be empty
_TEXT = r'[^"\x00-\x1f]'
_INT = r"0|[1-9][0-9]{0,17}"
_FIELDS = {"model": f'"({_TEXT}+)"', "task": f'"({_TEXT}+)"', "sample_index": f"({_INT})",
           "correct": "(true|false)", "answer": f'"({_TEXT}*)"', "n": f"({_INT})", "c": f"({_INT})"}
# the fields of a row, in the order the folds take them
_SAMPLE_KEYS = ("model", "task", "sample_index", "correct", "answer")
_AGG_KEYS = ("model", "task", "n", "c")
_VERDICT = {None: "", False: "false", True: "true"}  # a correct flag as a layout pattern reads it
_VALUE = f'(?:"{_TEXT}*"|{_INT}|true|false)'
# the order of a line's four or five keys and its separators: ": " or ":", ", " or ","
_LAYOUT_RE = re.compile(
    rf'\{{"(\w+)"(: ?){_VALUE}(, ?)"(\w+)"\2{_VALUE}\3"(\w+)"\2{_VALUE}\3"(\w+)"\2{_VALUE}'
    rf'(?:\3"(\w+)"\2{_VALUE})?\}}'
)
_BLOCK = 1 << 16  # bytes of a file folded per findall


class ParseError(ValueError):
    """Malformed log content, annotated with the offending line number."""


class SampleTally(Value):
    """Running tally of one (model, task) key of a per-completion log; its
    fields are assigned as lines are folded, so it has no hash.

    stop: the smallest sample_index not read yet: every index below it was read
    ahead: sample_index values read above stop
    n: lines with a correct flag; c: of those, flagged correct
    answers: answer text of unflagged lines
    first_ungraded: (line, sample_index) of the first unflagged line
    """

    __slots__ = ("stop", "ahead", "n", "c", "answers", "first_ungraded")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, stop: int = 0, ahead: set[int] | None = None, n: int = 0, c: int = 0,
                 answers: Counter[str] | None = None, first_ungraded: tuple[int, int] | None = None) -> None:
        self._assign(stop, set() if ahead is None else ahead, n, c, Counter() if answers is None else answers,
                     first_ungraded)


class ParsedLog(Value, compare=3):
    """Result of parsing one log file: exactly one of the two forms.

    `records` maps (model, task) to its `SampleTally` for a per-completion
    log; `counts` holds per-model counts for an aggregated one.  `source`
    names the file in grading errors; `digest` is `read_log`'s file sha256,
    of the bytes, not of what they parse to, so equality ignores it.
    """

    __slots__ = ("records", "counts", "source", "digest")

    def __init__(self, records: dict[tuple[str, str], SampleTally] | None,
                 counts: dict[str, Sequence[TaskCounts]] | None, source: str = "<stream>",
                 digest: str | None = None) -> None:
        self._assign(records, counts, source, digest)

    @property
    def kind(self) -> str:
        return "samples" if self.records is not None else "aggregated"


class RunManifest(Value):
    """Header block of a persisted run."""

    __slots__ = ("run_id", "source_digests", "record_count", "verdict_source")

    def __init__(self, run_id: str, source_digests: dict[str, str], record_count: int, verdict_source: str) -> None:
        self._assign(run_id, source_digests, record_count, verdict_source)

    def to_json_obj(self) -> dict:
        return {"kind": "manifest", "format": FORMAT_NAME, "run_id": self.run_id,
                "source_digests": dict(sorted(self.source_digests.items())), "record_count": self.record_count,
                "verdict_source": self.verdict_source}


def parse_records(lines: Iterable[str], source: str = "<stream>") -> ParsedLog:
    """Parse a line-delimited completion log.

    Accepts either the per-completion schema or the aggregated schema;
    mixing the two in one file is rejected.  Blank lines are ignored.
    Per-completion lines are folded into per-(model, task) tallies as they
    are read; a repeated sample_index within a key is rejected on its line.
    Every failure names the 1-based line number.
    """
    tallies: dict[tuple[str, str], SampleTally] = {}
    counts: dict[str, list] = {}
    return _parsed(_fold_lines(tallies, counts, lines, 1, None, source), tallies, counts, source)


def _fold_lines(tallies: dict[tuple[str, str], SampleTally], counts: dict[str, list],
                lines: Iterable[str], lineno: int, kind: str | None, source: str) -> str | None:
    """Fold `lines`, the first being line `lineno` of `source` and `kind`
    the schema of the lines before them, each through `json.loads` and its
    schema's field checks into its schema's fold; the schema after them."""
    for lineno, raw in enumerate(lines, start=lineno):
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError):
            # JSON whitespace is a subset of str.strip's: blank lines and
            # bad JSON both land here, and bad JSON is reported as before
            line = raw.strip()
            if not line:
                continue
            obj = _parse_json_line(line, lineno, source)
        kind = _line_kind(obj, kind, lineno, source)
        if kind == "samples":
            model, task, index, correct, answer = _sample_fields(obj, lineno, source)
            _fold_samples(tallies, [(model, task, index, _VERDICT[correct], answer)], tuple, lineno, source)
        else:
            _fold_rows(counts, [_aggregated_fields(obj, lineno, source)], tuple, lineno, source)
    return kind


def _parsed(kind: str | None, tallies: dict[tuple[str, str], SampleTally],
            counts: dict[str, list], source: str, digest: str | None = None) -> ParsedLog:
    """The ParsedLog of a file of schema `kind` folded into `tallies` or `counts`."""
    if kind is None:
        raise ParseError(f"{source}: no records found")
    if kind == "samples":
        return ParsedLog(records=tallies, counts=None, source=source, digest=digest)
    return ParsedLog(records=None, counts=_views(counts), source=source, digest=digest)


def _views(per_model: dict[str, list]) -> dict[str, TaskColumns]:
    """`_fold_rows`' columns, taken out of `per_model` one model at a time, as
    a TaskColumns per model, models sorted; out-of-order rows sorted by task.
    No column is checked again: the fold has checked each row, and seen the
    tasks ascend or kept them unique."""
    return {model: TaskColumns._make(*columns) if seen is None else TaskColumns._take(*columns)
            for model in sorted(per_model) for *columns, seen in [per_model.pop(model)]}


def _parse_json_line(line: str, lineno: int, source: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{lineno}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise ParseError(f"{source}:{lineno}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"{source}:{lineno}: invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{source}:{lineno}: expected an object, got {type(obj).__name__}")
    return obj


def _line_kind(obj: object, kind: str | None, lineno: int, source: str) -> str:
    """The schema of one line ("samples" or "aggregated"), which must match
    the `kind` of the lines before it, if any."""
    if not isinstance(obj, dict):
        raise ParseError(f"{source}:{lineno}: expected an object, got {type(obj).__name__}")
    if obj.get("kind") == "manifest":
        raise ParseError(
            f"{source}:{lineno}: found a run manifest; load this file with load_run()"
        )
    has_agg = "n" in obj or "c" in obj
    has_sample = "sample_index" in obj
    if has_agg and has_sample:
        raise ParseError(f"{source}:{lineno}: line mixes per-completion and aggregated fields")
    if not has_agg and not has_sample:
        raise ParseError(f"{source}:{lineno}: line is neither per-completion (sample_index) nor aggregated (n, c)")
    line_kind = "aggregated" if has_agg else "samples"
    if kind is not None and kind != line_kind:
        raise ParseError(
            f"{source}:{lineno}: mixed schemas in one file "
            f"(saw {kind} lines before, this line is {line_kind})"
        )
    return line_kind


def _require_str(obj: dict, key: str, lineno: int, source: str) -> str:
    try:
        return check_name(obj.get(key), f"field {key!r}")
    except ValueError as exc:
        raise ParseError(f"{source}:{lineno}: {exc}") from None


def _require_int(obj: dict, key: str, lineno: int, source: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{source}:{lineno}: field {key!r} must be an integer")
    return value


def _sample_fields(
    obj: dict, lineno: int, source: str
) -> tuple[str, str, int, bool | None, str | None]:
    """(model, task, sample_index, correct, answer) of a per-completion line."""
    model = _require_str(obj, "model", lineno, source)
    task = _require_str(obj, "task", lineno, source)
    index = _require_int(obj, "sample_index", lineno, source)
    if index < 0:
        raise ParseError(f"{source}:{lineno}: sample_index must be >= 0, got {index}")
    correct = obj.get("correct")
    if correct is not None and not isinstance(correct, bool):
        raise ParseError(f"{source}:{lineno}: field 'correct' must be a boolean when present")
    answer = obj.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise ParseError(f"{source}:{lineno}: field 'answer' must be a string when present")
    if correct is None and answer is None:
        raise ParseError(
            f"{source}:{lineno}: record has neither a 'correct' verdict nor an 'answer' to grade"
        )
    return model, task, index, correct, answer


def _aggregated_fields(obj: dict, lineno: int, source: str) -> tuple[str, str, int, int]:
    """(model, task, n, c) of an aggregated line."""
    model = _require_str(obj, "model", lineno, source)
    task = _require_str(obj, "task", lineno, source)
    for key in ("n", "c"):
        if type(obj.get(key)) is not int:  # the fold's int() would take True and 2.0
            raise ParseError(f"{source}:{lineno}: {key} must be an integer for task {task!r}, got {obj.get(key)!r}")
    return model, task, obj["n"], obj["c"]


def parse_gold(lines: Iterable[str], source: str = "<gold>") -> dict[str, str]:
    """Parse a gold-answer file into {task: answer}."""
    gold: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        obj = _parse_json_line(line, lineno, source)
        task, answer = _require_str(obj, "task", lineno, source), obj.get("answer")
        if not (isinstance(answer, str) and answer):  # an answer is graded, not written: not a name
            raise ParseError(f"{source}:{lineno}: field 'answer' must be a nonempty string")
        try:  # GoldAnswer rejects an answer of whitespace only
            entry = GoldAnswer(task=task, answer=answer)
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from exc
        if entry.task in gold:
            raise ParseError(f"{source}:{lineno}: duplicate gold answer for task {entry.task!r}")
        gold[entry.task] = entry.answer
    if not gold:
        raise ParseError(f"{source}: no gold answers found")
    return gold


def normalize_answer(text: str) -> str:
    """Trim, casefold, and collapse internal whitespace."""
    return _WS_RE.sub(" ", text.strip()).casefold()


def parse_number(text: str) -> float | None:
    """Parse under the documented number grammar, else None.

    Grammar: optional sign, ASCII decimal digits, optional fraction part,
    optional exponent.  No fraction bars ("1/3"), no thousands separators
    and no digits of other scripts ("\u0663"); those compare as plain text.
    """
    if _NUMBER_RE.fullmatch(text):
        return float(text)
    return None


def canonical_answer(text: str) -> str:
    """Normalization used for mode counting: numeric strings collapse to a
    canonical float rendering so "0.5" and ".5" pool into one answer."""
    norm = normalize_answer(text)
    num = parse_number(norm)
    return repr(num) if num is not None else norm


def _integer_literal(text: str) -> tuple[bool, str] | None:
    """(negative, digits without leading zeros) of an integer literal, -0
    being 0, or None for any other text."""
    m = _INTEGER_RE.fullmatch(text)
    return None if m is None else (m[1] == "-" and m[2] != "0", m[2])


def grade(answer: str, gold: str) -> bool:
    """Normalized equality of an answer against gold.

    Both sides are trimmed, casefolded, and whitespace-collapsed.  Two
    integer literals (sign and ASCII digits, no fraction part, no exponent)
    are equal only if their digits are, after leading zeros, with -0 equal
    to 0; no float or int is built from them.  Other pairs that both parse
    under the number grammar compare numerically with relative tolerance
    1e-9 (absolute 1e-12 near zero).  Empty gold is rejected; an empty
    answer is simply wrong.
    """
    gold_norm = normalize_answer(gold)
    if not gold_norm:
        raise ValueError("gold answer is empty")
    answer_norm = normalize_answer(answer)
    if not answer_norm:
        return False
    a_int, g_int = _integer_literal(answer_norm), _integer_literal(gold_norm)
    if a_int is not None and g_int is not None:
        return a_int == g_int
    a_num = parse_number(answer_norm)
    g_num = parse_number(gold_norm)
    if a_num is not None and g_num is not None:
        return math.isclose(a_num, g_num, rel_tol=1e-9, abs_tol=1e-12)
    return answer_norm == gold_norm


def apply_grading(
    records: Sequence[SampleRecord], gold: Mapping[str, str] | None
) -> tuple[list[SampleRecord], str]:
    """Resolve verdicts: explicit correct flags win, grading fills the gaps.

    Returns the resolved records plus the verdict source actually used
    ("flags", "flags+gold").  A record without a flag needs both its answer
    and a gold entry, otherwise it is rejected by name.
    """
    resolved: list[SampleRecord] = []
    used_gold = False
    for rec in records:
        if rec.correct is not None:
            resolved.append(rec)
            continue
        if gold is None or rec.task not in gold:
            raise ValueError(
                f"record (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index}) "
                "has no verdict and no gold answer to grade against"
            )
        if rec.answer is None:
            raise ValueError(
                f"record (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index}) "
                "has no verdict and no answer text"
            )
        used_gold = True
        verdict = grade(rec.answer, gold[rec.task])
        resolved.append(SampleRecord(rec.model, rec.task, rec.sample_index, rec.answer, verdict))
    return resolved, ("flags+gold" if used_gold else "flags")


def aggregate(records: Sequence[SampleRecord]) -> dict[str, list[TaskCounts]]:
    """Tally records into per-model, per-task (n, c) counts.

    Rejects empty input, duplicate (model, task, sample_index) keys, and
    records whose verdict is still unresolved (correct is None); grading
    happens upstream, in `apply_grading`.
    """
    if not records:
        raise ValueError("no records to aggregate")
    seen: set[tuple[str, str, int]] = set()
    totals: dict[str, dict[str, list[int]]] = {}
    for rec in records:
        if rec.key in seen:
            raise ValueError(f"duplicate record key (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index})")
        seen.add(rec.key)
        if rec.correct is None:
            raise ValueError(f"record (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index}) has no verdict")
        tally = totals.setdefault(rec.model, {}).setdefault(rec.task, [0, 0])
        tally[0] += 1
        tally[1] += int(rec.correct)
    return {
        model: [TaskCounts(task=t, n=nc[0], c=nc[1]) for t, nc in sorted(tasks.items())]
        for model, tasks in sorted(totals.items())
    }


def cons_at_n(records: Sequence[SampleRecord], gold: Mapping[str, str]) -> Fraction:
    """cons@n: fraction of tasks whose modal answer equals the gold answer.

    The mode is taken over canonicalized answer texts; a tie for the mode
    counts as unsolved.  Records must belong to a single model and every
    record must carry an answer; gold must cover every task present.
    """
    if not records:
        raise ValueError("no records")
    models = {rec.model for rec in records}
    if len(models) > 1:
        raise ValueError(f"records span multiple models {sorted(models)}; score one model at a time")

    by_task: dict[str, list[str]] = {}
    for rec in records:
        if rec.answer is None:
            raise ValueError(f"record (model={rec.model!r}, task={rec.task!r}, sample_index={rec.sample_index}) has no answer text")
        by_task.setdefault(rec.task, []).append(rec.answer)

    solved = 0
    for task, answers in sorted(by_task.items()):
        if task not in gold:
            raise ValueError(f"no gold answer for task {task!r}")
        tally = Counter(canonical_answer(a) for a in answers)
        best = max(tally.values())
        modes = [a for a, cnt in tally.items() if cnt == best]
        if len(modes) == 1 and grade(modes[0], gold[task]):
            solved += 1
    return Fraction(solved, len(by_task))


def counts_from_log(
    parsed: ParsedLog, gold: Mapping[str, str] | None = None
) -> tuple[dict[str, TaskColumns], str]:
    """Per-model counts of a parsed log plus the verdict source.

    Explicit flags win; unflagged answers are graded against gold, each
    distinct answer once per gold text, and the verdict is weighted by the
    answer's count.  Gives what `aggregate(apply_grading(records, gold)[0])`
    gives for the log's records, and rejects a key with unflagged lines but
    no gold answer at its first such line.
    """
    if parsed.counts is not None:
        return parsed.counts, "aggregated"
    tallies = parsed.records or {}
    graded: dict[tuple[str, str], int] = {}  # key -> correct unflagged lines
    grade_once = functools.cache(grade)
    # keys in the order of their first unflagged line, so the first
    # ungradable line in the file is the one reported
    ungraded = sorted((t.first_ungraded, key) for key, t in tallies.items() if t.first_ungraded)
    for (lineno, index), key in ungraded:
        model, task = key
        if gold is None or task not in gold:
            raise ValueError(
                f"{parsed.source}:{lineno}: record (model={model!r}, task={task!r}, "
                f"sample_index={index}) has no verdict and no gold answer to grade against"
            )
        graded[key] = sum(count * grade_once(answer, gold[task]) for answer, count in tallies[key].answers.items())
    per_model: dict[str, list] = {}
    rows = [(model, task, tally.n + sum(tally.answers.values()), tally.c + graded.get((model, task), 0))
            for (model, task), tally in sorted(tallies.items())]
    _fold_rows(per_model, rows, tuple, 1, parsed.source)
    return _views(per_model), ("flags+gold" if graded else "flags")


def build_manifest(
    counts: Mapping[str, Sequence[TaskCounts]],
    source_digests: Mapping[str, str],
    verdict_source: str,
) -> RunManifest:
    """Manifest for aggregated counts; run_id is the sha256 of the canonical
    body, hashed one model's chunk at a time as `_body_chunks` yields it, so
    identical data yields an identical manifest."""
    digest = hashlib.sha256()
    for chunk in _body_chunks(counts):
        digest.update(chunk.encode("utf-8"))
    return _implied_manifest(counts, digest.hexdigest(), source_digests, verdict_source)


def _implied_manifest(
    counts: Mapping[str, Sequence[TaskCounts]], run_id: str, source_digests: Mapping[str, str], verdict_source: str
) -> RunManifest:
    """The manifest that `counts`, whose body hashes to `run_id`, imply: the
    one derivation of record_count.  It refuses, naming the model or field,
    what `load_run` could not give back equal: counts that `count_columns`
    refuses, or provenance that `_provenance_fault` finds at fault."""
    record_count = sum(sum(view.n) for _, view in count_columns(counts))
    if fault := _provenance_fault(source_digests, verdict_source):
        raise ValueError(fault)
    return RunManifest(run_id, dict(source_digests), record_count, verdict_source)


def _provenance_fault(source_digests: object, verdict_source: object) -> str | None:
    """The first fault of a run's provenance fields, in the order `load_run`
    checks them, or None: one rule for writing a run and for reading it."""
    if not (isinstance(source_digests, Mapping)
            and all(isinstance(name, str) and isinstance(d, str) for name, d in source_digests.items())):
        return "field 'source_digests' must be a map of file names to digests"
    try:
        check_name(verdict_source, "field 'verdict_source'")
        for name in (*source_digests, *source_digests.values()):
            check_name(name, "file name or digest in field 'source_digests'")
    except ValueError as exc:
        return str(exc)
    return None


def _body_chunks(counts: Mapping[str, Sequence[TaskCounts]]) -> Iterator[str]:
    """The canonical body, one chunk per model of `count_columns`, in sorted
    order: its aggregated lines sorted by task.  A model's lines share one
    prebuilt prefix, so only c, n and the task vary, and a name is escaped as
    `json.dumps` escapes it."""
    for model, view in count_columns(counts):
        head = f',"model":{_quote(model)},"n":'
        yield "".join([f'{{"c":{c}{head}{n},"task":{_quote(task)}}}\n'
                       for task, n, c in zip(view.tasks, view.n, view.c)])


def persist_run(
    manifest: RunManifest, counts: Mapping[str, Sequence[TaskCounts]], path: str | Path
) -> Path:
    """Write a self-contained aggregated run file (manifest line + body).

    One checked chunk stream, landed by `files.write_atomic`, canonical, so
    a fixed input always produces identical bytes.  The manifest's
    record_count must be the counts' total n, and its run_id the sha256 of
    their body, or `load_run` would reject the file it wrote.  The body is
    rendered, hashed and written one model at a time; run_id is checked
    after the last chunk, and a mismatch leaves neither target nor temp.
    """
    implied = _implied_manifest(counts, manifest.run_id, manifest.source_digests, manifest.verdict_source)
    if manifest != implied:
        raise ValueError("manifest record_count does not match the counts")
    # the implied manifest's own values: a given record_count of True equals 1 but would be written as true
    header = json.dumps(implied.to_json_obj(), sort_keys=True, separators=(",", ":"))
    path = Path(path)
    write_atomic({path: _checked_run_chunks(header, counts, manifest.run_id)})
    return path


def _checked_run_chunks(header: str, counts: Mapping[str, Sequence[TaskCounts]], run_id: str) -> Iterator[str]:
    """The manifest line `header`, then the chunks of the counts' body; a
    ValueError after the last chunk if the body does not hash to `run_id`."""
    yield header + "\n"
    digest = hashlib.sha256()
    for chunk in _body_chunks(counts):
        digest.update(chunk.encode("utf-8"))
        yield chunk
    if digest.hexdigest() != run_id:
        raise ValueError(f"manifest run_id={run_id} does not match the sha256 of the counts' canonical body")


def load_run(path: str | Path) -> tuple[RunManifest, dict[str, TaskColumns]]:
    """Load a persisted run: a covertau-run-v2 header, then an aggregated log.

    The body (every byte after the manifest line) must hash to the
    manifest's run_id, so a run file edited after it was written is
    rejected rather than loaded under a stale id.  The body is read, and
    hashed, as `read_log` reads a raw log, its lines numbered from 2; a line
    in error is reported only once the rest of the body hashes to run_id.
    The lines' total n must be the manifest's record_count.
    """
    path = Path(path)
    source = str(path)
    with path.open("rb") as fh:
        first = fh.readline()
        if not first:
            raise ParseError(f"{path}: empty run file")
        head = _parse_json_line(_decode_utf8(first, source, 1), 1, source)
        if head.get("kind") != "manifest":
            raise ParseError(f"{path}:1: missing manifest header; is this a raw log?")
        if head.get("format") != FORMAT_NAME:
            raise ParseError(f"{path}:1: unsupported run format {head.get('format')!r}; "
                             "re-run covertau ingest on its source log")
        if extra := sorted(head.keys() - _MANIFEST_KEYS):
            raise ParseError(f"{path}:1: field {extra[0]!r} must be absent from a {FORMAT_NAME} manifest")
        run_id = _require_str(head, "run_id", 1, source)
        verdict_source = head.get("verdict_source")
        digests = {} if head.get("source_digests") is None else head["source_digests"]
        if fault := _provenance_fault(digests, verdict_source):
            raise ParseError(f"{path}:1: {fault}")
        digest = hashlib.sha256()
        try:
            counts = _read_blocks(fh, source, 2, digest).counts
        except ParseError:
            while chunk := fh.read(_DIGEST_CHUNK):  # the rest of the body
                digest.update(chunk)
            if digest.hexdigest() == run_id:
                raise
        if digest.hexdigest() != run_id:
            raise ParseError(f"{path}:1: run_id does not match the sha256 of the lines after the manifest; "
                             "the run file was changed after it was written")
        if counts is None:
            # every line decoded, and the first nonblank one is per-completion
            fh.seek(len(first))
            lineno = next(i for i, line in enumerate(fh, start=2) if line.decode("utf-8").strip())
            raise ParseError(f"{path}:{lineno}: per-completion line; a run body holds aggregated (n, c) lines")
    manifest = _implied_manifest(counts, run_id, digests, verdict_source)
    record_count = head.get("record_count")
    # == takes JSON true and 1.0 for the integer 1, so the type is checked too
    if not (record_count == manifest.record_count and type(record_count) is int):
        raise ParseError(f"{path}:1: field 'record_count' must be what the lines after the manifest imply")
    return manifest, counts


def digest_file(path: str | Path) -> str:
    """sha256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(_DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _decode_utf8(line: bytes, source: str, lineno: int) -> str:
    """`line`, line `lineno` of `source`, decoded as UTF-8; an undecodable
    byte is a ParseError that names the line."""
    try:
        return str(line, "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}:{lineno}: invalid UTF-8 ({exc.reason} at byte {exc.start})") from None


def decode_lines(fh: BinaryIO, source: str) -> Iterator[str]:
    """The lines of a binary stream decoded as UTF-8; an undecodable line is
    a ParseError that names it."""
    for lineno, raw in enumerate(fh, start=1):
        yield _decode_utf8(raw, source, lineno)


def read_log(path: str | Path) -> ParsedLog:
    """Parse a raw log from disk (per-completion or aggregated form) in
    blocks, by `_read_blocks`, hashing its bytes as they are read."""
    path = Path(path)
    with path.open("rb") as fh:
        return _read_blocks(fh, str(path), 1, hashlib.sha256())


def _read_blocks(fh: BinaryIO, source: str, lineno: int, digest) -> ParsedLog:
    """Parse the rest of a binary stream, its first line being line `lineno`
    of `source`, in blocks of about `_BLOCK` bytes, each cut after a "\n":
    by `_block_rows` where it is UTF-8 and its layout reads it, else line by
    line through `_fold_lines`, each line decoded there, so that an
    undecodable line is refused in its turn; `digest` hashes each block."""
    tallies: dict[tuple[str, str], SampleTally] = {}
    counts: dict[str, list] = {}
    kind = None
    while block := fh.read(_BLOCK):
        if not block.endswith(b"\n"):
            block += fh.readline()
        digest.update(block)
        breaks = block.count(b"\n")
        lines = breaks + (not block.endswith(b"\n"))
        try:
            read = _block_rows(str(block, "utf-8"), lines, kind)
        except UnicodeDecodeError:
            read = None
        if read:
            kind, rows, fields = read
            if kind == "samples":
                _fold_samples(tallies, rows, fields, lineno, source)
            else:
                _fold_rows(counts, rows, fields, lineno, source)
        else:
            decoded = (_decode_utf8(raw, source, i) for i, raw in enumerate(block.split(b"\n")[:lines], start=lineno))
            kind = _fold_lines(tallies, counts, decoded, lineno, kind, source)
        lineno += breaks
    return _parsed(kind, tallies, counts, source, digest.hexdigest())


def _block_rows(text: str, lines: int, kind: str | None) -> tuple[str, list[tuple[str, ...]], itemgetter] | None:
    """(schema, rows, fields) of a block of `lines` lines after lines of
    schema `kind`, if all its lines match the layout of its first and each
    value with a backslash decodes, else None; each value in the rows reads
    as in `_compile_layout`, its strings decoded."""
    m = _LAYOUT_RE.match(text)
    layout = m and _compile_layout(m.group(1, 4, 5, 6, 7), m[2], m[3])
    if not layout:
        return None
    pattern, fields, schema = layout
    if kind not in (None, schema) or len(rows := pattern.findall(text)) != lines:
        return None
    if "\\" in text:
        # row k is line k: rebuild only the rows whose line holds a backslash, the one way to write a surrogate
        try:
            for k in [k for k, line in enumerate(text.split("\n")) if "\\" in line]:
                rows[k] = row = tuple([_unescape(v) if "\\" in v else v for v in rows[k]])
                for name in fields(row)[:2]:
                    check_name(name, "name")
        except ValueError:  # a bad escape, a backslash that escapes the closing quote, or a name refused
            return None
    return schema, rows, fields


@functools.lru_cache(maxsize=1 << 12)
def _unescape(value: str) -> str:
    """The string that `json.loads` reads from `value` between quotes."""
    return json.loads(f'"{value}"')


@functools.lru_cache
def _compile_layout(
    keys: tuple[str | None, ...], colon: str, comma: str
) -> tuple[re.Pattern[str], itemgetter, str] | None:
    """The layout of lines with `keys` in this order and these separators,
    or None if they are not a schema's keys: an anchored MULTILINE pattern
    whose match is such a line with values that `json.loads` reads as the
    same bools and ints and, once decoded, the same strings, and an empty
    group for an absent optional key; a getter of a match's groups in
    `_SAMPLE_KEYS` or `_AGG_KEYS` order; and the schema."""
    keys = tuple(key for key in keys if key)
    fields = _AGG_KEYS if "n" in keys else _SAMPLE_KEYS
    missing = tuple(key for key in fields if key not in keys)
    if sorted(keys + missing) != sorted(fields) or missing not in ((), ("correct",), ("answer",)):
        return None
    line = comma.join(f'"{key}"{colon}{_FIELDS[key]}' for key in keys)
    pattern = re.compile(rf"^\{{{line}\}}{'()' * len(missing)}$", re.MULTILINE)
    getter = itemgetter(*map((keys + missing).index, fields))
    return pattern, getter, "aggregated" if fields is _AGG_KEYS else "samples"


def _fold_samples(tallies: dict[tuple[str, str], SampleTally], rows: Iterable[tuple], fields: Callable,
                  lineno: int, source: str) -> None:
    """Fold per-completion rows, on lines `lineno`, `lineno` + 1, ... of
    `source`, into `tallies`, rejecting a repeated sample_index of a key on
    its line: one below the key's `stop` or in its `ahead` set.  `fields`
    gives a row's (model, task, sample_index, correct, answer), sample_index
    as an int or digits, correct "true", "false" or ""."""
    last_key = tally = None
    for lineno, (model, task, index, correct, answer) in enumerate(map(fields, rows), lineno):
        key = (model, task)
        if key != last_key:
            if tally is not None:
                tally.stop = stop
            tally = tallies.get(key)
            if tally is None:
                tally = tallies[key] = SampleTally()
            last_key, stop, ahead, answers = key, tally.stop, tally.ahead, tally.answers
        index = int(index)
        if index == stop:
            stop += 1
            while ahead and stop in ahead:
                ahead.remove(stop)
                stop += 1
        elif index < stop or index in ahead:
            raise ParseError(f"{source}:{lineno}: duplicate record key (model={model!r}, task={task!r}, "
                             f"sample_index={index})")
        else:
            ahead.add(index)
        if correct:
            tally.n += 1
            tally.c += correct == "true"
        else:
            answers[answer] += 1
            if tally.first_ungraded is None:
                tally.first_ungraded = (lineno, index)
    if tally is not None:
        tally.stop = stop


def _fold_rows(counts: dict[str, list], rows: Iterable[tuple], fields: Callable, lineno: int, source: str) -> None:
    """Fold aggregated rows, on lines `lineno`, `lineno` + 1, ... of `source`,
    into each model's columns [tasks, n, c, seen] in `counts`, rejecting an
    n below 1, a c outside [0, n] or a repeated task on its line.  `fields`
    gives (model, task, n, c), n and c as ints or digits, held in array('q')
    until an n does not fit, then in lists.  `seen` is None while the tasks
    ascend, as in a run body, then a dict of them (smaller than a set)."""
    model = None
    for lineno, (name, task, n, c) in enumerate(map(fields, rows), lineno):
        if name != model:
            model, cols = name, counts.get(name) or counts.setdefault(name, [[], array("q"), array("q"), None])
            tasks, ns, cs, seen = cols
        task, n, c = sys.intern(task), int(n), int(c)  # one string per task, shared by every model's row for it
        if n < 1 or not 0 <= c <= n < 1 << 63:
            try:  # TaskCounts rejects n < 1 and c outside [0, n]
                TaskCounts(task, n, c)
            except ValueError as exc:
                raise ParseError(f"{source}:{lineno}: {exc}") from exc
            if type(ns) is not list:
                ns, cs = cols[1], cols[2] = list(ns), list(cs)
        if seen is None and tasks and task <= tasks[-1]:
            seen = cols[3] = dict.fromkeys(tasks)
        if seen is not None:
            if task in seen:
                raise ParseError(f"{source}:{lineno}: duplicate aggregated line for (model={name!r}, task={task!r})")
            seen[task] = None
        tasks.append(task)
        ns.append(n)
        cs.append(c)


def is_run_file(path: str | Path) -> bool:
    """Sniff whether a file starts with a run manifest."""
    try:
        with Path(path).open("rb") as fh:
            first = fh.readline().decode("utf-8").strip()
        return bool(first) and json.loads(first).get("kind") == "manifest"
    except (OSError, ValueError, RecursionError, AttributeError):  # ValueError: bad UTF-8 or JSON
        return False
