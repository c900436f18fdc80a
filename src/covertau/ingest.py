"""Completion-log parsing, answer grading, and run persistence.

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

A per-completion log is folded line by line into one `SampleTally` per
(model, task): flagged lines add to its n and c at once, unflagged lines
add their answer text to a counter, and the only per-line state kept is the
key's set of seen sample_index values, so memory grows with keys and
distinct answers rather than with lines.  `counts_from_log` grades each
distinct (task, answer) once against gold.  `apply_grading` and
`metrics.aggregate` do the same job record by record for in-memory
`SampleRecord` lists.

Lines that repeat are read from templates.  Once a file's kind is
per-completion, each line is split at its first `"sample_index":`, at most
one space and a JSON integer of at most 18 digits with no leading zero;
the text around the digits is the line's template.  A template becomes
trusted after two lines of it with different digits were each parsed by
`json.loads` to the same line apart from sample_index, and each had its
own digits as sample_index.  A later line of a trusted template takes the
template's model, task, correct and answer and `int(digits)` without
`json.loads`, then the same fold as every other line.  Every other line is
parsed and checked one by one, so each error and its line are unchanged.
At most `_PENDING_TEMPLATES` templates wait for their second witness; when
that table is full, it is dropped and the rest of the file is parsed line
by line, which bounds the cost on a log whose lines never repeat.

`read_log` and `load_run` read an aggregated file in blocks.  The first
line's layout (the order of its four keys, ":" or ": ", "," or ", ") gives
one anchored pattern whose values are nonempty strings without quotes,
backslashes or control characters, and integers of at most 18 digits
without a leading zero, so a match reads as `json.loads` would.  A block
of about `_AGG_BLOCK` characters, cut at a line end, is one findall; when
every line matches, the rows fold straight into the counts, checked for
n >= 1, 0 <= c <= n and a repeated task.  Any other block, and the rest of
a block from a row that fails a check, is parsed line by line as
`parse_records` does, with its true line numbers, so each error and its
line are unchanged.  A file whose first line has no such layout, every
per-completion log among them, goes to `parse_records` whole.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

from .metrics import aggregate  # noqa: F401  (perfbench/spans.py wraps it here)
from .records import GoldAnswer, SampleRecord, TaskCounts

FORMAT_NAME = "covertau-run-v2"
_MANIFEST_KEYS = frozenset({"kind", "format", "run_id", "source_digests", "record_count", "verdict_source"})

# optional sign, ASCII digits with optional fraction part (or bare ".5"),
# optional exponent; no fraction bars, no thousands separators, no other
# script's digits
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# an integer literal: sign, then ASCII digits after any leading zeros
_INTEGER_RE = re.compile(r"([+-]?)0*([0-9]+)")
_WS_RE = re.compile(r"\s+")
# splits a per-completion line at its first "sample_index": key, at most one
# space and a JSON integer of at most 18 digits: [text before the key, the
# space or "", the digits, the rest of the line]
_TEMPLATE_RE = re.compile(r'"sample_index":( ?)(0|[1-9][0-9]{0,17})(?![0-9])')
# templates seen once and waiting for a second witness; past this many the
# rest of the file is parsed line by line
_PENDING_TEMPLATES = 4096
_DIGEST_CHUNK = 1 << 20
# an aggregated line's string text (nonempty, no quote, backslash or control
# character, so the text is the value) and integer, the values that the
# layout path reads without json.loads, and each key's value captured
_AGG_TEXT = r'[^"\\\x00-\x1f]+'
_AGG_INT = r"0|[1-9][0-9]{0,17}"
_AGG_FIELDS = {"model": f'"({_AGG_TEXT})"', "task": f'"({_AGG_TEXT})"', "n": f"({_AGG_INT})", "c": f"({_AGG_INT})"}
_AGG_VALUE = f'(?:"{_AGG_TEXT}"|{_AGG_INT})'
# the order of a line's four keys and its separators: ": " or ":", ", " or ","
_LAYOUT_RE = re.compile(
    rf'\{{"(\w+)"(: ?){_AGG_VALUE}(, ?)"(\w+)"\2{_AGG_VALUE}\3"(\w+)"\2{_AGG_VALUE}\3"(\w+)"\2{_AGG_VALUE}\}}'
)
_AGG_BLOCK = 1 << 16  # characters of an aggregated file folded per findall


class ParseError(ValueError):
    """Malformed log content, annotated with the offending line number."""


@dataclass(slots=True)
class SampleTally:
    """Running tally of one (model, task) key of a per-completion log."""

    seen: set[int] = field(default_factory=set)  # sample_index values read so far
    n: int = 0  # lines with a correct flag
    c: int = 0  # of those, flagged correct
    answers: Counter[str] = field(default_factory=Counter)  # answer text of unflagged lines
    first_ungraded: tuple[int, int] | None = None  # (line, sample_index) of the first unflagged line


@dataclass(frozen=True)
class ParsedLog:
    """Result of parsing one log file: exactly one of the two forms.

    `records` maps (model, task) to its `SampleTally` for a per-completion
    log; `counts` holds per-model counts for an aggregated one.  `source`
    names the file in grading errors.
    """

    records: dict[tuple[str, str], SampleTally] | None
    counts: dict[str, list[TaskCounts]] | None
    source: str = "<stream>"

    @property
    def kind(self) -> str:
        return "samples" if self.records is not None else "aggregated"


@dataclass(frozen=True)
class RunManifest:
    """Header block of a persisted run."""

    run_id: str
    source_digests: dict[str, str]
    record_count: int
    verdict_source: str

    def to_json_obj(self) -> dict:
        return {
            "kind": "manifest",
            "format": FORMAT_NAME,
            "run_id": self.run_id,
            "source_digests": dict(sorted(self.source_digests.items())),
            "record_count": self.record_count,
            "verdict_source": self.verdict_source,
        }


def parse_records(lines: Iterable[str], source: str = "<stream>") -> ParsedLog:
    """Parse a line-delimited completion log.

    Accepts either the per-completion schema or the aggregated schema;
    mixing the two in one file is rejected.  Blank lines are ignored.
    Per-completion lines are folded into per-(model, task) tallies as they
    are read; a repeated sample_index within a key is rejected on its line.
    Lines of a trusted template (see the module docstring) skip json.loads.
    Every failure names the 1-based line number.
    """
    tallies: dict[tuple[str, str], SampleTally] = {}
    counts: dict[str, dict[str, TaskCounts]] = {}
    kind: str | None = None
    last_key: tuple[str, str] | None = None
    loads = json.loads
    # a template is a line's text around its sample_index digits; it maps to
    # the line's (model, task, correct, answer) once trusted, and to its first
    # witness, (digits, the line parsed without sample_index), while pending
    trusted: dict[tuple[str, str, str], tuple[str, str, bool | None, str | None]] = {}
    pending: dict[tuple[str, str, str], tuple[str, dict]] | None = {}
    split = None  # _TEMPLATE_RE.split once the file's kind is "samples"
    for lineno, raw in enumerate(lines, start=1):
        hit = template = None
        if split is not None and len(parts := split(raw, 1)) == 4:
            head, space, digits, tail = parts
            template = (head, space, tail)
            hit = trusted.get(template)
        if hit is not None:
            model, task, correct, answer = hit
            index = int(digits)
        else:
            try:
                obj = loads(raw)
            except (ValueError, RecursionError):
                # JSON whitespace is a subset of str.strip's: blank lines and
                # bad JSON both land here, and bad JSON is reported as before
                line = raw.strip()
                if not line:
                    continue
                obj = _parse_json_line(line, lineno, source)
            # Fast path: a well-formed per-completion line in a per-completion
            # log.  Anything else takes the checked path, which classifies the
            # line and raises the error that names it.
            ok = False
            if (kind == "samples" and type(obj) is dict and "sample_index" in obj
                    and not ("n" in obj or "c" in obj or "kind" in obj)):
                model, task, index = obj.get("model"), obj.get("task"), obj["sample_index"]
                correct, answer = obj.get("correct"), obj.get("answer")
                ok = (type(model) is str and model and type(task) is str and task
                      and type(index) is int and index >= 0
                      and (answer is None or type(answer) is str)
                      and (correct is True or correct is False or answer is not None and correct is None))
            if not ok:
                kind = _line_kind(obj, kind, lineno, source)
                if kind == "aggregated":
                    _add_aggregated(counts, obj, lineno, source)
                    continue
                model, task, index, correct, answer = _sample_fields(obj, lineno, source)
                if pending is not None:
                    split = _TEMPLATE_RE.split
            if template is not None and not _witness(pending, trusted, template, digits, obj, index,
                                                     (model, task, correct, answer)):
                pending = split = None  # too many distinct lines: parse the rest one by one
        key = (model, task)
        if key != last_key:
            tally = tallies.get(key)
            if tally is None:
                tally = tallies[key] = SampleTally()
            last_key, seen, answers = key, tally.seen, tally.answers
        if index in seen:
            raise ParseError(
                f"{source}:{lineno}: duplicate record key (model={model!r}, "
                f"task={task!r}, sample_index={index})"
            )
        seen.add(index)
        if correct is None:
            answers[answer] += 1
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


def _witness(
    pending: dict[tuple[str, str, str], tuple[str, dict]],
    trusted: dict[tuple[str, str, str], tuple[str, str, bool | None, str | None]],
    template: tuple[str, str, str],
    digits: str,
    obj: dict,
    index: int,
    fields: tuple[str, str, bool | None, str | None],
) -> bool:
    """Count `obj`, a per-completion line parsed with json.loads, as a witness
    of its template, the line's text around its sample_index `digits`.

    The line is a witness only if its sample_index is its own digits.  The
    first witness waits in `pending`; a second one with other digits and
    the same line apart from sample_index makes the template trusted, with
    `fields` as every line of it parses to.  Returns False, and records
    nothing, when `pending` is full.
    """
    if index != int(digits):
        return True
    del obj["sample_index"]
    first = pending.get(template)
    if first is None:
        if len(pending) >= _PENDING_TEMPLATES:
            return False
        pending[template] = (digits, obj)
    elif first[0] != digits and first[1] == obj:
        del pending[template]
        trusted[template] = fields
    return True


def _sorted_counts(per_model: Mapping[str, Mapping[str, TaskCounts]]) -> dict[str, list[TaskCounts]]:
    """{model: {task: counts}} as per-model count lists, models and tasks sorted."""
    return {m: [tc for _, tc in sorted(t.items())] for m, t in sorted(per_model.items())}


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
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{source}:{lineno}: field {key!r} must be a nonempty string")
    return value


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


def _add_aggregated(
    counts: dict[str, dict[str, TaskCounts]], obj: dict, lineno: int, source: str
) -> None:
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


def parse_gold(lines: Iterable[str], source: str = "<gold>") -> dict[str, str]:
    """Parse a gold-answer file into {task: answer}."""
    gold: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        obj = _parse_json_line(line, lineno, source)
        task, answer = _require_str(obj, "task", lineno, source), _require_str(obj, "answer", lineno, source)
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
        resolved.append(
            SampleRecord(
                model=rec.model,
                task=rec.task,
                sample_index=rec.sample_index,
                answer=rec.answer,
                correct=grade(rec.answer, gold[rec.task]),
            )
        )
    return resolved, ("flags+gold" if used_gold else "flags")


def counts_from_log(
    parsed: ParsedLog, gold: Mapping[str, str] | None = None
) -> tuple[dict[str, list[TaskCounts]], str]:
    """Per-model counts of a parsed log plus the verdict source.

    Explicit flags win; unflagged answers are graded against gold, each
    distinct (task, answer) once, and the verdict is weighted by the
    answer's count.  Gives what `aggregate(apply_grading(records, gold)[0])`
    gives for the log's records, and rejects a key with unflagged lines but
    no gold answer at its first such line.
    """
    if parsed.counts is not None:
        return parsed.counts, "aggregated"
    tallies = parsed.records or {}
    graded: dict[tuple[str, str], int] = {}  # key -> correct unflagged lines
    verdicts: dict[tuple[str, str], bool] = {}
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
        hits = 0
        for answer, count in tallies[key].answers.items():
            verdict = verdicts.get((task, answer))
            if verdict is None:
                verdict = verdicts[task, answer] = grade(answer, gold[task])
            hits += count * verdict
        graded[key] = hits
    per_model: dict[str, dict[str, TaskCounts]] = {}
    for (model, task), tally in tallies.items():
        n = tally.n + sum(tally.answers.values())
        c = tally.c + graded.get((model, task), 0)
        per_model.setdefault(model, {})[task] = TaskCounts(task=task, n=n, c=c)
    return _sorted_counts(per_model), ("flags+gold" if graded else "flags")


def build_manifest(
    counts: Mapping[str, Sequence[TaskCounts]],
    source_digests: Mapping[str, str],
    verdict_source: str,
) -> RunManifest:
    """Manifest for aggregated counts; run_id is a digest of the canonical
    body, so identical data yields an identical manifest."""
    if not counts:
        raise ValueError("no counts to persist")
    run_id = hashlib.sha256(_render_body(counts).encode("utf-8")).hexdigest()
    return _implied_manifest(counts, run_id, source_digests, verdict_source)


def _implied_manifest(
    counts: Mapping[str, Sequence[TaskCounts]], run_id: str, source_digests: Mapping[str, str], verdict_source: str
) -> RunManifest:
    """The manifest that `counts`, whose body hashes to `run_id`, imply: the
    one derivation of record_count."""
    return RunManifest(
        run_id=run_id,
        source_digests=dict(source_digests),
        record_count=sum(tc.n for tcs in counts.values() for tc in tcs),
        verdict_source=verdict_source,
    )


def _render_body(counts: Mapping[str, Sequence[TaskCounts]]) -> str:
    """Canonical aggregated lines sorted by model and task; each model's
    lines share one prebuilt prefix, so only c, n and the task vary."""
    parts: list[str] = []
    for model in sorted(counts):
        head = f',"model":{json.dumps(model)},"n":'
        parts += [
            f'{{"c":{tc.c}{head}{tc.n},"task":{json.dumps(tc.task)}}}\n'
            for tc in sorted(counts[model], key=lambda t: t.task)
        ]
    return "".join(parts)


def persist_run(
    manifest: RunManifest, counts: Mapping[str, Sequence[TaskCounts]], path: str | Path
) -> Path:
    """Write a self-contained aggregated run file (manifest line + body).

    The write is atomic (temp file + rename) and canonical, so a fixed
    input always produces identical bytes.  The manifest's record_count
    must be the counts' total n, and its run_id the sha256 of their body,
    or `load_run` would reject the file it wrote.
    """
    implied = _implied_manifest(counts, manifest.run_id, manifest.source_digests, manifest.verdict_source)
    if manifest != implied:
        raise ValueError("manifest record_count does not match the counts")
    # the implied manifest's own values: a given record_count of True equals 1 but would be written as true
    header = json.dumps(implied.to_json_obj(), sort_keys=True, separators=(",", ":"))
    body = _render_body(counts)
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != manifest.run_id:
        raise ValueError(
            f"manifest run_id={manifest.run_id} does not match the sha256 of the counts' canonical body"
        )
    path = Path(path)
    write_atomic(path, header + "\n" + body)
    return path


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Replace `path` with `text`, a string or an iterable of string chunks
    written in order, through a temp file of its own in the same directory,
    so concurrent writers never share one, and a failed write (an iterable
    that raises too) leaves neither a partial target nor a temp file behind."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL: never reuse an existing file; mode 0o666 is narrowed by the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_run(path: str | Path) -> tuple[RunManifest, dict[str, list[TaskCounts]]]:
    """Load a persisted run: a covertau-run-v2 header, then an aggregated log.

    The body (every byte after the manifest line) must hash to the
    manifest's run_id, so a run file edited after it was written is
    rejected rather than loaded under a stale id.  `parse_records` then
    reads the body as an aggregated log whose lines are numbered from 2,
    and their total n must be the manifest's record_count.
    """
    path = Path(path)
    source = str(path)
    data = path.read_bytes()
    if not data:
        raise ParseError(f"{path}: empty run file")
    cut = data.find(b"\n") + 1 or len(data)
    head = _parse_json_line(_decode_utf8(data[:cut], source, 1), 1, source)
    if head.get("kind") != "manifest":
        raise ParseError(f"{path}:1: missing manifest header; is this a raw log?")
    if head.get("format") != FORMAT_NAME:
        raise ParseError(f"{path}:1: unsupported run format {head.get('format')!r}; "
                         "re-run covertau ingest on its source log")
    if extra := sorted(head.keys() - _MANIFEST_KEYS):
        raise ParseError(f"{path}:1: field {extra[0]!r} must be absent from a {FORMAT_NAME} manifest")
    run_id = _require_str(head, "run_id", 1, source)
    verdict_source = _require_str(head, "verdict_source", 1, source)
    digests = {} if head.get("source_digests") is None else head["source_digests"]
    if not (isinstance(digests, dict) and all(isinstance(d, str) for d in digests.values())):
        raise ParseError(f"{path}:1: field 'source_digests' must be a map of file names to digests")
    if hashlib.sha256(memoryview(data)[cut:]).hexdigest() != run_id:
        raise ParseError(
            f"{path}:1: run_id does not match the sha256 of the lines after the manifest; "
            "the run file was changed after it was written"
        )
    body = _decode_utf8(memoryview(data)[cut:], source, 2)
    del data  # peak memory: the body's text, not the raw bytes too
    layout = _layout(body)
    if layout is not None:
        counts = _read_aggregated(_text_blocks(body), layout, source, 2)
    else:
        # split at "\n" alone, as a raw log is; the blank line in front stands
        # in for the manifest, so parse_records skips it and numbers the body from 2
        lines = ["", *body.split("\n")]
        counts = parse_records(lines, source).counts
        if counts is None:
            lineno = next(i for i, line in enumerate(lines, start=1) if line.strip())
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


def _decode_utf8(data: bytes | memoryview, source: str, first_lineno: int) -> str:
    """`data`, whose first line is line `first_lineno` of `source`, decoded as
    UTF-8; an undecodable byte is a ParseError that names its line."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        before = bytes(data[: exc.start])
        lineno = first_lineno + before.count(b"\n")
        column = exc.start - (before.rfind(b"\n") + 1)
        raise ParseError(f"{source}:{lineno}: invalid UTF-8 ({exc.reason} at byte {column})") from None


def decode_lines(fh: BinaryIO, source: str) -> Iterator[str]:
    """The lines of a binary stream decoded as UTF-8; an undecodable line is
    a ParseError that names it."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError:
            # the helper decodes again and raises the ParseError that names the line
            _decode_utf8(raw, source, lineno)
            raise


def read_log(path: str | Path) -> ParsedLog:
    """Parse a raw log from disk (per-completion or aggregated form).

    A file whose first line has an aggregated layout is read in blocks by
    `_read_aggregated`; any other file line by line by `parse_records`.
    """
    path = Path(path)
    source = str(path)
    with path.open("rb") as fh:
        layout = _layout(fh.readline().decode("utf-8", "replace"))
        fh.seek(0)
        if layout is None:
            return parse_records(decode_lines(fh, source), source=source)
        return ParsedLog(records=None, counts=_read_aggregated(_file_blocks(fh), layout, source, 1), source=source)


def _layout(text: str) -> tuple[re.Pattern[str], itemgetter] | None:
    """The layout of the aggregated line that starts `text`, or None: one
    anchored MULTILINE pattern whose match is a line of that key order and
    those separators with values that `json.loads` would read as the same
    strings and ints, and a getter that puts a match's groups in
    (model, task, n, c) order."""
    m = _LAYOUT_RE.match(text)
    if m is None or sorted(keys := m.group(1, 4, 5, 6)) != sorted(_AGG_FIELDS):
        return None
    colon, comma = m[2], m[3]
    line = comma.join(f'"{key}"{colon}{_AGG_FIELDS[key]}' for key in keys)
    return re.compile(rf"^\{{{line}\}}$", re.MULTILINE), itemgetter(*map(keys.index, _AGG_FIELDS))


def _file_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """A binary stream in blocks of about `_AGG_BLOCK` bytes, each cut after a "\n"."""
    while block := fh.read(_AGG_BLOCK):
        yield block if block.endswith(b"\n") else block + fh.readline()


def _text_blocks(text: str) -> Iterator[str]:
    """`text` in blocks of about `_AGG_BLOCK` characters, each cut after a "\n"."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _AGG_BLOCK) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_aggregated(
    blocks: Iterable[str | bytes], layout: tuple[re.Pattern[str], itemgetter], source: str, lineno: int
) -> dict[str, list[TaskCounts]]:
    """Counts of an aggregated log given as blocks of whole lines, the first
    line being line `lineno` of `source`.

    A block whose lines all match the `layout` pattern, one findall, is
    folded row by row; any other block, and the rest of a block from a row
    that fails a check, goes through the checked per-line path, so every
    error names the line and says what `parse_records` says.  A bytes block
    that is not UTF-8 is decoded line by line on that path.
    """
    pattern, fields = layout
    counts: dict[str, dict[str, TaskCounts]] = {}
    for block in blocks:
        if isinstance(block, bytes):
            try:
                block = str(block, "utf-8")
            except UnicodeDecodeError:
                # decoded line by line, the checked path raises at the first
                # undecodable line or at an error on a line before it
                decoded = (_decode_utf8(raw, source, i) for i, raw in enumerate(block.split(b"\n"), start=lineno))
                _fold_checked(counts, decoded, lineno, source)
                raise
        breaks = block.count("\n")
        lines = breaks + (not block.endswith("\n"))
        rows = pattern.findall(block)
        done = _fold_rows(counts, map(fields, rows)) if len(rows) == lines else 0
        if done < lines:
            _fold_checked(counts, block.split("\n")[done:], lineno + done, source)
        lineno += breaks
    return _sorted_counts(counts)


def _fold_rows(counts: dict[str, dict[str, TaskCounts]], rows: Iterable[tuple[str, str, str, str]]) -> int:
    """Fold (model, task, n, c) rows read by a layout pattern into `counts`
    until one fails a check of `_add_aggregated`; the number folded.  The
    checked path then reads the failing row's line and raises its error."""
    model = per_model = None
    done = 0
    for name, task, n, c in rows:
        if name != model:
            model, per_model = name, counts.setdefault(name, {})
        n, c = int(n), int(c)
        if n < 1 or c > n or task in per_model:
            break
        per_model[task] = TaskCounts(task, n, c)
        done += 1
    return done


def _fold_checked(
    counts: dict[str, dict[str, TaskCounts]], lines: Iterable[str], lineno: int, source: str
) -> None:
    """Fold the lines of an aggregated file, the first being line `lineno`,
    through `json.loads` and the checks of `parse_records`."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if line:
            obj = _parse_json_line(line, lineno, source)
            _line_kind(obj, "aggregated", lineno, source)
            _add_aggregated(counts, obj, lineno, source)


def is_run_file(path: str | Path) -> bool:
    """Sniff whether a file starts with a run manifest."""
    try:
        with Path(path).open("rb") as fh:
            first = fh.readline().decode("utf-8").strip()
        return bool(first) and json.loads(first).get("kind") == "manifest"
    except (OSError, ValueError, RecursionError, AttributeError):  # ValueError: bad UTF-8 or JSON
        return False
