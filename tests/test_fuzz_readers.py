"""Mutated aggregated logs and run files never give a traceback.

Each example mutates a valid aggregated log, or the body (and sometimes the
manifest line) of a valid run file whose run_id is then mostly rehashed,
and runs one of `ingest`, `compute`, `curves` and `dominance` through
`main` in process.  `main` must return 0 or 2 without raising.  When the
command's reader rejects the file, stderr must be that error alone, and it
must name the file and the line.
"""

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from covertau import ParseError, TaskCounts, build_manifest, load_run, persist_run
from covertau.cli import main
from covertau.ingest import is_run_file, read_log

COUNTS = {
    "m1": [TaskCounts("t1", 4, 1), TaskCounts("t2", 4, 4), TaskCounts("t3", 8, 0)],
    "m2": [TaskCounts("t1", 4, 3), TaskCounts("t2", 4, 0), TaskCounts("t3", 8, 5)],
}
LOG = [json.dumps({"model": m, "task": tc.task, "n": tc.n, "c": tc.c}, separators=(",", ":")).encode()
       for m, tcs in COUNTS.items() for tc in tcs]
MANIFEST_LINE = b'{"format":"covertau-run-v2","kind":"manifest","record_count":1,"run_id":"0","source_digests":{}}'
# values that replace a line's n or c: a huge integer, NaN and Infinity,
# deep nesting, other JSON types and out-of-range counts
VALUES = (b"9" * 5000, b"NaN", b"Infinity", b"-Infinity", b"[" * 5000, b'"3"', b"true", b"3.0", b"null",
          b"0", b"-1", b"99", b"01", b"{}")
# lines that replace or join a line: not an object, not JSON, another schema
LINES = (b"", b" ", b"[1]", b"7", b"null", b'"s"', b"{", b"[" * 5000, b"\xef\xbb\xbf{}", MANIFEST_LINE,
         b'{"model":"m1","task":"t9","sample_index":0,"correct":true}',
         b'{"model":"m1","task":"t9","n":1,"c":1,"n":2}', b'{"model":1,"task":"t9","n":1,"c":1}',
         b'{"model":"","task":"t9","n":1,"c":1}')
MUTATIONS = ("truncate", "value", "line", "insert", "duplicate", "delete", "swap", "key", "utf8", "byte", "bom")


@st.composite
def mutated(draw, lines):
    """`lines`, a list of byte strings without endings, after one to three
    mutations, joined with LF, CRLF or CR endings."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        if not lines:
            lines.append(draw(st.sampled_from(LINES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if mutation == "truncate":
            lines[i] = line[: draw(st.integers(0, max(len(line) - 1, 0)))]
        elif mutation == "value":
            key = draw(st.sampled_from((b'"n":', b'"c":')))
            lines[i] = re.sub(re.escape(key) + rb"[0-9]+", lambda m: key + draw(st.sampled_from(VALUES)), line)
        elif mutation == "line":
            lines[i] = draw(st.sampled_from(LINES))
        elif mutation == "insert":
            lines.insert(i, draw(st.sampled_from(LINES)))
        elif mutation == "duplicate":
            lines.insert(i, line)
        elif mutation == "delete":
            del lines[i]
        elif mutation == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif mutation == "key":  # a duplicate key in front of the others
            lines[i] = line.replace(b"{", b'{"n":1,', 1)
        elif mutation == "utf8":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80"))) + line[at:]
        elif mutation == "byte" and line:
            at = draw(st.integers(0, len(line) - 1))
            lines[i] = line[:at] + bytes([draw(st.integers(0, 255))]) + line[at + 1:]
        elif mutation == "bom":
            lines[i] = b"\xef\xbb\xbf" + line
    ending = draw(st.sampled_from((b"\n", b"\n", b"\r\n", b"\r")))
    data = ending.join(lines)
    return data + ending if draw(st.booleans()) else data


def rehashed_run(head, body, fix_count):
    """A run file of `body` under `head` with run_id the body's sha256, and
    record_count what the body implies when `fix_count` and it parses."""
    try:
        manifest = json.loads(head)
        manifest["run_id"] = hashlib.sha256(body).hexdigest()
    except (ValueError, TypeError, RecursionError):
        return head + b"\n" + body
    if fix_count:
        try:
            counts = parse_oracle.parse_records(["", *body.decode("utf-8").split("\n")]).counts
            manifest["record_count"] = sum(tc.n for tcs in (counts or {}).values() for tc in tcs)
        except (ParseError, UnicodeDecodeError):
            pass
    return json.dumps(manifest).encode() + b"\n" + body


def run_command(command, path, tmp):
    argv = {"ingest": ["--out", str(tmp / "out.jsonl")], "curves": ["--out-dir", str(tmp / "curves")]}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--input", str(path), *argv.get(command, [])])
    return code, err.getvalue()


def check(command, path, tmp):
    code, err = run_command(command, path, tmp)
    assert code in (0, 2), err
    read = load_run if command != "ingest" and is_run_file(path) else read_log
    try:
        read(path)
    except ParseError as exc:
        assert code == 2 and err == f"error: {exc}\n"
        assert re.match(rf"{re.escape(str(path))}(:[0-9]+: | no records found$)", str(exc)), str(exc)
        return
    if code == 2:  # a fault of the counts, not of the file's lines
        assert err.startswith("error: ") and err.count("\n") == 1, err


commands = st.sampled_from(("ingest", "compute", "curves", "dominance"))


@settings(max_examples=200, deadline=None)
@given(mutated(LOG), commands)
def test_mutated_aggregated_logs_exit_0_or_2_and_name_the_line(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        check(command, path, Path(tmp))


def persisted_run():
    """The bytes of the run file of COUNTS."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build_manifest(COUNTS, {"log.jsonl": "0" * 64}, "aggregated")
        return persist_run(manifest, COUNTS, Path(tmp) / "run.jsonl").read_bytes()


RUN_HEAD, RUN_BODY = persisted_run().split(b"\n", 1)


@st.composite
def run_files(draw):
    head = RUN_HEAD
    if draw(st.integers(0, 4)) == 0:  # the manifest line itself
        head = draw(mutated([head])).rstrip(b"\r\n")
    body = draw(mutated(RUN_BODY.split(b"\n")[:-1]))
    return rehashed_run(head, body, draw(st.booleans())) if draw(st.integers(0, 3)) else head + b"\n" + body


@settings(max_examples=200, deadline=None)
@given(run_files(), commands)
def test_mutated_run_files_exit_0_or_2_and_name_the_line(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        path.write_bytes(data)
        check(command, path, Path(tmp))
