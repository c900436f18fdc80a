"""`read_log` and `load_run` read aggregated lines in blocks, one layout
pattern per file.

The layout is the first line's key order and separators.  A block whose
lines all match it is folded without `json.loads`; every other block takes
the checked per-line path.  These tests hold both readers to the checked
per-line parse in `parse_oracle` (counts and error messages alike), cross
block boundaries with small blocks and with the real size, and count the
`json.loads` calls.
"""

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from covertau import ParseError, TaskCounts, build_manifest, load_run, persist_run
from covertau import ingest
from covertau.ingest import read_log

KEYS = ("model", "task", "n", "c")
# names with escapes, quotes, backslashes, control characters, U+2028, commas,
# colons and non-ASCII text; each is written with json.dumps
NAMES = ("m", "model-1", "mé", "漢字", "a b", 'q"q', "b\\s", "t\tx", "\x00", "x,y", "a:b", "\x7f", "\U0001f600")
# string values that are not a nonempty JSON string: raw control characters,
# bad escapes, an empty string and other JSON types
ODD_NAMES = ('"a\x01b"', '"a\tb"', '"\\q"', '"\\"', '""', "1", "null", "true", '["m"]')
# integer values with leading zeros, a sign, a fraction part or an exponent,
# bools, NaN, too many digits for the layout and too many for int()
ODD_INTS = ("01", "00", "-1", "+1", "-0", "1.0", "1e0", "1E2", "true", "false", "null", "NaN", "Infinity",
            '"1"', "1234567890123456789", "1" + "0" * 19, "9" * 5000)
OTHER_LINES = ("", " ", "\t", "\r", "\x0c", "[1]", "7", '"s"', "{", '{"model":"m","task":"t"',
               '{"model":"m","task":"s","sample_index":0,"correct":true}',
               '{"kind":"manifest","format":"covertau-run-v2"}',
               '{"model":"m","task":"t","n":1,"c":0,"sample_index":0}')
MANIFEST = {"kind": "manifest", "format": "covertau-run-v2", "source_digests": {}, "verdict_source": "aggregated"}

names = st.sampled_from(NAMES) | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)


@st.composite
def layouts(draw):
    return draw(st.permutations(KEYS)), draw(st.sampled_from((":", ": "))), draw(st.sampled_from((",", ", ")))


# the faults a line can have; each line has each at a rate drawn per file,
# and one line of half the files has one more
FAULTS = ("value", "duplicate", "count", "keys", "affix", "truncate", "other")


@st.composite
def aggregated_texts(draw):
    """The text of an aggregated log: one or two layouts, faults at a rate
    drawn per file (none in most files) and maybe one more on one line, LF,
    CRLF or mixed endings, and maybe a BOM and a last line without a newline."""
    rate = draw(st.sampled_from((0, 0, 0, 2, 10)))  # percent per line and fault

    def text(value):
        return json.dumps(value, ensure_ascii=draw(st.booleans()))

    first, second = draw(layouts()), draw(layouts())
    count = draw(st.integers(1, 30))
    switch = draw(st.integers(1, count)) if draw(st.booleans()) else count
    fault_at = draw(st.integers(0, count - 1)) if draw(st.booleans()) else None
    models = draw(st.lists(names, min_size=1, max_size=3))
    keys_seen: list[tuple[str, str]] = []
    lines = []
    for i in range(count):
        faults = {fault for fault in FAULTS if draw(st.integers(0, 99)) < rate}
        if i == fault_at:
            faults.add(draw(st.sampled_from(FAULTS)))
        if "other" in faults:
            lines.append(draw(st.sampled_from(OTHER_LINES)))
            continue
        order, colon, comma = first if i < switch else second
        model = draw(st.sampled_from(models))
        task = draw(names) + str(i) if draw(st.integers(0, 3)) == 0 else f"t{i}"
        if "duplicate" in faults and keys_seen:
            model, task = draw(st.sampled_from(keys_seen))
        keys_seen.append((model, task))
        n = draw(st.integers(1, 9))
        c = draw(st.integers(0, n))
        if "count" in faults:  # n = 0 or c > n
            n, c = draw(st.sampled_from(((0, 0), (n, n + 1))))
        values = {"model": text(model), "task": text(task), "n": str(n), "c": str(c)}
        if "value" in faults:
            key = draw(st.sampled_from(KEYS))
            values[key] = draw(st.sampled_from(ODD_NAMES if key in ("model", "task") else ODD_INTS))
        pairs = [(key, values[key]) for key in order]
        if "keys" in faults:  # a missing, extra or repeated key
            change = draw(st.sampled_from(("missing", "extra", "repeat")))
            if change == "missing":
                del pairs[draw(st.integers(0, 3))]
            elif change == "extra":
                pairs.insert(draw(st.integers(0, 4)), ("x", "1"))
            else:
                pairs.insert(draw(st.integers(0, 4)), draw(st.sampled_from(pairs)))
        line = "{" + comma.join(f'"{key}"{colon}{value}' for key, value in pairs) + "}"
        if "affix" in faults:  # whitespace or junk before or after the object
            affix = draw(st.sampled_from((" ", "\t", "\x0c", "\u2028", "\ufeff", "x", "1", "[", "]", "}", ",")))
            line = affix + line if draw(st.booleans()) else line + affix
        if "truncate" in faults:
            line = line[: draw(st.integers(0, len(line) - 1))]
        lines.append(line)
    ending = draw(st.sampled_from(("\n", "\n", "\r\n", "mixed")))
    endings = [draw(st.sampled_from(("\n", "\r\n"))) if ending == "mixed" else ending for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    bom = "\ufeff" if draw(st.integers(0, 19)) == 0 else ""
    return bom + "".join(line + end for line, end in zip(lines, endings))


def outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc)


def oracle_log(path):
    return parse_oracle.parse_records(path.read_bytes().decode("utf-8").split("\n"), str(path))


def oracle_run(path, body, record_count):
    """What `load_run` gives for a run file whose body is `body`: the body
    numbered from line 2, then the per-completion and record_count checks."""
    source = str(path)
    lines = ["", *body.split("\n")]
    parsed = parse_oracle.parse_records(lines, source)
    if parsed.counts is None:
        lineno = next(i for i, line in enumerate(lines, start=1) if line.strip())
        raise ParseError(f"{source}:{lineno}: per-completion line; a run body holds aggregated (n, c) lines")
    if record_count != sum(tc.n for tcs in parsed.counts.values() for tc in tcs):
        raise ParseError(f"{source}:1: field 'record_count' must be what the lines after the manifest imply")
    return parsed.counts


def write_run(path, body, record_count):
    """A run file of `body` under a manifest whose run_id is the body's sha256."""
    data = body.encode("utf-8")
    head = dict(MANIFEST, run_id=hashlib.sha256(data).hexdigest(), record_count=record_count)
    path.write_bytes(json.dumps(head).encode() + b"\n" + data)


def total_n(result):
    if isinstance(result, str) or result.counts is None:
        return 0
    return sum(tc.n for tcs in result.counts.values() for tc in tcs)


@settings(max_examples=300, deadline=None)
@given(aggregated_texts(), st.sampled_from((1, 40, 300, ingest._AGG_BLOCK)), st.booleans())
def test_read_log_and_load_run_match_the_checked_parse(text, block, wrong_count):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_AGG_BLOCK", block):
        log, run = Path(tmp) / "log.jsonl", Path(tmp) / "run.jsonl"
        log.write_bytes(text.encode("utf-8"))
        assert outcome(read_log, log) == outcome(oracle_log, log)
        record_count = total_n(outcome(oracle_log, log)) + wrong_count
        write_run(run, text, record_count)
        assert outcome(lambda: load_run(run)[1]) == outcome(oracle_run, run, text, record_count)


def one_fault_lines():
    """Aggregated lines that hold one odd value, or an odd affix, each."""
    line = '{{"model":{model},"task":{task},"n":{n},"c":{c}}}'
    values = {"model": '"m"', "task": '"t1"', "n": "4", "c": "2"}
    for key in KEYS:
        for odd in ODD_NAMES if key in ("model", "task") else ODD_INTS:
            yield line.format(**dict(values, **{key: odd}))
    for affix in (" ", "\t", "\x0c", "\u2028", "\ufeff", "x", "1", "[", "]", "}", ","):
        yield affix + line.format(**values)
        yield line.format(**values) + affix


@pytest.mark.parametrize("line", one_fault_lines())
def test_one_odd_line_reads_as_the_checked_parse(tmp_path, line):
    text = '{"model":"m","task":"t0","n":4,"c":1}\n' + line + '\n{"model":"m","task":"t2","n":4,"c":3}\n'
    log, run = tmp_path / "log.jsonl", tmp_path / "run.jsonl"
    log.write_text(text, encoding="utf-8")
    assert outcome(read_log, log) == outcome(oracle_log, log)
    record_count = total_n(outcome(oracle_log, log))
    write_run(run, text, record_count)
    assert outcome(lambda: load_run(run)[1]) == outcome(oracle_run, run, text, record_count)


def matrix_lines(models=4, tasks=1000):
    return [f'{{"model":"m{m}","task":"t{t:04d}","n":9,"c":{(m + t) % 10}}}\n'
            for m in range(models) for t in range(tasks)]


@pytest.mark.parametrize("bad", ['{"model":"%s","task":"t9999","n":9,"c":10}',  # c > n
                                 '{"model":"%s","task":"t9999","n":0,"c":0}',
                                 '{"model":"%s","task":"t9999","n":9,"c":1.0}',
                                 '{"model":"%s","task":"t9999","n":9,"c":10}\r',
                                 '{"model":"%s","task":"t0001","n":9,"c":1}',  # a duplicate task
                                 '{"model":"%s","task":"t9999","n":9,"c":1'])
def test_a_bad_line_across_a_block_boundary_is_named(tmp_path, bad):
    lines = matrix_lines()
    # the line that holds the first block's nominal end; bad is a line of its model
    at = next(i for i in range(len(lines)) if len("".join(lines[: i + 1])) > ingest._AGG_BLOCK)
    model = json.loads(lines[at])["model"]
    assert at % 1000 > 1 and len("".join(lines)) > 2 * ingest._AGG_BLOCK
    bad %= model
    lines[at] = bad + "\n"
    text = "".join(lines)
    log = tmp_path / "log.jsonl"
    log.write_text(text, encoding="utf-8")
    expected = outcome(oracle_log, log)
    assert expected.startswith(f"{log}:{at + 1}: ") and outcome(read_log, log) == expected
    run = tmp_path / "run.jsonl"
    write_run(run, text, 0)
    expected = outcome(oracle_run, run, text, 0)
    assert expected.startswith(f"{run}:{at + 2}: ") and outcome(lambda: load_run(run)[1]) == expected


def test_undecodable_line_in_a_later_block_is_named_after_earlier_errors(tmp_path):
    lines = [line.encode() for line in matrix_lines()]
    lines[-1] = lines[-1].replace(b'"m3"', b'"m\xff"')  # the last block
    log = tmp_path / "log.jsonl"
    log.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=rf"^{log}:{len(lines)}: invalid UTF-8 \(invalid start byte at byte 11\)$"):
        read_log(log)
    lines[-3] = b'{"model":"m3","task":"t0997","n":0,"c":0}\n'
    log.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=rf"^{log}:{len(lines) - 2}: n must be >= 1"):
        read_log(log)


def test_a_large_file_reads_as_the_checked_parse(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(matrix_lines(models=6)), encoding="utf-8")
    assert read_log(log) == oracle_log(log)


@pytest.fixture
def loads_calls(monkeypatch):
    """A Counter whose "loads" counts the `json.loads` calls."""
    calls = Counter()
    loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls["loads"] += 1
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    return calls


def test_a_canonical_run_body_is_read_without_json_loads(tmp_path, loads_calls):
    counts = {f"model-{m:02d}": [TaskCounts(f"task{t:04d}", 256, (m * t) % 257) for t in range(2000)]
              for m in range(10)}
    path = persist_run(build_manifest(counts, {}, "aggregated"), counts, tmp_path / "run.jsonl")
    loads_calls.clear()
    assert load_run(path)[1] == counts
    assert loads_calls["loads"] == 1  # the manifest line


@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": "), (",", ": "), (", ", ":")])
@pytest.mark.parametrize("order", [KEYS, ("c", "model", "n", "task"), ("n", "task", "c", "model")])
def test_a_raw_log_of_one_layout_is_read_without_json_loads(tmp_path, loads_calls, separators, order):
    rows = [{"model": f"m{j % 4}", "task": f"t{j // 4}", "n": 7, "c": j % 8} for j in range(5000)]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({key: row[key] for key in order}, separators=separators) + "\n"
                           for row in rows), encoding="utf-8")
    expected = oracle_log(log)
    loads_calls.clear()
    assert read_log(log) == expected
    assert loads_calls["loads"] == 0


@pytest.mark.parametrize("templates", [1, 7, 300])
def test_per_completion_logs_keep_their_json_loads_count(tmp_path, loads_calls, templates):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(
        json.dumps({"model": f"m{j % templates % 3}", "task": f"t{j % templates}", "sample_index": j,
                    "answer": f"a{j % templates % 5}"}) + "\n"
        for j in range(10_000)), encoding="utf-8")
    expected = oracle_log(log)
    loads_calls.clear()
    assert read_log(log) == expected
    assert loads_calls["loads"] <= 2 * templates + 1
