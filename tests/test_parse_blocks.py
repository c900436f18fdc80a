"""`read_log` and `load_run` read per-completion lines in blocks, one layout
pattern per block.

The layout is the key order and separators of a block's first line.  A
block whose lines all match it, and whose escaped values all decode, is
folded without a `json.loads` call per line; every other block takes the
checked per-line fold, and both paths fold rows with the same code.
These tests hold both readers to the checked per-line parse in
`parse_oracle`, tallies and error messages alike, at small block sizes and
at the real one, and count the `json.loads` calls.
"""

import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from covertau import ingest, load_run
from covertau.ingest import ParseError, read_log

# the first two need no JSON escape when written with ensure_ascii off; the
# last, a lone surrogate, is not a name, and is always written as an escape
MODELS = ("m", "mé", "m\\n", 'm"q', "m\ud800")
TASKS = ("t", "τ", "t 2")
# the key text inside answers, escapes and non-ASCII text, some graded and some
# not; the first four need no JSON escape when written with ensure_ascii off
ANSWERS = ("4", "", "é\u2028ü", None, "a\\b", 'say "sample_index":5', '"sample_index": 7')
# indices that are not a JSON integer of the layout's form, or not valid at all
ODD_INDICES = ("-0", "01", "00", "1.0", "1e3", "1E0", "true", "-3", "5" * 5000)
COLONS = (":", ": ", ":  ", ":\t")
COMMAS = (",", ", ")
AGGREGATED = '{"model":"m","task":"t","n":3,"c":1}'
INDEX = "\0"  # stands for the line's sample_index text; json.dumps never writes a raw NUL
BLOCKS = (1, 40, 300, ingest._BLOCK)


@st.composite
def templates(draw):
    """(pairs, colon, comma): the line's keys and value texts in order,
    where INDEX stands for the line's sample_index text.  A plain template
    has no other key and a layout's separators, and mostly values that need
    no JSON escape, so most plain templates have lines that match a block
    layout."""
    plain = draw(st.booleans())
    ascii_only = not plain and draw(st.booleans())

    def text(value):
        return json.dumps(value, ensure_ascii=ascii_only or value == MODELS[-1])

    pairs = [('"model"', text(draw(st.sampled_from(MODELS[:3] if plain else MODELS)))),
             ('"task"', text(draw(st.sampled_from(TASKS)))),
             ('"sample_index"', INDEX)]
    correct = draw(st.sampled_from(("true", "false", None)))
    if correct is not None:
        pairs.append(('"correct"', correct))
    answer = draw(st.sampled_from(ANSWERS[:5] if plain else ANSWERS))
    if answer is not None:
        pairs.append(('"answer"', text(answer)))
    value = st.just(INDEX) | st.integers(0, 30).map(str)  # the line's index or a fixed one
    if not plain and draw(st.booleans()):  # the key text inside a key
        pairs.append(('"\\"sample_index"', draw(value)))
    if not plain and draw(st.booleans()):  # the key inside a nested object
        pairs.append(('"meta"', '{"sample_index":%s}' % draw(value)))
    if not plain and draw(st.integers(0, 3)) == 3:  # a duplicate sample_index key
        pairs.append(('"sample_index"', draw(value)))
    pairs = draw(st.permutations(pairs))
    return pairs, draw(st.sampled_from(COLONS[:2] if plain else COLONS)), draw(st.sampled_from(COMMAS))


def render(template, index):
    pairs, colon, comma = template
    return "{" + comma.join(f"{key}{colon}{value.replace(INDEX, index)}" for key, value in pairs) + "}"


@st.composite
def logs(draw):
    """The lines of a log that repeats a few templates with mostly fresh
    indices, some repeated and some odd ones, CRLF and LF endings, blank
    lines, an aggregated line and a last line with or without a newline."""
    shapes = draw(st.lists(templates(), min_size=1, max_size=3))
    fresh = iter(draw(st.permutations(range(60))))
    used: list[str] = []
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("fresh",) * 20 + ("repeat", "odd", "odd", "blank")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", " \t", "\r"))))
        else:
            if kind == "repeat" and used:
                index = draw(st.sampled_from(used))
            elif kind == "odd":
                index = draw(st.sampled_from(ODD_INDICES))
            else:
                index = str(next(fresh))
            used.append(index)
            lines.append(render(draw(st.sampled_from(shapes)), index))
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), AGGREGATED)
    endings = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    return [line + end for line, end in zip(lines, endings)]


def outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc)


def check_readers(tmp, text):
    """`read_log` on `text` and `load_run` on a run file of it, its run_id
    rehashed, give what the checked parse gives."""
    log, run = tmp / "log.jsonl", tmp / "run.jsonl"
    log.write_bytes(text.encode("utf-8"))
    expected = outcome(parse_oracle.read_log, log)
    assert outcome(read_log, log) == expected
    counts = None if isinstance(expected, str) else expected.counts
    record_count = sum(tc.n for tcs in (counts or {}).values() for tc in tcs)
    parse_oracle.write_run(run, text, record_count)
    assert outcome(lambda: load_run(run)[1]) == outcome(parse_oracle.load_run, run, text, record_count)


@settings(max_examples=500, deadline=None)
@given(logs(), st.sampled_from(BLOCKS))
def test_read_log_and_load_run_match_the_checked_parse(lines, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_BLOCK", block):
        check_readers(Path(tmp), "".join(lines))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("index", ODD_INDICES + ("7 ", " 7", "99999999999999999999"))
def test_an_odd_index_in_a_block_of_one_layout_takes_the_checked_path(tmp_path, index, block):
    # every line but the fourth, which holds the odd index, has one layout
    lines = ['{"model":"m","task":"t","sample_index":%s,"correct":true}\n' % j for j in ("0", "1", "2", index, "4")]
    with mock.patch.object(ingest, "_BLOCK", block):
        check_readers(tmp_path, "".join(lines))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("key", ["model", "task", "sample_index"])
def test_lines_without_a_required_key_take_the_checked_path(tmp_path, key, block):
    rows = [{"model": "m", "task": "t", "sample_index": j, "correct": True, "answer": "4"} for j in range(3)]
    lines = [json.dumps({k: v for k, v in row.items() if k != key}, separators=(",", ":")) + "\n" for row in rows]
    with mock.patch.object(ingest, "_BLOCK", block):
        check_readers(tmp_path, "".join(lines))


def escaped_rows(key, value):
    """Five lines of one layout, json.dumps defaults, the third's `key` being `value`."""
    rows = [{"model": "m", "task": "t", "sample_index": j, "answer": "4"} for j in range(5)]
    rows[2][key] = value
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)


@pytest.mark.parametrize("key", ["model", "task", "answer"])
@pytest.mark.parametrize("value", ["a\\b", "é", "a\nb", "a\x01b", "a\\", "\\\\"])
def test_an_escaped_value_is_read_on_the_block_path(tmp_path, loads_calls, key, value):
    # a value may end in an escaped backslash
    check_readers(tmp_path, escaped_rows(key, value))
    ingest._unescape.cache_clear()
    loads_calls.clear()
    read_log(tmp_path / "log.jsonl")
    assert loads_calls["loads"] == 0
    assert loads_calls["decodes"] == 1  # the one distinct escaped value


def test_an_escaped_lone_surrogate_is_an_answer_on_the_block_path(tmp_path, loads_calls):
    # an answer is graded, never written, so it need not be a name
    check_readers(tmp_path, escaped_rows("answer", "\ud800"))
    ingest._unescape.cache_clear()
    loads_calls.clear()
    assert read_log(tmp_path / "log.jsonl").records[("m", "t")].answers["\ud800"] == 1
    assert loads_calls["loads"] == 0
    assert loads_calls["decodes"] == 1


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("key", ["model", "task"])
def test_an_escaped_lone_surrogate_name_is_refused_on_its_line(tmp_path, key, block):
    with mock.patch.object(ingest, "_BLOCK", block):
        check_readers(tmp_path, escaped_rows(key, "\ud800"))
        with pytest.raises(ParseError, match=rf"log\.jsonl:3: field '{key}' '\\ud800' holds a surrogate code point, "
                                             "which UTF-8 cannot encode$"):
            read_log(tmp_path / "log.jsonl")


@pytest.mark.parametrize("key", ["model", "task", "answer"])
def test_an_escaped_quote_takes_the_checked_path(tmp_path, loads_calls, key):
    check_readers(tmp_path, escaped_rows(key, 'a"b'))
    loads_calls.clear()
    read_log(tmp_path / "log.jsonl")
    assert loads_calls["loads"] == 5


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("value", ["a\\x", "\\u12", "\\", "a\\\\\\"])
def test_a_value_that_does_not_decode_is_named_on_its_line(tmp_path, block, value):
    # an invalid escape, or an odd run of backslashes that escapes the quote
    # the layout pattern reads as the model's closing one, so the line matches
    lines = [f'{{"model":"{"m" if j != 2 else value}","task":"t","sample_index":{j},"answer":"4"}}\n'
             for j in range(5)]
    with mock.patch.object(ingest, "_BLOCK", block):
        check_readers(tmp_path, "".join(lines))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(tmp_path / 'log.jsonl'))}:3: invalid JSON"):
        read_log(tmp_path / "log.jsonl")


def template_log(templates, separators, lines=10_000):
    """`lines` per-completion lines, line j of the `templates` (model, task,
    answer) shapes numbered j % templates, each with its own sample_index."""
    return [
        json.dumps({"model": f"m{j % templates % 3}", "task": f"t{j % templates}", "sample_index": j,
                    "answer": f"a{j % templates % 5}"}, separators=separators) + "\n"
        for j in range(lines)
    ]


@pytest.mark.parametrize("separators", [(",", ":"), None], ids=["compact", "default"])
@pytest.mark.parametrize("templates", [1, 7, 300])
def test_a_per_completion_log_of_one_layout_is_read_without_json_loads(tmp_path, loads_calls, templates,
                                                                      separators):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(template_log(templates, separators)), encoding="utf-8")
    expected = parse_oracle.read_log(log)
    loads_calls.clear()
    assert read_log(log) == expected
    assert loads_calls["loads"] == 0


def test_a_layout_switch_inside_a_block_is_read_as_the_checked_parse(tmp_path, loads_calls):
    # graded-log's shape: flagged lines with an answer, then lines with an answer only
    lines = [f'{{"model":"flagged","task":"t{j // 1000}","sample_index":{j % 1000},'
             f'"answer":"{j % 30}","correct":{"true" if j % 30 == 7 else "false"}}}\n' for j in range(3000)]
    lines += [f'{{"model":"graded","task":"t{j // 1000}","sample_index":{j % 1000},"answer":"{j % 4}"}}\n'
              for j in range(3000)]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    expected = parse_oracle.read_log(log)
    loads_calls.clear()
    assert read_log(log) == expected
    # the block that holds the switch, and no other, is parsed line by line
    assert 0 < loads_calls["loads"] <= (ingest._BLOCK + 100) // min(map(len, lines)) + 1


def test_untrusted_templates_stay_on_the_checked_path(tmp_path, loads_calls):
    # every line has a key with an escape, so no block has a layout
    lines = [f'{{"\\"sample_index":{j % 2},"model":"m","task":"t","sample_index":{j},"correct":true}}\n'
             for j in range(50)]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    expected = parse_oracle.read_log(log)
    loads_calls.clear()
    assert read_log(log) == expected
    assert loads_calls["loads"] == 50


@pytest.mark.parametrize("block", BLOCKS)
def test_a_row_that_repeats_an_index_is_rejected_on_its_line(tmp_path, block):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(f'{{"model":"m","task":"t","sample_index":{j},"correct":true}}\n'
                           for j in (0, 1, 2, 3, 1)), encoding="utf-8")
    error = rf"^{re.escape(str(log))}:5: duplicate record key .*sample_index=1\)$"
    with mock.patch.object(ingest, "_BLOCK", block), pytest.raises(ParseError, match=error):
        read_log(log)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("indices", [(2, 0, 3, 5, 3), (1, 2, 0, 4, 2), (4, 3, 2, 1, 4)],
                         ids=["ahead", "below-stop-after-a-run-left-ahead", "ahead-reversed"])
def test_a_repeat_out_of_order_is_rejected_on_its_line(tmp_path, block, indices):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(f'{{"model":"m","task":"t","sample_index":{j},"correct":true}}\n' for j in indices),
                   encoding="utf-8")
    error = rf"^{re.escape(str(log))}:5: duplicate record key .*sample_index={indices[-1]}\)$"
    with mock.patch.object(ingest, "_BLOCK", block), pytest.raises(ParseError, match=error):
        read_log(log)


@st.composite
def index_orders(draw):
    """The lines of a per-completion log of up to four keys, interleaved at
    random.  Each key's sample_index values are 0..n-1, 1..n or a set with
    gaps, read in order, reversed or shuffled, with up to two repeats put in
    anywhere.  Some lines are flagged and some answer only, some with an
    escaped answer, so a block mixes lines with and without a backslash."""
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(0, 25))
        base = draw(st.sampled_from(("from 0", "from 1", "gaps")))
        if base == "gaps":
            indices = sorted(draw(st.sets(st.integers(0, 40), max_size=size)))
        else:
            first = int(base == "from 1")
            indices = list(range(first, first + size))
        arrangement = draw(st.sampled_from(("in order", "reversed", "shuffled")))
        if arrangement == "reversed":
            indices.reverse()
        elif arrangement == "shuffled":
            indices = draw(st.permutations(indices))
        for _ in range(draw(st.integers(0, 2)) if indices else 0):
            indices.insert(draw(st.integers(0, len(indices))), draw(st.sampled_from(indices)))
        keys.append(indices)
    order = draw(st.permutations([k for k, indices in enumerate(keys) for _ in indices]))
    unread = [iter(indices) for indices in keys]
    verdicts = ('"correct":true', '"correct":false', '"answer":"4"', '"answer":"a\\\\b"', '"answer":"\\u00e9"')
    return [f'{{"model":"m{k % 2}","task":"t{k // 2}","sample_index":{next(unread[k])},'
            f'{draw(st.sampled_from(verdicts))}}}\n' for k in order]


@settings(max_examples=300, deadline=None)
@given(index_orders(), st.sampled_from(BLOCKS))
def test_sample_indices_in_any_order_match_the_checked_parse(lines, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_BLOCK", block):
        check_readers(Path(tmp), "".join(lines))
    assert outcome(ingest.parse_records, lines) == outcome(parse_oracle.parse_records, lines)
