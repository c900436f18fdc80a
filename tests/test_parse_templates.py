"""`parse_records` reads repeated per-completion lines from trusted templates.

A template is a line's text around its sample_index digits.  It is trusted
after two lines of it with different digits were parsed by `json.loads` to
the same line apart from sample_index, each with its own digits as
sample_index; later lines of it are read without `json.loads`.  These tests
hold the result to the checked per-line parse in `parse_oracle`, tallies
and error messages alike, and count the `json.loads` calls.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from covertau import parse_records
from covertau.ingest import ParseError

MODELS = ("m", "mé", 'm"q', "m\\n")
TASKS = ("t", "τ", "t 2")
# the key text inside answers, escapes and non-ASCII text, some graded and some not
ANSWERS = ("4", "", 'say "sample_index":5', '"sample_index": 7', "é\u2028ü", "a\\b", None)
# indices that are not a JSON integer of the template's form, or not valid at all
ODD_INDICES = ("-0", "01", "00", "1.0", "1e3", "1E0", "true", "-3", "5" * 5000)
COLONS = (":", ": ", ":  ", ":\t")
COMMAS = (",", ", ")
AGGREGATED = '{"model":"m","task":"t","n":3,"c":1}'
INDEX = "\0"  # stands for the line's sample_index text; json.dumps never writes a raw NUL


@st.composite
def templates(draw):
    """(pairs, colon, comma): the line's keys and value texts in order,
    where INDEX stands for the line's sample_index text."""
    ascii_only = draw(st.booleans())

    def text(value):
        return json.dumps(value, ensure_ascii=ascii_only)

    pairs = [('"model"', text(draw(st.sampled_from(MODELS)))),
             ('"task"', text(draw(st.sampled_from(TASKS)))),
             ('"sample_index"', INDEX)]
    correct = draw(st.sampled_from(("true", "false", None)))
    if correct is not None:
        pairs.append(('"correct"', correct))
    answer = draw(st.sampled_from(ANSWERS))
    if answer is not None:
        pairs.append(('"answer"', text(answer)))
    value = st.just(INDEX) | st.integers(0, 30).map(str)  # the line's index or a fixed one
    if draw(st.booleans()):  # the key text inside a key
        pairs.append(('"\\"sample_index"', draw(value)))
    if draw(st.booleans()):  # the key inside a nested object
        pairs.append(('"meta"', '{"sample_index":%s}' % draw(value)))
    if draw(st.integers(0, 3)) == 3:  # a duplicate sample_index key
        pairs.append(('"sample_index"', draw(value)))
    pairs = draw(st.permutations(pairs))
    return pairs, draw(st.sampled_from(COLONS)), draw(st.sampled_from(COMMAS))


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


def outcome(parse, lines):
    try:
        return parse(lines)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(logs())
def test_parse_records_matches_checked_oracle(lines):
    assert outcome(parse_records, lines) == outcome(parse_oracle.parse_records, lines)


@pytest.mark.parametrize("index", ODD_INDICES + ("7 ", " 7", "99999999999999999999"))
def test_an_odd_index_on_a_trusted_template_takes_the_checked_path(index):
    # lines 2 and 3 make the template trusted, line 4 holds the odd index
    lines = ['{"model":"m","task":"t","sample_index":%s,"correct":true}\n' % j for j in ("0", "1", "2", index, "4")]
    assert outcome(parse_records, lines) == outcome(parse_oracle.parse_records, lines)


def template_log(templates, separators, lines=10_000):
    """`lines` per-completion lines, line j of the `templates` (model, task,
    answer) shapes numbered j % templates, each with its own sample_index."""
    return [
        json.dumps({"model": f"m{j % templates % 3}", "task": f"t{j % templates}", "sample_index": j,
                    "answer": f"a{j % templates % 5}"}, separators=separators) + "\n"
        for j in range(lines)
    ]


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


@pytest.mark.parametrize("separators", [(",", ":"), None], ids=["compact", "default"])
@pytest.mark.parametrize("templates", [1, 7, 300])
def test_json_loads_runs_twice_per_template(loads_calls, templates, separators):
    lines = template_log(templates, separators)
    expected = parse_oracle.parse_records(lines)
    loads_calls.clear()
    assert parse_records(lines) == expected
    # the first line, read before the file's kind is known, then two witnesses per template
    assert loads_calls["loads"] <= 2 * templates + 1


def test_untrusted_templates_stay_on_the_checked_path(loads_calls):
    # every line splits at the key text inside a key, and its own index sits
    # in the rest of the line: no two lines share a template
    lines = [f'{{"\\"sample_index":{j % 2},"model":"m","task":"t","sample_index":{j},"correct":true}}\n'
             for j in range(50)]
    expected = parse_oracle.parse_records(lines)
    loads_calls.clear()
    assert parse_records(lines) == expected
    assert loads_calls["loads"] == 50


def test_a_hit_line_that_repeats_an_index_is_rejected_on_its_line():
    lines = [f'{{"model":"m","task":"t","sample_index":{j},"correct":true}}\n' for j in (0, 1, 2, 3, 1)]
    with pytest.raises(ParseError, match=r"^<stream>:5: duplicate record key .*sample_index=1\)$"):
        parse_records(lines)
