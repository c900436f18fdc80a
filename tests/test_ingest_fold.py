"""The streaming per-key fold of `parse_records`/`counts_from_log` against the
record-by-record path (`apply_grading` then `aggregate`) as its oracle."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau import SampleRecord, aggregate, apply_grading, counts_from_log, parse_records
from covertau.synth import records_to_jsonl

MODELS = ("m1", "m2", "m3")
TASKS = ("t1", "t2", "t3", "t4")
# numeric spellings, case and whitespace variants, text, and the empty answer
ANSWERS = ("42", "42.0", " 4.2e1 ", "41", "Forty  Two", "forty two", "", ".5", "0.50", "1/2")
GOLDS = ("42", "forty two", "0.5", "1/2", "   ")  # "   " normalizes to empty: a grading error


@st.composite
def logs(draw):
    """(records in file order, the file's lines, gold or None)."""
    keys = draw(st.lists(st.tuples(st.sampled_from(MODELS), st.sampled_from(TASKS)),
                         min_size=1, max_size=6, unique=True))
    records = []
    for model, task in keys:
        # non-contiguous indices, some past the small-int cache
        indices = draw(st.lists(st.integers(0, 5000), min_size=1, max_size=8, unique=True))
        for index in indices:
            shape = draw(st.sampled_from(("flag", "answer", "both")))
            correct = None if shape == "answer" else draw(st.booleans())
            answer = None if shape == "flag" else draw(st.sampled_from(ANSWERS))
            records.append(SampleRecord(model, task, index, answer=answer, correct=correct))
    records = draw(st.permutations(records))
    lines = []
    for line in records_to_jsonl(records).splitlines():
        lines.extend([""] * draw(st.integers(0, 1)) + [" \t"] * draw(st.integers(0, 1)))
        lines.append(line)
    gold = draw(st.none() | st.dictionaries(st.sampled_from(TASKS), st.sampled_from(GOLDS)))
    return records, lines, gold


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return exc


def fold(lines, gold):
    return outcome(lambda: counts_from_log(parse_records(lines), gold))


def oracle(records, gold):
    def run():
        resolved, source = apply_grading(records, gold)
        return aggregate(resolved), source

    return outcome(run)


def first_ungradable_line(lines, gold):
    for lineno, line in enumerate(lines, start=1):
        obj = json.loads(line) if line.strip() else {}
        if obj and "correct" not in obj and (gold is None or obj["task"] not in gold):
            return lineno
    return None


@settings(max_examples=300, deadline=None)
@given(logs())
def test_fold_matches_record_path(log):
    records, lines, gold = log
    folded, expected = fold(lines, gold), oracle(records, gold)
    if isinstance(expected, ValueError):
        # the same error; where the oracle names a record, the fold also
        # names that record's line
        assert isinstance(folded, ValueError)
        assert str(folded).endswith(str(expected))
        if "sample_index=" in str(expected):
            assert str(folded).startswith(f"<stream>:{first_ungradable_line(lines, gold)}: ")
    else:
        assert folded == expected


def log_lines(models=2, tasks=5, trials=5000):
    """50,000 per-completion lines: flags, answers, and both."""
    for m in range(models):
        for t in range(tasks):
            for j in range(trials):
                obj = {"model": f"model-{m}", "task": f"task-{t:03d}", "sample_index": j}
                if j % 3:
                    obj["correct"] = j % 7 == 0
                if j % 3 == 0 or j % 2:
                    obj["answer"] = str(j % 11)
                yield json.dumps(obj) + "\n"


def test_parse_memory_stays_per_key():
    # A record per line (frozen SampleRecord in a tuple) peaked at about
    # 370 bytes per line here; the fold keeps only each key's set of seen
    # sample_index values (about 130 bytes per line, the set and its ints).
    tracemalloc.start()
    try:
        parsed = parse_records(log_lines())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000 * 180, f"parse peaked at {peak / 50_000:.0f} bytes per line"
    assert len(parsed.records) == 10


@pytest.mark.parametrize("gold", [None, {"task-000": "3"}, {"task-000": "3", "task-001": "4.0"}])
def test_generated_log_matches_oracle(gold):
    lines = list(log_lines(models=2, tasks=2, trials=300))
    records = [SampleRecord(o["model"], o["task"], o["sample_index"], o.get("answer"), o.get("correct"))
               for o in map(json.loads, lines)]
    folded, expected = fold(lines, gold), oracle(records, gold)
    if isinstance(expected, ValueError):
        assert str(folded).endswith(str(expected))
    else:
        assert folded == expected
