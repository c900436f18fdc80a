"""One rule for a name, and whole outputs.

`records.check_name` is the one rule for a model, task or source name: a
nonempty str that UTF-8 can encode, so one with no code point in
U+D800-U+DFFF.  Every way a name enters the program refuses a lone
surrogate with the rule's message, a log on the line it is read from, so
no command writes a file it could not finish.  A command that fails after
its report is built leaves none of its files either.
"""

import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import covertau.cli
from covertau import GoldAnswer, GuesserSpec, SampleRecord, SuccessProfile, TaskColumns, TaskCounts, load_run
from covertau.cli import main
from covertau.ingest import ParseError, _provenance_fault, parse_gold, parse_records, read_log
from covertau.records import check_name, count_columns

LONE = "\ud800"
REFUSED = "holds a surrogate code point, which UTF-8 cannot encode"
# the rule's message for LONE as `what`, as a pattern
MESSAGE = re.escape(f"{LONE!r} {REFUSED}")


def utf8_encodes(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@given(st.one_of(st.text(st.characters(exclude_categories=())), st.sampled_from(["\udfff", "a\udbff\udc00"])))
def test_the_rule_accepts_exactly_the_nonempty_strings_utf8_can_encode(text):
    if text and utf8_encodes(text):
        assert check_name(text, "name") is text
    else:
        with pytest.raises(ValueError, match=re.escape("name must be a nonempty string, got ''") if not text
                           else re.escape(f"name {text!r} {REFUSED}")):
            check_name(text, "name")


@pytest.mark.parametrize("value", [None, 1, b"m", ("m",)])
def test_the_rule_refuses_what_is_not_a_str(value):
    with pytest.raises(ValueError, match=re.escape(f"name must be a nonempty string, got {value!r}")):
        check_name(value, "name")


def aggregated(*models, task="t"):
    return "".join(json.dumps({"model": m, "task": task, "n": 4, "c": 1}) + "\n" for m in models)


@pytest.mark.parametrize("text, lineno", [
    (aggregated("a", LONE), 2),  # one layout: the block path sends the block to the per-line path
    ('{"model": "a", "task": "t", "n": 4, "c": 1}\n' + aggregated(LONE), 2),  # two layouts: the per-line path
    ("\n" + aggregated(LONE, "b"), 2),  # a blank first line: the per-line path
    ("".join(json.dumps({"model": "m", "task": t, "sample_index": 0, "correct": True}) + "\n" for t in ("t", LONE)),
     2),
], ids=["block", "per-line", "blank-first", "per-completion"])
def test_a_log_name_that_utf8_cannot_encode_is_refused_on_its_line(tmp_path, text, lineno):
    log = tmp_path / "log.jsonl"
    log.write_text(text, encoding="utf-8")
    key = "task" if "sample_index" in text else "model"
    with pytest.raises(ParseError, match=rf"^{re.escape(str(log))}:{lineno}: field '{key}' {MESSAGE}$"):
        read_log(log)
    with pytest.raises(ParseError, match=rf"^<stream>:{lineno}: field '{key}' {MESSAGE}$"):
        parse_records(text.split("\n"))


def test_a_gold_task_that_utf8_cannot_encode_is_refused_on_its_line():
    lines = ['{"task": "t", "answer": "1"}', json.dumps({"task": LONE, "answer": "2"})]
    with pytest.raises(ParseError, match=rf"^g:2: field 'task' {MESSAGE}$"):
        parse_gold(lines, "g")
    assert parse_gold(['{"task": "t", "answer": "\\ud800"}']) == {"t": LONE}  # an answer is not a name


@pytest.mark.parametrize("answer", ['""', "5", None])
def test_a_gold_answer_must_be_a_nonempty_string(answer):
    line = '{"task": "t"' + ("" if answer is None else f', "answer": {answer}') + "}"
    with pytest.raises(ParseError, match="^g:1: field 'answer' must be a nonempty string$"):
        parse_gold([line], "g")


def test_a_run_written_with_a_lone_surrogate_name_is_refused_on_its_line(tmp_path):
    # the run that an earlier release, which let a lone surrogate through, wrote of `aggregated(LONE, "b")`
    body = '{"c":1,"model":"\\ud800","n":4,"task":"t"}\n{"c":1,"model":"b","n":4,"task":"t"}\n'
    head = {"format": "covertau-run-v2", "kind": "manifest", "record_count": 8,
            "run_id": hashlib.sha256(body.encode()).hexdigest(), "source_digests": {"log.jsonl": "0" * 64},
            "verdict_source": "aggregated"}
    run = tmp_path / "run.jsonl"
    run.write_text(json.dumps(head, sort_keys=True, separators=(",", ":")) + "\n" + body, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(run))}:2: field 'model' {MESSAGE}$"):
        load_run(run)


@pytest.mark.parametrize("make, what", [
    (lambda: list(count_columns({LONE: [TaskCounts("t", 1, 0)]})), "model"),
    (lambda: list(count_columns({"m": TaskColumns._make([LONE], [1], [0])})), "task"),
    (lambda: SampleRecord(LONE, "t", 0), "model"),
    (lambda: SampleRecord("m", LONE, 0), "task"),
    (lambda: TaskCounts(LONE, 1, 0), "task"),
    (lambda: TaskColumns(["a", LONE], [1, 1], [0, 0]), "task"),
    (lambda: SuccessProfile(LONE, (("t", Fraction(1)),)), "model"),
    (lambda: SuccessProfile("m", ((LONE, Fraction(1)),)), "task"),
    (lambda: GoldAnswer(LONE, "1"), "task"),
    (lambda: GuesserSpec(support_size=2, tasks=1, trials=1, seed=0, model=LONE), "model"),
], ids=["count_columns-model", "count_columns-task", "SampleRecord-model", "SampleRecord-task", "TaskCounts",
        "TaskColumns", "SuccessProfile-model", "SuccessProfile-task", "GoldAnswer", "GuesserSpec"])
def test_a_value_with_a_lone_surrogate_name_is_refused(make, what):
    with pytest.raises(ValueError, match=rf"^{what} {MESSAGE}$"):
        make()


@pytest.mark.parametrize("digests, verdict_source, what", [
    ({}, LONE, "field 'verdict_source'"),
    ({LONE: "0" * 64}, "flags", "file name or digest in field 'source_digests'"),
    ({"log": LONE}, "flags", "file name or digest in field 'source_digests'"),
])
def test_provenance_with_a_lone_surrogate_is_at_fault(digests, verdict_source, what):
    assert _provenance_fault(digests, verdict_source) == f"{what} {LONE!r} {REFUSED}"


@pytest.mark.parametrize("argv", [
    ["ingest", "--out", "run.jsonl"],
    ["compute", "--out-dir", "out"],
    ["curves", "--out-dir", "out"],
    ["dominance", "--out-dir", "out"],
])
def test_each_command_refuses_the_log_on_its_line_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "log.jsonl").write_text(aggregated(LONE, "b"), encoding="utf-8")
    assert main([*argv, "--input", "log.jsonl"]) == 2
    assert capsys.readouterr() == ("", f"error: log.jsonl:1: field 'model' {LONE!r} {REFUSED}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["log.jsonl"]


def test_simulate_refuses_a_model_that_utf8_cannot_encode(tmp_path, capsys):
    model = "\udcff"  # what argv decodes the byte 0xff to
    assert main(["simulate", "--kind", "guesser", "--tasks", "2", "--trials", "2", "--model", model,
                 "--out", str(tmp_path / "log.jsonl"), "--gold-out", str(tmp_path / "gold.jsonl")]) == 2
    assert capsys.readouterr() == ("", f"error: --model {model!r} {REFUSED}\n")
    assert list(tmp_path.iterdir()) == []


def two_model_log(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(aggregated("a", "b"), encoding="utf-8")
    return log


def failing(name):
    def render(*args):
        raise ValueError(f"{name} failed")
    return render


def test_curves_renders_every_file_before_it_writes_one(tmp_path, monkeypatch, capsys):
    log = two_model_log(tmp_path)
    monkeypatch.setattr(covertau.cli, "pass_curves_svg", failing("pass_curves_svg"))  # the last file
    assert main(["curves", "--input", str(log), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: pass_curves_svg failed\n"
    assert [path.name for path in tmp_path.iterdir()] == ["log.jsonl"]


def test_compute_leaves_no_file_when_its_bundle_fails(tmp_path, monkeypatch, capsys):
    log = two_model_log(tmp_path)

    def bundle_chunks(bundle):
        yield "{"
        raise ValueError("bundle_chunks failed")

    monkeypatch.setattr(covertau.cli, "bundle_chunks", bundle_chunks)
    assert main(["compute", "--input", str(log), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: bundle_chunks failed\n"
    assert list((tmp_path / "out").iterdir()) == []
    monkeypatch.setattr(covertau.cli, "metrics_csv", failing("metrics_csv"))
    assert main(["compute", "--input", str(log), "--out-dir", str(tmp_path / "out2")]) == 2
    assert not (tmp_path / "out2").exists()


@pytest.mark.parametrize("models, argv, err", [
    (("a",), [], "dominance needs at least 2 models in the run"),
    (("a", "b"), ["--model", "a", "--model", "a"], "dominance needs at least 2 models; --model selects only 'a'"),
], ids=["one-in-the-run", "one-selected"])
def test_dominance_refuses_one_model_before_any_report(tmp_path, monkeypatch, capsys, models, argv, err):
    log = tmp_path / "log.jsonl"
    log.write_text(aggregated(*models), encoding="utf-8")
    monkeypatch.setattr(covertau.cli, "build_report", failing("build_report"))
    assert main(["dominance", "--input", str(log), "--bootstrap", "20000", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
