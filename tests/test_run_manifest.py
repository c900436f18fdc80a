"""A run's manifest is the one its body implies: the body renderer, and the
checks on save and on load."""

import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau import ParseError, TaskCounts, build_manifest, load_run, persist_run
from covertau import ingest
from covertau.cli import main
from covertau.ingest import read_log


def json_dumps_body(counts):
    """The run body as one `json.dumps` per line: the renderer the per-model
    template replaced, kept as its oracle."""
    lines = []
    for model in sorted(counts):
        for tc in sorted(counts[model], key=lambda t: t.task):
            obj = {"c": tc.c, "model": model, "n": tc.n, "task": tc.task}
            lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


# quotes, backslashes, control characters, non-ASCII text and lone surrogates,
# mixed with any code point (surrogates included)
ODD_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x80", "é", " ", "漢", "\U0001f600", "\ud800", "\udfff"]
names = st.lists(
    st.one_of(st.sampled_from(ODD_CHARS), st.characters(exclude_categories=())), min_size=1, max_size=6
).map("".join)
trials = st.one_of(st.integers(1, 300), st.integers(1, 2**70)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))
)
counts_maps = st.dictionaries(
    names, st.dictionaries(names, trials, min_size=1, max_size=5), min_size=1, max_size=4
).map(lambda per_model: {
    # tasks in any order: the renderer sorts them
    m: [TaskCounts(task=t, n=n, c=c) for t, (n, c) in reversed(ts.items())] for m, ts in per_model.items()
})


@settings(max_examples=300, deadline=None)
@given(counts_maps)
def test_template_renderer_matches_json_dumps(counts):
    assert ingest._render_body(counts) == json_dumps_body(counts)


def test_odd_names_round_trip_byte_identically(tmp_path):
    counts = {
        'q"uote\\': [TaskCounts("t\x00\n", 3, 1), TaskCounts("é\ud800", 2**65, 7)],
        "漢\U0001f600\x1f": [TaskCounts("t\x00\n", 1, 1)],
    }
    manifest = build_manifest(counts, {"lög": "0" * 64}, "flags")
    first = persist_run(manifest, counts, tmp_path / "one.jsonl")
    assert first.read_text(encoding="utf-8").split("\n", 1)[1] == json_dumps_body(counts)
    loaded_manifest, loaded = load_run(first)
    assert loaded_manifest == manifest
    assert loaded == {m: sorted(tcs, key=lambda t: t.task) for m, tcs in counts.items()}
    second = persist_run(loaded_manifest, loaded, tmp_path / "two.jsonl")
    assert first.read_bytes() == second.read_bytes()


def _write(tmp_path, counts):
    return persist_run(build_manifest(counts, {"log": "x" * 64}, "aggregated"), counts, tmp_path / "run.jsonl")


def _rewrite_manifest(path, edit):
    head, body = path.read_text(encoding="utf-8").split("\n", 1)
    obj = json.loads(head)
    edit(obj)
    path.write_text(json.dumps(obj) + "\n" + body, encoding="utf-8")


TWO_MODELS = {
    "m1": [TaskCounts("t1", 4, 1), TaskCounts("t2", 5, 2)],
    "m2": [TaskCounts("t1", 6, 3), TaskCounts("t2", 7, 0)],
}
ONE_RECORD = {"m": [TaskCounts("t", 1, 1)]}


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


@pytest.mark.parametrize(
    "counts, key, edit",
    [
        # a v1 copy of the body is rejected even where it agrees with the body
        (TWO_MODELS, "models", _set("models", ["m1", "m2"])),
        (TWO_MODELS, "trials", _set("trials", {"m1": {"t1": 4, "t2": 5}, "m2": {"t1": 6, "t2": 7}})),
        (TWO_MODELS, "tasks", _set("tasks", ["t1", "t2"])),
        (TWO_MODELS, "trials", _set("trials", {"m1": {"t1": 4}})),
        (TWO_MODELS, "record_count", _set("record_count", 23)),
        (TWO_MODELS, "record_count", _set("record_count", 22.0)),
        (ONE_RECORD, "record_count", _set("record_count", True)),
        (ONE_RECORD, "trials", _set("trials", {"m": {"t": True}})),
        (ONE_RECORD, "models", _set("models", ["m", "m"])),
    ],
)
def test_manifest_unlike_its_body_is_a_line_one_error(tmp_path, capsys, counts, key, edit):
    path = _write(tmp_path, counts)
    load_run(path)
    _rewrite_manifest(path, edit)
    with pytest.raises(ParseError, match=rf"run\.jsonl:1: field '{key}' must be"):
        load_run(path)
    assert main(["compute", "--input", str(path)]) == 2
    assert f":1: field '{key}' must be" in capsys.readouterr().err


def test_edited_body_is_reported_before_a_malformed_manifest(tmp_path):
    path = _write(tmp_path, TWO_MODELS)
    _rewrite_manifest(path, lambda obj: obj.pop("record_count"))
    path.write_text(path.read_text(encoding="utf-8").replace('"c":1,', '"c":2,'), encoding="utf-8")
    with pytest.raises(ParseError, match=r":1: run_id does not match"):
        load_run(path)


@pytest.mark.parametrize(
    "field, value",
    [("record_count", 2)],
)
def test_manifest_unlike_its_counts_rejected_on_save(tmp_path, field, value):
    manifest = dataclasses.replace(build_manifest(ONE_RECORD, {}, "flags"), **{field: value})
    with pytest.raises(ValueError, match="does not match the counts"):
        persist_run(manifest, ONE_RECORD, tmp_path / "run.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_save_writes_the_implied_manifest_values(tmp_path):
    # True == 1 in Python, so this manifest equals the implied one; written as
    # given it would read `true`, which load_run rejects
    built = build_manifest(ONE_RECORD, {}, "flags")
    manifest = dataclasses.replace(built, record_count=True)
    path = persist_run(manifest, ONE_RECORD, tmp_path / "run.jsonl")
    assert path.read_bytes() == persist_run(built, ONE_RECORD, tmp_path / "built.jsonl").read_bytes()
    assert '"record_count":1,' in path.read_text(encoding="utf-8")
    assert load_run(path) == (built, ONE_RECORD)


def _with_body(tmp_path, counts, body):
    """A run file for `counts` whose body is replaced by `body`, its run_id
    rehashed, so that only the body's own schema can be at fault."""
    path = _write(tmp_path, counts)
    head = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[0])
    head["run_id"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(head) + "\n" + body, encoding="utf-8")
    return path


def test_v1_run_file_asks_for_a_re_ingest(tmp_path, capsys):
    path = _write(tmp_path, ONE_RECORD)
    _rewrite_manifest(path, lambda obj: obj.update(
        format="covertau-run-v1", models=["m"], tasks=["t"], trials={"m": {"t": 1}}
    ))
    message = "run.jsonl:1: unsupported run format 'covertau-run-v1'; re-run covertau ingest on its source log"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_run(path)
    assert main(["compute", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_manifest_holds_six_keys_and_no_other(tmp_path):
    path = _write(tmp_path, TWO_MODELS)
    head = json.loads(path.read_text(encoding="utf-8").split("\n", 1)[0])
    assert sorted(head) == ["format", "kind", "record_count", "run_id", "source_digests", "verdict_source"]
    assert head["format"] == "covertau-run-v2" and head["record_count"] == 22
    _rewrite_manifest(path, _set("trials", {"m1": {"t1": 4, "t2": 5}, "m2": {"t1": 6, "t2": 7}}))
    message = "run.jsonl:1: field 'trials' must be absent from a covertau-run-v2 manifest"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_run(path)


def test_per_completion_run_body_is_named_at_its_first_line(tmp_path, capsys):
    # a blank line, then per-completion lines that parse as a raw log
    lines = ['{"correct":true,"model":"m","sample_index":0,"task":"t"}',
             '{"answer":"4","model":"m","sample_index":1,"task":"t"}']
    body = "\n" + "".join(line + "\n" for line in lines)
    path = _with_body(tmp_path, {"m": [TaskCounts("t", 2, 1)]}, body)
    message = "run.jsonl:3: per-completion line; a run body holds aggregated (n, c) lines"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_run(path)
    assert main(["compute", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_run_body_is_split_at_newlines_only(tmp_path):
    # raw U+2028 and U+0085 end a line for str.splitlines, not in a log
    lines = ['{"c":1,"model":"m","n":2,"task":"a\u2028b"}', '{"c":0,"model":"m","n":1,"task":"c\x85d"}']
    body = "".join(line + "\n" for line in lines)
    log = tmp_path / "log.jsonl"
    log.write_text(body, encoding="utf-8")
    raw = read_log(log).counts
    assert raw == {"m": [TaskCounts("a\u2028b", 2, 1), TaskCounts("c\x85d", 1, 0)]}
    assert load_run(_with_body(tmp_path, raw, body))[1] == raw


@pytest.mark.parametrize(
    "body, lineno, error",
    [
        ('{"c":1,"model":"m","n":2,"sample_index":0,"task":"t"}\n{"c":0,"model":"m","n":1,"task":"u"}\n',
         1, "line mixes per-completion and aggregated fields"),
        ('{"c":1,"model":"m","n":2,"task":"t"}\n{"c":0,"kind":"manifest","model":"m","n":1,"task":"u"}\n',
         2, "found a run manifest"),
        ('{"c":1,"model":"m","n":2,"task":"t"}\n{"model":"m","task":"u","sample_index":0,"correct":false}\n',
         2, "mixed schemas in one file"),
    ],
)
def test_run_body_gets_the_raw_log_schema_checks(tmp_path, capsys, body, lineno, error):
    log = tmp_path / "log.jsonl"
    log.write_text(body, encoding="utf-8")
    assert main(["compute", "--input", str(log)]) == 2
    assert f"log.jsonl:{lineno}: {error}" in capsys.readouterr().err
    # as a run body the same lines sit one line lower, under the manifest
    path = _with_body(tmp_path, {"m": [TaskCounts("t", 2, 1), TaskCounts("u", 1, 0)]}, body)
    with pytest.raises(ParseError, match=rf"run\.jsonl:{lineno + 1}: {error}"):
        load_run(path)
    assert main(["compute", "--input", str(path)]) == 2
    assert f"run.jsonl:{lineno + 1}: {error}" in capsys.readouterr().err
