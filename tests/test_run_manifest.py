"""A run's manifest is the one its body implies: the body renderer, and the
checks on save and on load."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau import ParseError, TaskCounts, build_manifest, load_run, persist_run
from covertau import ingest
from covertau.cli import main


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
        (TWO_MODELS, "models", lambda obj: obj["models"].reverse()),
        (TWO_MODELS, "trials", lambda obj: obj["trials"]["m2"].__setitem__("t1", 5)),
        (TWO_MODELS, "tasks", lambda obj: obj["tasks"].remove("t2")),
        (TWO_MODELS, "trials", lambda obj: obj["trials"]["m1"].pop("t2")),
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
    _rewrite_manifest(path, lambda obj: obj.pop("models"))
    path.write_text(path.read_text(encoding="utf-8").replace('"c":1,', '"c":2,'), encoding="utf-8")
    with pytest.raises(ParseError, match=r":1: run_id does not match"):
        load_run(path)


@pytest.mark.parametrize(
    "field, value",
    [("record_count", 2), ("trials", {"m": {"t": 2}}), ("models", ("m", "m")), ("tasks", ())],
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
    manifest = dataclasses.replace(built, record_count=True, trials={"m": {"t": True}})
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
