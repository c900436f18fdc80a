"""A run's manifest is the one its body implies: the body renderer, and the
checks on save and on load."""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertau import ParseError, RunManifest, TaskColumns, TaskCounts, build_manifest, load_run, persist_run
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
# {model: {task: (n, c)}}, names drawn as above
count_rows = st.dictionaries(names, st.dictionaries(names, trials, min_size=1, max_size=5), min_size=1, max_size=4)


def task_counts(rows):
    """The `TaskCounts` lists of `count_rows`, tasks in any order: the renderer sorts them."""
    return {m: [TaskCounts(t, n, c) for t, (n, c) in reversed(ts.items())] for m, ts in rows.items()}


PAIR = "\ud800\udfff"  # a high surrogate, then a low one: JSON reads their escapes back as one character
LONE = "\ud800"
SURROGATE = "holds a surrogate code point, which UTF-8 cannot encode"


def utf8_encodes(text):
    """Whether UTF-8 can encode `text`: whether it holds no surrogate code point."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def unwritable(rows, *texts):
    """Whether a model or task name of `rows`, or one of `texts`, is a str that UTF-8 cannot encode."""
    names = [*rows, *(t for ts in rows.values() for t in ts), *texts]
    return any(isinstance(name, str) and not utf8_encodes(name) for name in names)


@settings(max_examples=300, deadline=None)
@given(count_rows)
def test_template_renderer_matches_json_dumps(rows):
    if unwritable(rows):  # a name that UTF-8 cannot write is refused, by TaskCounts or by the counts-map rule
        with pytest.raises(ValueError, match=SURROGATE):
            "".join(ingest._body_chunks(task_counts(rows)))
    else:
        counts = task_counts(rows)
        assert "".join(ingest._body_chunks(counts)) == json_dumps_body(counts)


def test_odd_names_round_trip_byte_identically(tmp_path):
    counts = {
        'q"uote\\': [TaskCounts("t\x00\n", 3, 1), TaskCounts("é\u2028\U000103ff", 2**65, 7)],
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
    with pytest.raises(ValueError, match=f"task 'é\\\\ud800' {SURROGATE}"):  # UTF-8 cannot write it
        TaskCounts("é\ud800", 2**65, 7)


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


@pytest.mark.parametrize("bad_line", [3, 2999], ids=["first-block", "last-block"])
def test_edited_body_with_a_malformed_line_is_reported_as_edited(tmp_path, capsys, bad_line):
    # about 120 KB of body, read in two blocks or more: the body is hashed as it
    # is parsed, and the rest of it after the malformed line is hashed too
    counts = {"m": [TaskCounts(f"task-{t:05d}", 4, t % 5) for t in range(3000)]}
    path = _write(tmp_path, counts)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[bad_line - 1] = lines[bad_line - 1].replace('"n":4,', '"n":0,')
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ParseError, match=r"run\.jsonl:1: run_id does not match"):
        load_run(path)
    assert main(["compute", "--input", str(path)]) == 2
    assert "run.jsonl:1: run_id does not match" in capsys.readouterr().err
    # under a run_id that matches the edit, the same body is reported by its line
    _rewrite_manifest(path, lambda obj: obj.__setitem__(
        "run_id", hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()))
    with pytest.raises(ParseError, match=rf"run\.jsonl:{bad_line}: n must be >= 1"):
        load_run(path)


@pytest.mark.parametrize(
    "field, value",
    [("record_count", 2)],
)
def test_manifest_unlike_its_counts_rejected_on_save(tmp_path, field, value):
    built = build_manifest(ONE_RECORD, {}, "flags")
    manifest = RunManifest(**{"run_id": built.run_id, "source_digests": built.source_digests,
                              "record_count": built.record_count, "verdict_source": built.verdict_source,
                              field: value})
    with pytest.raises(ValueError, match="does not match the counts"):
        persist_run(manifest, ONE_RECORD, tmp_path / "run.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_save_writes_the_implied_manifest_values(tmp_path):
    # True == 1 in Python, so this manifest equals the implied one; written as
    # given it would read `true`, which load_run rejects
    built = build_manifest(ONE_RECORD, {}, "flags")
    manifest = RunManifest(built.run_id, built.source_digests, True, built.verdict_source)
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



@pytest.mark.parametrize(
    "counts, digests, verdict_source, message",
    [
        ({"a": [], "b": ONE_RECORD["m"]}, {}, "flags", "no task counts for model 'a'"),
        ({"a": []}, {}, "flags", "no task counts for model 'a'"),
        ({"": ONE_RECORD["m"]}, {}, "flags", "model must be a nonempty string, got ''"),
        ({}, {}, "flags", "no models in the counts"),
        ({PAIR: [TaskCounts("t", 1, 0)]}, {}, "flags", f"model {PAIR!r} {SURROGATE}"),
        ({LONE: [TaskCounts("t", 1, 0)]}, {}, "flags", f"model {LONE!r} {SURROGATE}"),
        # a view built without its constructor, as the loaders build theirs
        ({"m": TaskColumns._make([PAIR], [1], [0])}, {}, "flags", f"task {PAIR!r} {SURROGATE}"),
        (ONE_RECORD, {"x": 1}, "flags", "field 'source_digests' must be a map of file names to digests"),
        (ONE_RECORD, {1: "ab"}, "flags", "field 'source_digests' must be a map of file names to digests"),
        (ONE_RECORD, {"x": ""}, "flags", "file name or digest in field 'source_digests' must be a nonempty string, "
                                         "got ''"),
        (ONE_RECORD, {PAIR: "ab"}, "flags", f"file name or digest in field 'source_digests' {PAIR!r} {SURROGATE}"),
        (ONE_RECORD, {"x": "a" + LONE}, "flags", f"file name or digest in field 'source_digests' {'a' + LONE!r} "
                                                 f"{SURROGATE}"),
        (ONE_RECORD, {}, "", "field 'verdict_source' must be a nonempty string, got ''"),
        (ONE_RECORD, {}, None, "field 'verdict_source' must be a nonempty string, got None"),
        (ONE_RECORD, {}, "flags" + PAIR, f"field 'verdict_source' {'flags' + PAIR!r} {SURROGATE}"),
        (ONE_RECORD, {}, LONE, f"field 'verdict_source' {LONE!r} {SURROGATE}"),
    ],
    ids=["empty-model-beside-another", "only-an-empty-model", "empty-model-name", "no-models", "paired-model-name",
         "lone-surrogate-model-name", "paired-task-name", "digest-not-a-string", "file-name-not-a-string",
         "empty-digest", "paired-file-name", "lone-surrogate-digest", "empty-verdict-source", "no-verdict-source",
         "paired-verdict-source", "lone-surrogate-verdict-source"],
)
def test_run_that_would_not_load_back_equal_is_refused_before_writing(tmp_path, counts, digests, verdict_source,
                                                                      message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_manifest(counts, digests, verdict_source)
    # a manifest made by hand, with the body's own run_id, is refused too
    run_id = hashlib.sha256(json_dumps_body(counts).encode("utf-8")).hexdigest()
    manifest = RunManifest(run_id, digests, sum(tc.n for tcs in counts.values() for tc in tcs), verdict_source)
    with pytest.raises(ValueError, match=re.escape(message)):
        persist_run(manifest, counts, tmp_path / "run.jsonl")
    assert list(tmp_path.iterdir()) == []


# counts, source digests and verdict sources both valid and not
loose_rows = st.dictionaries(st.one_of(names, st.just("")), st.dictionaries(names, trials, max_size=4), min_size=1,
                             max_size=4)
loose_digests = st.one_of(
    st.dictionaries(names, st.text(max_size=4), max_size=3),
    st.dictionaries(st.one_of(names, st.integers()), st.one_of(st.text(max_size=4), st.integers(), st.none()),
                    max_size=3),
)
loose_verdicts = st.one_of(names, st.sampled_from(["", None, 7]))


@settings(max_examples=300, deadline=None)
@given(loose_rows, loose_digests, loose_verdicts)
@example({PAIR: {'"': (1, 0)}}, {}, "flags")  # read back, the model name would be "\U000103ff"
def test_whatever_build_manifest_accepts_loads_back_equal(rows, digests, verdict_source):
    try:
        counts = task_counts(rows)
        manifest = build_manifest(counts, digests, verdict_source)
    except ValueError:
        return
    assert not unwritable(rows, verdict_source, *digests, *digests.values())
    with tempfile.TemporaryDirectory() as tmp:
        loaded_manifest, loaded = load_run(persist_run(manifest, counts, Path(tmp) / "run.jsonl"))
    assert loaded_manifest == manifest
    assert loaded == {m: sorted(tcs, key=lambda t: t.task) for m, tcs in counts.items()}


def test_in_order_run_body_is_not_checked_again_as_columns(tmp_path, monkeypatch):
    # the fold checks each row and sees the tasks ascend, or keeps them
    # unique; rows out of order are sorted without a second check
    counts = {m: [TaskCounts(f"t{j}", 4, (j + i) % 5) for j in range(6)] for i, m in enumerate("ab")}
    path = _write(tmp_path, counts)
    log = tmp_path / "log.jsonl"
    log.write_text("".join(reversed(json_dumps_body(counts).splitlines(keepends=True))), encoding="utf-8")
    calls = []
    init = TaskColumns.__init__

    def counting_init(self, *columns):
        calls.append(len(columns[0]))
        init(self, *columns)

    monkeypatch.setattr(TaskColumns, "__init__", counting_init)
    assert load_run(path)[1] == counts and calls == []
    assert read_log(log).counts == counts and calls == []
