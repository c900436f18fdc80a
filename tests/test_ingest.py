"""Log parsing, grading, and run persistence round-trips."""

import hashlib
import json
import os
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from covertau import (
    ParseError,
    SampleRecord,
    TaskCounts,
    aggregate,
    apply_grading,
    build_manifest,
    canonical_answer,
    counts_from_log,
    estimate_success,
    grade,
    load_run,
    parse_gold,
    parse_records,
    persist_run,
)
from covertau import ingest
from covertau.cli import main
from covertau.ingest import SampleTally, digest_file, is_run_file, read_log, write_atomic

F = Fraction


def sample_line(model, task, idx, **extra):
    return json.dumps({"model": model, "task": task, "sample_index": idx, **extra})


class TestParseRecords:
    def test_per_completion_lines(self):
        lines = [sample_line("m", "t", i, correct=i == 0) for i in range(3)]
        parsed = parse_records(lines)
        assert parsed.kind == "samples"
        assert parsed.records == {("m", "t"): SampleTally(seen={0, 1, 2}, n=3, c=1)}

    def test_blank_lines_skipped(self):
        lines = ["", sample_line("m", "t", 0, correct=True), "   ", "\f\n"]
        assert parse_records(lines).records == {("m", "t"): SampleTally(seen={0}, n=1, c=1)}

    def test_lines_fold_into_per_key_tallies(self):
        lines = [
            sample_line("m", "t1", 7, answer="42"),
            sample_line("m", "t2", 0, correct=True, answer="ignored"),
            sample_line("m2", "t1", 3, correct=False),
            sample_line("m", "t1", 2, answer=" 42 "),
            sample_line("m", "t1", 9, answer="42"),
            sample_line("m", "t1", 4, correct=True),
        ]
        assert parse_records(lines).records == {
            ("m", "t1"): SampleTally(
                seen={7, 2, 9, 4}, n=1, c=1, answers=Counter({"42": 2, " 42 ": 1}),
                first_ungraded=(1, 7),
            ),
            ("m", "t2"): SampleTally(seen={0}, n=1, c=1),
            ("m2", "t1"): SampleTally(seen={3}, n=1, c=0),
        }

    def test_invalid_json_names_line(self):
        lines = [sample_line("m", "t", 0, correct=True), "{nope"]
        with pytest.raises(ParseError, match=r"<stream>:2"):
            parse_records(lines)

    def test_verdictless_answerless_line_rejected(self):
        with pytest.raises(ParseError, match=r":1: record has neither"):
            parse_records([sample_line("m", "t", 0)])

    def test_answer_only_line_accepted(self):
        parsed = parse_records([sample_line("m", "t", 0, answer="42")])
        assert parsed.records == {
            ("m", "t"): SampleTally(seen={0}, answers=Counter({"42": 1}), first_ungraded=(1, 0))
        }

    @pytest.mark.parametrize("fields, message", [
        ({"model": ""}, "field 'model' must be a nonempty string"),
        ({"model": 3}, "field 'model' must be a nonempty string"),
        ({"task": None}, "field 'task' must be a nonempty string"),
        ({"sample_index": True}, "field 'sample_index' must be an integer"),
        ({"sample_index": 1.0}, "field 'sample_index' must be an integer"),
        ({"sample_index": -1}, "sample_index must be >= 0, got -1"),
        ({"correct": 1}, "field 'correct' must be a boolean when present"),
        ({"correct": None, "answer": 5}, "field 'answer' must be a string when present"),
        ({"correct": None}, "record has neither"),
    ])
    def test_bad_field_named_on_any_line(self, fields, message):
        # the first line takes the checked path, later ones the fast path
        bad = json.dumps({"model": "m", "task": "t", "sample_index": 1, "correct": True, **fields})
        for lineno, lines in ((1, [bad]), (2, [sample_line("m", "t", 0, correct=True), bad])):
            with pytest.raises(ParseError, match=rf"<stream>:{lineno}: {re.escape(message)}"):
                parse_records(lines)

    def test_mixed_schemas_rejected(self):
        lines = [
            sample_line("m", "t", 0, correct=True),
            json.dumps({"model": "m", "task": "t2", "n": 4, "c": 1}),
        ]
        with pytest.raises(ParseError, match="mixed schemas"):
            parse_records(lines)

    def test_line_with_both_schemas_rejected(self):
        line = json.dumps({"model": "m", "task": "t", "sample_index": 0, "n": 3, "c": 1})
        with pytest.raises(ParseError, match="mixes per-completion and aggregated"):
            parse_records([line])

    def test_aggregated_form(self):
        lines = [json.dumps({"model": "m", "task": "t", "n": 32, "c": 7})]
        parsed = parse_records(lines)
        assert parsed.kind == "aggregated"
        assert parsed.counts == {"m": [TaskCounts(task="t", n=32, c=7)]}

    def test_aggregated_matches_per_completion_aggregation(self):
        per = [sample_line("m", "t", i, correct=i < 7) for i in range(32)]
        agg = [json.dumps({"model": "m", "task": "t", "n": 32, "c": 7})]
        counts_per, _ = counts_from_log(parse_records(per))
        counts_agg, _ = counts_from_log(parse_records(agg))
        assert counts_per == counts_agg

    def test_duplicate_sample_key_rejected(self):
        lines = [sample_line("m", "t", 0, correct=True)] * 2
        with pytest.raises(ParseError, match=r"<stream>:2: duplicate record key"):
            parse_records(lines)

    def test_duplicate_named_on_its_line_across_keys(self):
        lines = [
            sample_line("m", "t", 0, correct=True),
            sample_line("m", "u", 0, answer="1"),
            "",
            sample_line("m", "t", 0, answer="2"),
        ]
        with pytest.raises(ParseError, match=r":4: duplicate record key \(model='m', task='t', sample_index=0\)"):
            parse_records(lines)

    def test_bad_count_bounds_named(self):
        lines = [json.dumps({"model": "m", "task": "t", "n": 4, "c": 5})]
        with pytest.raises(ParseError, match=r":1: need 0 <= c <= n"):
            parse_records(lines)

    def test_manifest_line_redirects_to_load_run(self):
        with pytest.raises(ParseError, match="load_run"):
            parse_records([json.dumps({"kind": "manifest"})])

    def test_empty_stream_rejected(self):
        with pytest.raises(ParseError, match="no records"):
            parse_records([])


class TestGrade:
    def test_numeric_spellings_match(self):
        assert grade("0.5", ".5")

    def test_whitespace_trimmed(self):
        assert grade(" 42 ", "42")

    def test_fraction_bar_is_not_numeric(self):
        assert not grade("1/3", "0.3333333333")

    def test_casefold_and_inner_whitespace(self):
        assert grade("  The   Answer  ", "the answer")

    def test_numeric_tolerance(self):
        assert grade("1.0000000000001", "1")
        assert not grade("1.001", "1")

    def test_exponent_grammar(self):
        assert grade("1e3", "1000")
        assert grade("-2.5E-1", "-0.25")

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError, match="gold answer is empty"):
            grade("42", "   ")

    def test_empty_answer_is_wrong_not_an_error(self):
        assert grade("", "42") is False

    def test_symmetric_on_numeric_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = f"{rng.normal():.12g}"
            b = f"{rng.normal():.12g}"
            assert grade(a, b) == grade(b, a)

    def test_canonical_answer_pools_numeric_forms(self):
        assert canonical_answer(".5") == canonical_answer("0.50")
        assert canonical_answer("Foo  Bar") == canonical_answer("foo bar")


class TestApplyGrading:
    def test_explicit_flag_wins_over_grading(self):
        # flagged wrong even though the answer text matches gold
        records = [SampleRecord(model="m", task="t", sample_index=0, answer="42", correct=False)]
        resolved, source = apply_grading(records, {"t": "42"})
        assert resolved[0].correct is False
        assert source == "flags"

    def test_grades_when_flag_absent(self):
        records = [
            SampleRecord(model="m", task="t", sample_index=0, answer="42"),
            SampleRecord(model="m", task="t", sample_index=1, answer="41"),
        ]
        resolved, source = apply_grading(records, {"t": "42"})
        assert [r.correct for r in resolved] == [True, False]
        assert source == "flags+gold"

    def test_missing_gold_names_record(self):
        records = [SampleRecord(model="m", task="t", sample_index=3, answer="42")]
        with pytest.raises(ValueError, match="sample_index=3"):
            apply_grading(records, {})


class TestCountsFromLog:
    def test_each_distinct_answer_graded_once(self, monkeypatch):
        calls = []

        def counting_grade(answer, gold):
            calls.append((answer, gold))
            return grade(answer, gold)

        monkeypatch.setattr(ingest, "grade", counting_grade)
        lines = [sample_line(m, "t", i, answer=a) for m in ("m1", "m2")
                 for i, a in enumerate(["42", "41", "42", "42.0", "41"])]
        lines.append(sample_line("m1", "t", 9, correct=True))
        counts, source = counts_from_log(parse_records(lines), {"t": "42"})
        assert sorted(calls) == [("41", "42"), ("42", "42"), ("42.0", "42")]
        assert counts == {"m1": [TaskCounts(task="t", n=6, c=4)],
                          "m2": [TaskCounts(task="t", n=5, c=3)]}
        assert source == "flags+gold"

    def test_first_ungradable_line_in_the_file_is_named(self):
        lines = [
            sample_line("m", "t", 0, correct=True),
            sample_line("m", "u", 4, answer="1"),
            sample_line("m", "t", 5, answer="1"),
            sample_line("m", "u", 6, answer="2"),
        ]
        parsed = parse_records(lines)
        with pytest.raises(ValueError, match=r"<stream>:2: record \(model='m', task='u', sample_index=4\) "
                                             r"has no verdict and no gold answer"):
            counts_from_log(parsed, {"t": "1"})
        with pytest.raises(ValueError, match=r"<stream>:2: .*task='u'"):
            counts_from_log(parsed)


class TestRawFiles:
    def test_invalid_utf8_in_log_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_bytes(sample_line("m", "t", 0, correct=True).encode() + b"\n"
                        + b'{"model":"m","task":"t","sample_index":1,"answer":"\xff"}\n')
        with pytest.raises(ParseError, match=r"log\.jsonl:2: invalid UTF-8"):
            read_log(log)
        assert main(["ingest", "--input", str(log), "--out", str(tmp_path / "run.jsonl")]) == 2
        assert "log.jsonl:2: invalid UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_in_gold_names_the_line(self, tmp_path, capsys):
        log, gold = tmp_path / "log.jsonl", tmp_path / "gold.jsonl"
        log.write_text(sample_line("m", "t", 0, answer="42") + "\n", encoding="utf-8")
        gold.write_bytes(b'\n{"task":"t","answer":"4\xc32"}\n')
        args = ["ingest", "--input", str(log), "--gold", str(gold), "--out", str(tmp_path / "run.jsonl")]
        assert main(args) == 2
        assert "gold.jsonl:2: invalid UTF-8" in capsys.readouterr().err

    def test_blank_gold_answer_names_the_line(self, tmp_path, capsys):
        log, gold = tmp_path / "log.jsonl", tmp_path / "g.jsonl"
        log.write_text(sample_line("m", "t2", 0, answer="42") + "\n", encoding="utf-8")
        gold.write_text('{"task":"t1","answer":"1"}\n{"task":"t2","answer":"   "}\n', encoding="utf-8")
        args = ["ingest", "--input", str(log), "--gold", str(gold), "--out", str(tmp_path / "run.jsonl")]
        assert main(args) == 2
        assert "g.jsonl:2: gold answer for task 't2' is empty" in capsys.readouterr().err

    def test_gold_with_a_persisted_run_is_rejected(self, tmp_path, capsys):
        counts = {"m": [TaskCounts(task="t", n=2, c=1)]}
        run = persist_run(build_manifest(counts, {}, "aggregated"), counts, tmp_path / "run.jsonl")
        assert main(["compute", "--input", str(run), "--gold", str(tmp_path / "nonexistent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"--gold applies to raw logs; {run} is a persisted run whose verdicts are already resolved" in err

    def test_undecodable_first_line_is_not_a_run_file(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"kind":"manifest","x":"\xff"}\n')
        assert is_run_file(path) is False
        assert main(["compute", "--input", str(path)]) == 2
        assert "log.jsonl:1: invalid UTF-8" in capsys.readouterr().err

    def test_deeply_nested_log_line_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(sample_line("m", "t", 0, correct=True) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
        assert main(["compute", "--input", str(log)]) == 2
        assert "log.jsonl:2: invalid JSON (nested too deeply)" in capsys.readouterr().err

    def test_deeply_nested_gold_line_names_the_line(self, tmp_path, capsys):
        log, gold = tmp_path / "log.jsonl", tmp_path / "gold.jsonl"
        log.write_text(sample_line("m", "t", 0, answer="42") + "\n", encoding="utf-8")
        gold.write_text('{"task":"t","answer":"42"}\n' + "[" * 100_000 + "\n", encoding="utf-8")
        args = ["ingest", "--input", str(log), "--gold", str(gold), "--out", str(tmp_path / "run.jsonl")]
        assert main(args) == 2
        assert "gold.jsonl:2: invalid JSON (nested too deeply)" in capsys.readouterr().err

    def test_deeply_nested_manifest_line_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind":"manifest","x":' + "[" * 100_000 + "]" * 100_000 + "}\n", encoding="utf-8")
        assert is_run_file(path) is False
        with pytest.raises(ParseError, match=r"run\.jsonl:1: invalid JSON \(nested too deeply\)"):
            load_run(path)
        assert main(["compute", "--input", str(path)]) == 2
        assert "run.jsonl:1: invalid JSON (nested too deeply)" in capsys.readouterr().err

    def test_integer_too_long_to_convert_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        line = '{"c":0,"model":"m","n":' + "9" * 5000 + ',"task":"t"}'
        log.write_text('{"c":1,"model":"m","n":2,"task":"s"}\n' + line + "\n", encoding="utf-8")
        assert main(["compute", "--input", str(log)]) == 2
        err = capsys.readouterr().err
        assert "log.jsonl:2: invalid JSON (" in err and "5000 digits" in err
        log.write_text(line + "\n", encoding="utf-8")
        assert is_run_file(log) is False

    def test_answer_only_log_without_gold_names_model_task_and_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("".join(line + "\n" for line in [
            sample_line("m", "t", 0, correct=True),
            sample_line("grader", "t7", 3, answer="42"),
            sample_line("grader", "t7", 4, answer="41"),
        ]), encoding="utf-8")
        assert main(["ingest", "--input", str(log), "--out", str(tmp_path / "run.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "log.jsonl:2: record (model='grader', task='t7', sample_index=3)" in err
        assert not (tmp_path / "run.jsonl").exists()

    def test_digest_is_chunked_and_matches_whole_file_hash(self, tmp_path, monkeypatch):
        path = tmp_path / "blob"
        data = os.urandom(1000)
        path.write_bytes(data)
        monkeypatch.setattr(ingest, "_DIGEST_CHUNK", 7)
        reads = []
        real_open = type(path).open

        def spying_open(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            read = fh.read
            fh.read = lambda size=-1: reads.append(size) or read(size)
            return fh

        monkeypatch.setattr(type(path), "open", spying_open)
        assert digest_file(path) == hashlib.sha256(data).hexdigest()
        assert set(reads) == {7}


class TestParseGold:
    def test_basic(self):
        gold = parse_gold([json.dumps({"task": "t", "answer": "42"})])
        assert gold == {"t": "42"}

    def test_duplicate_task_rejected(self):
        lines = [json.dumps({"task": "t", "answer": "1"})] * 2
        with pytest.raises(ParseError, match="duplicate gold"):
            parse_gold(lines)


class TestPersistence:
    def _counts(self):
        records = [
            SampleRecord(model="m1", task="t1", sample_index=i, correct=i % 2 == 0)
            for i in range(4)
        ] + [
            SampleRecord(model="m2", task="t1", sample_index=i, correct=i == 0)
            for i in range(3)
        ]
        return aggregate(records)

    def test_round_trip_profiles_identical(self, tmp_path):
        counts = self._counts()
        manifest = build_manifest(counts, {"log": "x" * 64}, "flags")
        path = persist_run(manifest, counts, tmp_path / "run.jsonl")
        loaded_manifest, loaded_counts = load_run(path)
        assert loaded_manifest == manifest
        for model in counts:
            assert estimate_success(loaded_counts[model], model) == estimate_success(
                counts[model], model
            )

    def test_resave_is_byte_identical(self, tmp_path):
        counts = self._counts()
        manifest = build_manifest(counts, {"log": "x" * 64}, "flags")
        p1 = persist_run(manifest, counts, tmp_path / "one.jsonl")
        p2 = persist_run(manifest, counts, tmp_path / "two.jsonl")
        assert p1.read_bytes() == p2.read_bytes()

    def test_reload_then_save_is_idempotent(self, tmp_path):
        counts = self._counts()
        manifest = build_manifest(counts, {"log": "x" * 64}, "flags")
        first = persist_run(manifest, counts, tmp_path / "first.jsonl")
        m2, c2 = load_run(first)
        second = persist_run(m2, c2, tmp_path / "second.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_record_count_mismatch_rejected(self, tmp_path):
        counts = self._counts()
        manifest = build_manifest(counts, {}, "flags")
        tampered = json.loads(json.dumps(manifest.to_json_obj()))
        tampered["record_count"] = 99
        path = tmp_path / "bad.jsonl"
        body = persist_run(manifest, counts, tmp_path / "good.jsonl").read_text().splitlines()[1:]
        path.write_text(
            json.dumps(tampered, sort_keys=True, separators=(",", ":")) + "\n" + "\n".join(body) + "\n"
        )
        with pytest.raises(ValueError, match="record_count"):
            load_run(path)

    def test_inconsistent_manifest_rejected_on_save(self, tmp_path):
        counts = self._counts()
        manifest = build_manifest(counts, {}, "flags")
        del counts["m2"]
        with pytest.raises(ValueError, match="does not match"):
            persist_run(manifest, counts, tmp_path / "run.jsonl")

    def test_manifest_of_other_counts_rejected_on_save(self, tmp_path):
        # same models, tasks and trials, so only the run_id tells the counts apart
        manifest = build_manifest({"m": [TaskCounts("t", 4, 1)]}, {}, "flags")
        path = tmp_path / "run.jsonl"
        with pytest.raises(ValueError, match="run_id=.* does not match the sha256"):
            persist_run(manifest, {"m": [TaskCounts("t", 4, 3)]}, path)
        assert not path.exists() and list(tmp_path.iterdir()) == []

    def test_parse_aggregate_persist_cycle_is_stable(self, tmp_path):
        # idempotence beyond the first cycle: bytes fixed after one round
        lines = [sample_line("m", "t", i, correct=i < 5) for i in range(9)]
        counts, source = counts_from_log(parse_records(lines))
        manifest = build_manifest(counts, {"log.jsonl": "0" * 64}, source)
        p1 = persist_run(manifest, counts, tmp_path / "c1.jsonl")
        for i in range(2, 4):
            m, c = load_run(tmp_path / f"c{i - 1}.jsonl")
            persist_run(m, c, tmp_path / f"c{i}.jsonl")
        assert (tmp_path / "c1.jsonl").read_bytes() == (tmp_path / "c3.jsonl").read_bytes()


class TestRunFileIntegrity:
    def _run(self, tmp_path):
        counts = {"m1": [TaskCounts(task="t1", n=2000, c=304), TaskCounts(task="t2", n=2000, c=7)]}
        manifest = build_manifest(counts, {"log": "x" * 64}, "aggregated")
        return persist_run(manifest, counts, tmp_path / "run.jsonl")

    def test_edited_body_rejected_under_stale_run_id(self, tmp_path, capsys):
        path = self._run(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert '"c":304,' in text
        path.write_text(text.replace('"c":304,', '"c":1304,'), encoding="utf-8")
        with pytest.raises(ParseError, match=r":1: run_id does not match"):
            load_run(path)
        assert main(["compute", "--input", str(path)]) == 2
        assert "run_id does not match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("run_id", None),
            ("record_count", None),
            ("created", "2026-10-18"),
            ("verdict_source", 7),
            ("source_digests", ["log"]),
            ("verdict_source", None),
            ("run_id", 7),
            ("record_count", "4004"),
            ("models", "m1"),
            ("trials", {"m1": {"t1": "2000", "t2": 2000}}),
            ("trials", ["m1"]),
            ("source_digests", {"log": 1}),
        ],
    )
    def test_malformed_manifest_is_a_line_one_error(self, tmp_path, capsys, key, value):
        path = self._run(tmp_path)
        head, body = path.read_text(encoding="utf-8").split("\n", 1)
        obj = json.loads(head)
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        path.write_text(json.dumps(obj) + "\n" + body, encoding="utf-8")
        with pytest.raises(ParseError, match=rf":1: field '{key}' must be"):
            load_run(path)
        assert main(["compute", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err


    def test_undecodable_manifest_line_is_named(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"kind":"manifest","x":"\xff"}\n')
        with pytest.raises(ParseError, match=r"run\.jsonl:1: invalid UTF-8 \(invalid start byte at byte 24\)"):
            load_run(path)

    def test_undecodable_body_line_is_named(self, tmp_path):
        # the run_id is re-hashed over the edited body, so only the decode fails
        data = self._run(tmp_path).read_bytes()
        head, body = data.split(b"\n", 1)
        assert body.count(b"\n") == 2 and b'"task":"t2"' in body.split(b"\n")[1]
        body = body.replace(b'"task":"t2"', b'"task":"t\xc32"')
        manifest = json.loads(head)
        manifest["run_id"] = hashlib.sha256(body).hexdigest()
        path = tmp_path / "run.jsonl"
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        with pytest.raises(ParseError, match=r"run\.jsonl:3: invalid UTF-8 \(invalid continuation byte at byte \d+\)"):
            load_run(path)


class TestWriteAtomic:
    def test_chunks_are_written_in_order(self, tmp_path):
        target = tmp_path / "log.jsonl"
        write_atomic(target, (f"{i}\n" for i in range(5)))
        assert target.read_text(encoding="utf-8") == "0\n1\n2\n3\n4\n"

    def test_chunk_iterable_that_raises_keeps_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "log.jsonl"
        target.write_text("old\n", encoding="utf-8")

        def chunks():
            yield "new line 1\n"
            raise RuntimeError("draw failed")

        with pytest.raises(RuntimeError, match="draw failed"):
            write_atomic(target, chunks())
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]

    def test_stale_tmp_is_neither_clobbered_nor_needed(self, tmp_path):
        target = tmp_path / "bundle.json"
        stale = tmp_path / "bundle.json.tmp"
        stale.write_text("left by another writer", encoding="utf-8")
        write_atomic(target, "fresh\n")
        assert target.read_text(encoding="utf-8") == "fresh\n"
        assert stale.read_text(encoding="utf-8") == "left by another writer"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle.json", "bundle.json.tmp"]

    def test_failed_replace_keeps_target_and_removes_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "metrics.csv"
        target.write_text("old\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(target, "new\n")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_atomic(tmp_path / "run.jsonl", "x\n")
        finally:
            os.umask(old)
        assert (tmp_path / "run.jsonl").stat().st_mode & 0o777 == 0o640
