"""Log parsing, grading, and run persistence round-trips."""

import json
import os
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
from covertau.cli import main
from covertau.ingest import write_atomic

F = Fraction


def sample_line(model, task, idx, **extra):
    return json.dumps({"model": model, "task": task, "sample_index": idx, **extra})


class TestParseRecords:
    def test_per_completion_lines(self):
        lines = [sample_line("m", "t", i, correct=i == 0) for i in range(3)]
        parsed = parse_records(lines)
        assert parsed.kind == "samples"
        assert len(parsed.records) == 3
        assert parsed.records[0].correct is True

    def test_blank_lines_skipped(self):
        lines = ["", sample_line("m", "t", 0, correct=True), "   "]
        assert len(parse_records(lines).records) == 1

    def test_invalid_json_names_line(self):
        lines = [sample_line("m", "t", 0, correct=True), "{nope"]
        with pytest.raises(ParseError, match=r"<stream>:2"):
            parse_records(lines)

    def test_verdictless_answerless_line_rejected(self):
        with pytest.raises(ParseError, match=r":1: record has neither"):
            parse_records([sample_line("m", "t", 0)])

    def test_answer_only_line_accepted(self):
        parsed = parse_records([sample_line("m", "t", 0, answer="42")])
        assert parsed.records[0].correct is None

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
        with pytest.raises(ParseError, match="duplicate record key"):
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
            ("models", None),
            ("tasks", None),
            ("trials", None),
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


class TestWriteAtomic:
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
