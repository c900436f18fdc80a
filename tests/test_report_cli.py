"""Report assembly and the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import covertau
from covertau import SampleRecord, TaskCounts, cover_at_tau, estimate_success
from covertau.cli import main
from covertau.report import (
    build_report,
    bundle_json,
    cover_curve_csv,
    format_tau,
    metrics_csv,
    render_dominance_text,
    render_metrics_table,
)

F = Fraction


def toy_counts(tasks=100, trials=8):
    """Aggregated counts realizing the balanced toy pair exactly."""
    counts = {
        "A": [TaskCounts(task=f"t{i:04d}", n=trials, c=trials // 2) for i in range(tasks)],
        "B": [
            TaskCounts(task=f"t{i:04d}", n=trials, c=trials if i < tasks // 2 else 0)
            for i in range(tasks)
        ],
    }
    return counts


class TestFormatTau:
    def test_decimal_when_possible(self):
        assert format_tau(F(1, 5)) == "0.2"
        assert format_tau(F(4, 5)) == "0.8"
        assert format_tau(F(1, 2)) == "0.5"
        assert format_tau(F(1)) == "1"

    def test_falls_back_to_ratio(self):
        assert format_tau(F(1, 3)) == "1/3"


class TestBuildReport:
    def test_toy_pair_metric_table(self):
        bundle = build_report(toy_counts(), taus=(F(1, 5), F(4, 5)))
        assert bundle.metrics["A"]["pass@1"] == F(1, 2)
        assert bundle.metrics["B"]["pass@1"] == F(1, 2)
        assert bundle.metrics["A"]["cov@0.8"] == 0
        assert bundle.metrics["B"]["cov@0.8"] == F(1, 2)
        assert bundle.metrics["A"]["cov@0.2"] == 1
        assert bundle.metrics["A"]["avg_auc_plus"] == F(1, 4)
        assert bundle.metrics["B"]["avg_auc_plus"] == F(1, 4)

    def test_dominance_matrix(self):
        bundle = build_report(toy_counts())
        dom = bundle.dominance
        assert dom.auc_plus[0][1] == F(1, 4)
        assert dom.auc_plus[1][0] == F(1, 4)

    def test_single_model_has_no_avg_column_but_a_note(self):
        counts = {"A": toy_counts()["A"]}
        bundle = build_report(counts)
        assert "avg_auc_plus" not in bundle.metric_names
        assert any("needs at least 2 models" in note for note in bundle.notes)

    def test_unknown_model_filter_lists_known(self):
        with pytest.raises(ValueError, match=r"unknown models \['C'\]; known models: \['A', 'B'\]"):
            build_report(toy_counts(), model_filter=["C"])

    def test_task_alignment_names_dropped_tasks(self):
        counts = toy_counts(tasks=10)
        counts["A"].append(TaskCounts(task="extra", n=4, c=4))
        bundle = build_report(counts)
        assert bundle.dropped_tasks == {"A": ("extra",)}
        assert any("dropped 1 task(s)" in note and "extra" in note for note in bundle.notes)
        # the aligned table is unchanged by the dropped task
        assert bundle.metrics["A"]["pass@1"] == F(1, 2)

    def test_low_trial_warning(self):
        bundle = build_report(toy_counts(trials=8))
        assert any("fewer than 16 trials" in note for note in bundle.notes)
        quiet = build_report(toy_counts(trials=32))
        assert not any("fewer than 16" in note for note in quiet.notes)

    def test_group_averaged_aggregation(self):
        counts = {
            "A": [
                TaskCounts(task="g1/t1", n=4, c=4),
                TaskCounts(task="g1/t2", n=4, c=4),
                TaskCounts(task="g2/t1", n=4, c=0),
            ],
            "B": [
                TaskCounts(task="g1/t1", n=4, c=0),
                TaskCounts(task="g1/t2", n=4, c=0),
                TaskCounts(task="g2/t1", n=4, c=4),
            ],
        }
        pooled = build_report(counts)
        grouped = build_report(counts, group_delimiter="/")
        assert pooled.aggregation == "pooled"
        assert grouped.aggregation == "per-group-averaged"
        # pooled pass@1(A) = 2/3; per-group: mean(1, 0) = 1/2
        assert pooled.metrics["A"]["pass@1"] == F(2, 3)
        assert grouped.metrics["A"]["pass@1"] == F(1, 2)
        assert grouped.metrics["B"]["pass@1"] == F(1, 2)
        assert any("per task group" in note for note in grouped.notes)

    def test_cover_columns_equal_cover_at_tau(self):
        # taus at 0, at 1, on breakpoints (1/4, 1/2) and between them (0.3)
        cs = {"A": [4, 1, 2, 0, 3], "B": [2, 2, 2, 4, 0], "C": [0, 1, 1, 4, 4]}
        tasks = ["g1/t1", "g1/t2", "g2/t1", "g2/t2", "g2/t3"]
        counts = {m: [TaskCounts(task=t, n=4, c=c) for t, c in zip(tasks, row)] for m, row in cs.items()}
        taus = (F(0), F(1, 4), F("0.3"), F(1, 2), F(1))
        profiles = {m: estimate_success(tcs, m) for m, tcs in counts.items()}
        pooled = build_report(counts, taus=taus)
        grouped = build_report(counts, taus=taus, group_delimiter="/")
        for m, prof in profiles.items():
            groups = [prof.restrict(tasks[:2]), prof.restrict(tasks[2:])]
            for tau in taus:
                key = f"cov@{format_tau(tau)}"
                assert pooled.metrics[m][key] == cover_at_tau(prof, tau)
                assert grouped.metrics[m][key] == sum(cover_at_tau(g, tau) for g in groups) / 2

    def test_crossover_listed_per_pair(self):
        bundle = build_report(toy_counts())
        assert len(bundle.crossovers) == 1
        assert bundle.crossovers[0].pair == ("A", "B")

    def test_bootstrap_attached_when_requested(self):
        bundle = build_report(toy_counts(tasks=20), bootstrap_resamples=50, seed=3)
        assert bundle.bootstrap is not None
        assert "avg_auc_plus" in bundle.bootstrap["A"]

    def test_provenance_recorded(self):
        bundle = build_report(toy_counts(), seed=5, provenance={"run_id": "abc"})
        assert bundle.provenance["seed"] == 5
        assert bundle.provenance["run_id"] == "abc"


class TestRendering:
    def test_table_scales_and_marks(self):
        text = render_metrics_table(build_report(toy_counts()))
        assert "pass@1 x100" in text
        assert "50.00" in text
        assert "(1)" in text and "(2)" in text
        assert "avg_auc_plus raw [0,1]" in text
        assert "1/4" in text

    def test_dominance_text_sections(self):
        text = render_dominance_text(build_report(toy_counts()))
        assert "auc_plus(A,B)" in text
        assert "avg_auc_plus (raw / x100)" in text
        assert "rankings:" in text
        assert "no crossover" in text

    def test_metrics_csv_raw_values(self):
        rows = metrics_csv(build_report(toy_counts())).splitlines()
        assert rows[0] == "model,metric,value,value_exact"
        body = [r.split(",") for r in rows[1:]]
        pass1 = next(r for r in body if r[0] == "A" and r[1] == "pass@1")
        assert pass1[2] == "0.5" and pass1[3] == "1/2"

    def test_cover_curve_csv_exact_columns(self):
        bundle = build_report(toy_counts())
        text = cover_curve_csv(bundle.cover_curves["A"])
        assert text.splitlines()[0] == "tau,tau_float,cover,cover_float"
        assert "1/2,0.5,1/1,1.0" in text

    def test_bundle_json_is_canonical_and_parses(self):
        bundle = build_report(toy_counts(), bootstrap_resamples=20, seed=1)
        one, two = bundle_json(bundle), bundle_json(bundle)
        assert one == two
        obj = json.loads(one)
        assert obj["metrics"]["A"]["pass@1"] == {"exact": "1/2", "value": 0.5}
        assert obj["dominance"]["auc_plus"][0][1]["exact"] == "1/4"


def write_toy_logs(tmp_path):
    records = []
    for model, counts in toy_counts(tasks=20, trials=8).items():
        for tc in counts:
            records.extend(
                SampleRecord(model=model, task=tc.task, sample_index=i, correct=i < tc.c)
                for i in range(tc.n)
            )
    from covertau.synth import records_to_jsonl

    log = tmp_path / "log.jsonl"
    log.write_text(records_to_jsonl(records), encoding="utf-8")
    return log


class TestCli:
    def test_simulate_ingest_compute_curves_dominance(self, tmp_path, capsys):
        log = tmp_path / "g.jsonl"
        gold = tmp_path / "gold.jsonl"
        run = tmp_path / "run.jsonl"
        out = tmp_path / "out"
        assert main([
            "simulate", "--kind", "guesser", "--support", "4", "--tasks", "6",
            "--trials", "32", "--seed", "3", "--out", str(log), "--gold-out", str(gold),
        ]) == 0
        assert log.exists() and gold.exists()
        assert main(["ingest", "--input", str(log), "--out", str(run)]) == 0
        assert main(["compute", "--input", str(run), "--out-dir", str(out)]) == 0
        assert (out / "bundle.json").exists() and (out / "metrics.csv").exists()
        assert main(["curves", "--input", str(run), "--out-dir", str(out)]) == 0
        assert (out / "cover_curves.svg").exists()
        code = main(["dominance", "--input", str(run)])
        captured = capsys.readouterr()
        assert code == 2
        assert "at least 2 models" in captured.err

    def test_compute_accepts_raw_log_directly(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log)]) == 0
        table = capsys.readouterr().out
        assert "50.00" in table

    def test_dominance_two_models(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["dominance", "--input", str(log)]) == 0
        text = capsys.readouterr().out
        assert "0.250000" in text

    def test_model_filter_unknown_fails_listing_known(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log), "--model", "Z"]) == 2
        assert "known models" in capsys.readouterr().err

    def test_tau_and_k_flags(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main([
            "compute", "--input", str(log), "--tau", "0.5", "--k", "1,2,4",
        ]) == 0
        assert "cov@0.5" in capsys.readouterr().out

    def test_bad_k_flag_rejected(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log), "--k", "4,2"]) == 2
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compute", "curves", "dominance"])
    def test_k_past_float_range_rejected(self, tmp_path, capsys, command):
        log = write_toy_logs(tmp_path)
        argv = [command, "--input", str(log), "--k", f"1,{2**1024}", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "error: --k values must convert to a float" in capsys.readouterr().err

    def test_repeated_tau_rejected(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        out = tmp_path / "out"
        argv = ["compute", "--input", str(log), "--tau", "0.2", "--tau", "1/5", "--tau", "0.2", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "error: threshold 0.2 is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_equal_models_report_no_crossover(self, tmp_path, capsys):
        # every metric of A and B is equal; only the task order of their counts differs
        log = tmp_path / "log.jsonl"
        log.write_text("".join(
            json.dumps({"model": m, "task": f"t{i}", "n": 3, "c": c}) + "\n"
            for m, cs in (("A", (1, 2, 2)), ("B", (2, 2, 1))) for i, c in enumerate(cs)
        ), encoding="utf-8")
        assert main(["dominance", "--input", str(log)]) == 0
        assert "  A vs B: no crossover\n" in capsys.readouterr().out

    def test_float_imprecise_tau_rejected(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log), "--tau", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_denominator_tau_rejected(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log), "--tau", "1/0"]) == 2
        assert "error: --tau has a zero denominator: '1/0'" in capsys.readouterr().err

    def test_zero_denominator_p_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main([
            "simulate", "--kind", "constant-p", "--p", "1/0", "--tasks", "2",
            "--trials", "2", "--out", str(out),
        ]) == 2
        assert "error: p has a zero denominator: '1/0'" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_tau_names_the_flag(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log), "--tau", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --tau is not a rational number: 'nope'" in captured.err

    @pytest.mark.parametrize("field", ["p", "low", "high", "ratio"])
    def test_unparsable_profile_value_names_the_field(self, tmp_path, capsys, field):
        if field == "p":
            spec = ["--kind", "constant-p", "--p", "half"]
        else:
            values = {"low": "0", "high": "1", "ratio": "1/2", field: "half"}
            spec = ["--kind", "two-point", *(arg for name, v in values.items() for arg in (f"--{name}", v))]
        out = tmp_path / "x.jsonl"
        assert main(["simulate", *spec, "--tasks", "2", "--trials", "2", "--out", str(out)]) == 2
        assert f"error: {field} is not a rational number: 'half'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_group_delimiter_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="group delimiter must be a nonempty string, got ''"):
            build_report(toy_counts(), group_delimiter="")
        log = write_toy_logs(tmp_path)
        assert main(["compute", "--input", str(log), "--group-delimiter", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: group delimiter must be a nonempty string, got ''" in captured.err

    def test_negative_bootstrap_rejected(self, tmp_path, capsys):
        log = write_toy_logs(tmp_path)
        for command in ("compute", "dominance"):
            assert main([command, "--input", str(log), "--bootstrap", "-5"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: bootstrap resample count must be >= 0, got -5" in captured.err

    def test_gold_out_requires_guesser(self, tmp_path, capsys):
        assert main([
            "simulate", "--kind", "constant-p", "--p", "0.5", "--tasks", "2",
            "--trials", "2", "--out", str(tmp_path / "x.jsonl"),
            "--gold-out", str(tmp_path / "g.jsonl"),
        ]) == 2
        assert "guesser" in capsys.readouterr().err

    def test_svg_documents_are_wellformed_and_selfcontained(self, tmp_path):
        log = write_toy_logs(tmp_path)
        out = tmp_path / "plots"
        assert main(["curves", "--input", str(log), "--out-dir", str(out)]) == 0
        for name in ("cover_curves.svg", "pass_curves.svg"):
            text = (out / name).read_text(encoding="utf-8")
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
            assert "https://" not in text

    def test_svg_text_is_escaped(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps({"model": "a<b&c>", "task": "t", "n": 4, "c": 1}) + "\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["curves", "--input", str(log), "--out-dir", str(out)]) == 0
        text = (out / "cover_curves.svg").read_text(encoding="utf-8")
        assert ">a&lt;b&amp;c&gt;</text>" in text and "a<b" not in text

    @pytest.mark.parametrize("flag", [["--tau", "0.5"], ["--seed", "3"]])
    def test_curves_takes_no_table_flags(self, tmp_path, capsys, flag):
        # curves writes no metric table and runs no bootstrap
        log = write_toy_logs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--input", str(log), "--out-dir", str(tmp_path / "plots"), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_curves_rejects_models_sharing_a_file_stem(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        lines = [json.dumps({"model": m, "task": "t", "n": 4, "c": c}) for m, c in (("m/1", 1), ("m_1", 3))]
        log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["curves", "--input", str(log), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: models 'm/1' and 'm_1' would both write cover_curve_m_1.csv")
        assert not out.exists()
        assert main(["curves", "--input", str(log), "--model", "m_1", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cover_curve_m_1.csv", "cover_curves.svg", "pass_curve_m_1.csv", "pass_curves.svg",
        ]

    def test_missing_input_surfaces_cause(self, tmp_path, capsys):
        assert main(["compute", "--input", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_grading_path_via_gold(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        lines = [
            json.dumps({"model": "m", "task": "t", "sample_index": i, "answer": a})
            for i, a in enumerate(["42", "41", "42", ".5"])
        ]
        log.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"task": "t", "answer": "42"}) + "\n", encoding="utf-8")
        run = tmp_path / "run.jsonl"
        assert main(["ingest", "--input", str(log), "--gold", str(gold), "--out", str(run)]) == 0
        loaded = run.read_text(encoding="utf-8").splitlines()
        assert json.loads(loaded[0])["verdict_source"] == "flags+gold"
        assert json.loads(loaded[1]) == {"c": 2, "model": "m", "n": 4, "task": "t"}

    def test_report_on_a_graded_log_records_the_gold_digest(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps({"model": "m", "task": "t", "sample_index": 0, "answer": "42"}) + "\n",
                       encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"task": "t", "answer": "42"}) + "\n", encoding="utf-8")
        assert main(["compute", "--input", str(log), "--gold", str(gold), "--out-dir", str(tmp_path / "out")]) == 0
        provenance = json.loads((tmp_path / "out" / "bundle.json").read_text(encoding="utf-8"))["provenance"]
        assert provenance["gold_digest"] == hashlib.sha256(gold.read_bytes()).hexdigest()
        assert provenance["source_digest"] == hashlib.sha256(log.read_bytes()).hexdigest()


def test_cli_import_leaves_out_the_network_stack():
    # SVG text escaping must not pull in what xml.sax.saxutils imports
    heavy = ["urllib.request", "http.client", "email", "ssl"]
    code = f"import sys, covertau.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(covertau.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_version_and_ingest_start_without_numpy(tmp_path):
    # only commands that compute (compute, curves, dominance, simulate) load numpy
    log, gold, run = tmp_path / "log.jsonl", tmp_path / "gold.jsonl", tmp_path / "run.jsonl"
    log.write_text(json.dumps({"model": "m", "task": "t", "sample_index": 0, "answer": "42"}) + "\n",
                   encoding="utf-8")
    gold.write_text(json.dumps({"task": "t", "answer": "42"}) + "\n", encoding="utf-8")
    code = f"""
import contextlib, io, sys
import covertau, covertau.cli
seen = ["numpy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        covertau.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    seen.append("numpy" in sys.modules)
    assert covertau.cli.main(["ingest", "--input", {str(log)!r}, "--gold", {str(gold)!r}, "--out", {str(run)!r}]) == 0
    seen.append("numpy" in sys.modules)
    assert covertau.cli.main(["compute", "--input", {str(run)!r}]) == 0
    seen.append("numpy" in sys.modules)
print(seen)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(covertau.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # imports, --version, ingest, then compute, which does load it
    assert result.stdout.strip() == "[False, False, False, True]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc to count threads")
@pytest.mark.parametrize("preset", [None, "2"])
def test_main_runs_openblas_on_one_thread(tmp_path, preset):
    # covertau makes no BLAS call, so numpy's import should start no OpenBLAS pool
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({"model": "m", "task": "t", "n": 4, "c": 1}) + "\n", encoding="utf-8")
    code = f"""
import contextlib, io, os, sys
import covertau.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert covertau.cli.main(["compute", "--input", {str(log)!r}]) == 0
assert "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(covertau.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    threads, setting = result.stdout.split()
    if preset is None:
        assert (threads, setting) == ("1", "1")
    else:
        assert setting == preset
