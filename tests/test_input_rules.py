"""One rule per report input, shared by the library and the CLI.

`metrics.check_k_grid` is the rule of a pass@k grid and
`records.as_thresholds` the rule of a threshold list; `covertau compute`
rejects a `--k` or `--tau` value exactly when they do, and `build_report`
rejects the same values.  A k past float range is a ValueError wherever a
k is taken.  A raw log is read once: its sha256 comes from the blocks
`read_log` parses, whatever their size.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertau.cli
from covertau import PassCurve, TaskCounts, toy_model_a
from covertau import ingest
from covertau.cli import main
from covertau.curves import beta_mass_below, beta_weighted_pass, pass_curve
from covertau.dominance import build_cover_curve
from covertau.metrics import _FLOAT_LIMIT, check_k_grid, pass_at_k_exact, pass_values
from covertau.records import as_thresholds
from covertau.report import DEFAULT_K_GRID, DEFAULT_TAUS, build_report

COUNTS = {m: [TaskCounts(f"t{t}", 4, (i + t) % 5) for t in range(3)] for i, m in enumerate(("a", "b"))}
HUGE = 2**1024


@pytest.mark.parametrize("call", [
    lambda k: pass_values([0.5], [k]),
    lambda k: pass_at_k_exact(toy_model_a(2), k),
    lambda k: pass_curve(toy_model_a(2), [1, k]),
    lambda k: beta_weighted_pass(build_cover_curve(toy_model_a(2)), k),
    lambda k: beta_mass_below(Fraction(1, 2), k),
    lambda k: build_report(COUNTS, ks=[1, k]),
    lambda k: PassCurve("m", (1, k), (0.5, 1.0)),
], ids=["pass_values", "pass_at_k_exact", "pass_curve", "beta_weighted_pass", "beta_mass_below", "build_report",
        "PassCurve"])
def test_k_past_float_range_is_a_value_error(call):
    with pytest.raises(ValueError, match="must convert to a float"):
        call(HUGE)


def test_float_limit_is_the_least_int_past_float_range():
    assert float(_FLOAT_LIMIT - 1) == 1.7976931348623157e308
    with pytest.raises(OverflowError):
        float(_FLOAT_LIMIT)
    assert pass_values([0.5, 1.0], [_FLOAT_LIMIT - 1]) == (0.5,)
    with pytest.raises(ValueError, match="k values must convert to a float; one has 309 digits"):
        pass_values([0.5], [_FLOAT_LIMIT])


@pytest.mark.parametrize("ks, message", [
    ((), "k grid is empty"),
    ((1, 2.0), r"k values must be integers, got \[1, 2.0\]"),
    ((True, 2), r"k values must be integers, got \[True, 2\]"),
    ((0, 1), r"k values must be >= 1, got \[0, 1\]"),
    ((2, 2), r"k values must be strictly ascending, got \[2, 2\]"),
    ((1, HUGE), "k values must convert to a float; one has 309 digits"),
])
def test_k_grid_rule_names_its_argument(ks, message):
    with pytest.raises(ValueError, match=message):
        check_k_grid(ks)
    with pytest.raises(ValueError, match=message.replace("k ", "--k ", 1)):
        check_k_grid(ks, "--k")


def test_threshold_rule_names_its_argument():
    assert as_thresholds(["1/5", "0.8", 0]) == (Fraction(1, 5), Fraction(4, 5), Fraction(0))
    with pytest.raises(ValueError, match="tau gives threshold 0 more than once"):
        as_thresholds(["0", "1", "0/3"])
    with pytest.raises(ValueError, match=r"--tau must lie in \[0, 1\], got 2"):
        as_thresholds(["2"], "--tau")


def test_build_report_reports_every_model_it_is_given():
    assert build_report(COUNTS).models == ("a", "b")
    assert build_report({"b": COUNTS["b"]}).models == ("b",)


numbers = st.one_of(st.integers(-2, 9).map(str),
                    st.sampled_from(("x", "", "1.5", " 3", str(_FLOAT_LIMIT - 1), str(_FLOAT_LIMIT), str(HUGE))))
k_strings = st.lists(numbers, min_size=1, max_size=4).map(",".join)
taus = st.one_of(st.sampled_from(("0", "1", "0.2", "1/5", "-0.1", "1.5", "1/0", "nope", "", "0.20")),
                 st.fractions(0, 1, max_denominator=6).map(str))


def _rejects(rule, *args) -> bool:
    try:
        rule(*args)
    except ValueError:
        return True
    return False


def _parsed_ks(raw: str):
    """`--k` as the CLI splits and reads it, or None if a part is no integer."""
    if not raw:
        return DEFAULT_K_GRID
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        return None


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    path = tmp_path_factory.mktemp("rules") / "log.jsonl"
    path.write_text("".join(json.dumps({"model": m, "task": tc.task, "n": tc.n, "c": tc.c}) + "\n"
                            for m, row in COUNTS.items() for tc in row), encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None)
@given(k_raw=st.one_of(st.none(), k_strings), tau_raw=st.lists(taus, max_size=3))
def test_cli_and_library_reject_k_and_tau_by_one_rule(log, k_raw, tau_raw):
    ks = _parsed_ks(k_raw or "")
    tau_values = tau_raw or DEFAULT_TAUS
    bad = {"--k": ks is None or _rejects(check_k_grid, ks, "--k"),
           "--tau": _rejects(as_thresholds, tau_values, "--tau")}

    argv = ["compute", "--input", str(log)] + [f"--tau={t}" for t in tau_raw]
    if k_raw is not None:
        argv.append(f"--k={k_raw}")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code == (2 if any(bad.values()) else 0), (argv, err.getvalue())
    if code == 2:
        last = err.getvalue().rstrip("\n").rsplit("\n", 1)[-1]
        assert any(flag in last for flag, rejected in bad.items() if rejected), (argv, last)

    if ks is not None:
        assert _rejects(build_report, COUNTS, tau_values, ks) == (bad["--k"] or bad["--tau"])


def _logs():
    per_completion = "".join(json.dumps({"model": "m", "task": f"t{t}", "sample_index": i, "correct": (t + i) % 3 == 0})
                             + "\n" for t in range(4) for i in range(5))
    aggregated = "".join(json.dumps({"model": m, "task": f"t{t}", "n": 4, "c": t}) + "\n"
                         for m in ("a", "b") for t in range(5))
    mixed_layouts = '{"model":"m","task":"t0","n":2,"c":1}\n\n{"task": "t1", "model": "m", "c": 0, "n": 3}\n'
    return {"samples": per_completion, "aggregated": aggregated, "layouts": mixed_layouts,
            "no-final-newline": aggregated.rstrip("\n")}


@pytest.mark.parametrize("block", [1, 40, 65_536])
@pytest.mark.parametrize("name", list(_logs()))
def test_log_digest_is_the_sha256_of_its_bytes(tmp_path, monkeypatch, capsys, block, name):
    monkeypatch.setattr(ingest, "_BLOCK", block)
    log = tmp_path / "log.jsonl"
    log.write_bytes(_logs()[name].encode("utf-8"))
    expected = hashlib.sha256(log.read_bytes()).hexdigest()
    assert ingest.read_log(log).digest == expected

    out = tmp_path / "out"
    assert main(["compute", "--input", str(log), "--out-dir", str(out)]) == 0
    assert json.loads((out / "bundle.json").read_text(encoding="utf-8"))["provenance"]["source_digest"] == expected
    run = tmp_path / "run.jsonl"
    assert main(["ingest", "--input", str(log), "--out", str(run)]) == 0
    manifest = json.loads(run.read_text(encoding="utf-8").split("\n", 1)[0])
    assert manifest["source_digests"] == {"log.jsonl": expected}


def test_digest_file_reads_only_the_gold_file(tmp_path, monkeypatch, capsys):
    log, gold = tmp_path / "log.jsonl", tmp_path / "gold.jsonl"
    log.write_text(json.dumps({"model": "m", "task": "t", "sample_index": 0, "answer": "42"}) + "\n", encoding="utf-8")
    gold.write_text(json.dumps({"task": "t", "answer": "42"}) + "\n", encoding="utf-8")
    read = []
    digest_file = covertau.cli.digest_file
    monkeypatch.setattr(covertau.cli, "digest_file", lambda path: read.append(path) or digest_file(path))
    assert main(["compute", "--input", str(log), "--gold", str(gold)]) == 0
    assert main(["ingest", "--input", str(log), "--gold", str(gold), "--out", str(tmp_path / "run.jsonl")]) == 0
    assert read == [str(gold), str(gold)]


def test_load_run_hashes_the_body_once(tmp_path, monkeypatch, capsys):
    log, run = tmp_path / "log.jsonl", tmp_path / "run.jsonl"
    log.write_text(_logs()["aggregated"], encoding="utf-8")
    assert main(["ingest", "--input", str(log), "--out", str(run)]) == 0
    made = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *data: made.append(data) or sha256(*data))
    ingest.load_run(run)
    assert len(made) == 1
