"""Every rejection of the library's own checks raises its message.

One case per `raise` that no other test reaches: the value and curve
types, the helpers of each module, and one command through `main`.
`tools/raise_coverage.py` lists any `raise` in src/covertau that the
suite never runs.
"""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from covertau import (
    CoverCurve,
    GoldAnswer,
    GuesserSpec,
    PassCurve,
    ProfileSpec,
    RunManifest,
    SampleRecord,
    SuccessProfile,
    TaskCounts,
    apply_grading,
    bootstrap_bands,
    build_manifest,
    cons_at_n,
    dominance_report,
    export_curve,
    load_run,
    maj_at_n,
    make_profile,
    majority_threshold,
    persist_run,
    toy_model_a,
)
from covertau.cli import main
from covertau.ingest import ParseError
from covertau.plots import cover_curves_svg, pass_curves_svg
from covertau.records import as_rational, has_surrogate_pair
from covertau.report import align_profiles, build_report, render_dominance_text

F = Fraction
CURVE = CoverCurve("m", (F(0), F(1)), (F(1), F(0)), 1)
COUNTS = TaskCounts("t", 4, 2)

CASES = {
    # curves
    "cover-lengths": (lambda: CoverCurve("m", (F(0), F(1)), (F(1),), 1), "equal length"),
    "cover-span": (lambda: CoverCurve("m", (F(0), F(1, 2)), (F(1), F(0)), 1), "run from 0 to 1"),
    "cover-ascending": (lambda: CoverCurve("m", (F(0), F(1, 2), F(1, 2), F(1)), (F(1),) * 4, 1), "strictly ascending"),
    "cover-start": (lambda: CoverCurve("m", (F(0), F(1)), (F(1, 2), F(0)), 1), r"G\(0\) must be 1"),
    "cover-range": (lambda: CoverCurve("m", (F(0), F(1)), (F(1), F(3, 2)), 1), r"must lie in \[0, 1\]"),
    "cover-tasks": (lambda: CoverCurve("m", (F(0), F(1)), (F(1), F(0)), 0), "num_tasks must be >= 1"),
    "pass-empty": (lambda: PassCurve("m", (), ()), "k grid is empty"),
    "pass-lengths": (lambda: PassCurve("m", (1, 2), (0.5,)), "equal length"),
    "pass-positive": (lambda: PassCurve("m", (0, 1), (0.5, 0.5)), r"k values must be >= 1, got \[0, 1\]"),
    "export-pass-grid": (lambda: export_curve(PassCurve("m", (1,), (0.5,)), grid=[F(1, 2)]), "grid is not supported"),
    # dominance
    "report-repeated-model": (lambda: dominance_report([CURVE, CURVE]), r"duplicate model names in \['m', 'm'\]"),
    "bands-no-resample": (lambda: bootstrap_bands([toy_model_a(4)], [F(1, 2)], resamples=0),
                          "resamples must be >= 1, got 0"),
    "bands-no-profile": (lambda: bootstrap_bands([], [F(1, 2)]), "no profiles"),
    # ingest
    "grading-no-answer": (lambda: apply_grading([SampleRecord("m", "t", 0)], {"t": "1"}),
                          r"sample_index=0\) has no verdict and no answer text"),
    "manifest-no-counts": (lambda: build_manifest({}, {}, "flags"), "no models in the counts"),
    # metrics
    "maj-empty": (lambda: maj_at_n([]), "no task counts"),
    "majority-threshold": (lambda: majority_threshold(0), "n must be >= 1, got 0"),
    "cons-empty": (lambda: cons_at_n([], {}), "no records"),
    # plots
    "cover-svg-empty": (lambda: cover_curves_svg([]), "no curves to plot"),
    "pass-svg-empty": (lambda: pass_curves_svg([]), "no curves to plot"),
    # records
    "rational-type": (lambda: as_rational([1], "x"), "x must be a Fraction, int, or string, got list"),
    "record-model": (lambda: SampleRecord("", "t", 0), "model identifier must be nonempty"),
    "record-task": (lambda: SampleRecord("m", "", 0), "task identifier must be nonempty"),
    "record-index": (lambda: SampleRecord("m", "t", -1), "sample_index must be >= 0, got -1"),
    "counts-task": (lambda: TaskCounts("", 1, 0), "task identifier must be nonempty"),
    "profile-model": (lambda: SuccessProfile("", (("t", F(1)),)), "model identifier must be nonempty"),
    "profile-repeated-task": (lambda: SuccessProfile("m", (("t", F(1)), ("t", F(0)))), "duplicate task 't'"),
    "profile-float": (lambda: SuccessProfile("m", (("t", 0.5),)), "p for task 't' must be a Fraction, got float"),
    "profile-restrict": (lambda: toy_model_a(4).restrict(["x"]), "restriction leaves no tasks for model 'A'"),
    "gold-task": (lambda: GoldAnswer("", "1"), "task identifier must be nonempty"),
    # report
    "align-nothing": (lambda: align_profiles({}), "no models in the counts"),
    "align-model": (lambda: align_profiles({"": [COUNTS]}), "model name '' must be a nonempty string"),
    "align-no-counts": (lambda: align_profiles({"m": []}), "no task counts for model 'm'"),
    "align-repeated-task": (lambda: align_profiles({"m": [COUNTS, COUNTS]}), "duplicate task in the counts for model 'm'"),
    "report-repeated-tau": (lambda: build_report({"m": [COUNTS]}, taus=("0.2", "1/5")), "tau gives threshold 0.2 more than once"),
    "dominance-text-one-model": (lambda: render_dominance_text(build_report({"m": [COUNTS]})),
                                 "dominance requires at least 2 models"),
    # synth
    "guesser-tasks": (lambda: GuesserSpec(support_size=2, tasks=0, trials=1, seed=0), "tasks must be >= 1, got 0"),
    "guesser-trials": (lambda: GuesserSpec(support_size=2, tasks=1, trials=0, seed=0), "trials must be >= 1, got 0"),
    "spec-tasks": (lambda: ProfileSpec(kind="constant-p", tasks=0), "tasks must be >= 1, got 0"),
    "constant-p-no-p": (lambda: make_profile(ProfileSpec(kind="constant-p", tasks=1)), "constant-p profile needs p"),
    "two-point-no-high": (lambda: make_profile(ProfileSpec(kind="two-point", tasks=1, low=0, ratio=1)),
                          "two-point profile needs low, high, and ratio"),
    "user-list-length": (lambda: make_profile(ProfileSpec(kind="user-list", tasks=2, values=["1/2"])),
                         "user-list profile needs exactly `tasks` values"),
}


@pytest.mark.parametrize("make, message", CASES.values(), ids=CASES.keys())
def test_rejection_raises_its_message(make, message):
    with pytest.raises((ValueError, TypeError), match=message):
        make()


PAIR = "\ud800\udfff"  # a high surrogate, then a low one: JSON reads their escapes back as one character

# every fault of the one counts-map rule, `records.count_columns`
MAP_FAULTS = {
    "no-models": ({}, "no models in the counts"),
    "empty-model-name": ({"": [COUNTS]}, "model name '' must be a nonempty string"),
    "int-beside-str-model-name": ({1: [COUNTS], "a": [COUNTS]}, "model name 1 must be a nonempty string"),
    "int-model-names": ({1: [COUNTS], 2: [COUNTS]}, "model name 1 must be a nonempty string"),
    "model-without-tasks": ({"a": [COUNTS], "m": []}, "no task counts for model 'm'"),
    "repeated-task": ({"m": [COUNTS, COUNTS]}, "duplicate task in the counts for model 'm'"),
    "pair-in-model-name": ({"m" + PAIR: [COUNTS]},
                           f"name {'m' + PAIR!r} in the counts for model {'m' + PAIR!r} holds a surrogate pair"),
    "pair-in-task-name": ({"m": [COUNTS, TaskCounts(PAIR, 1, 0)]},
                          f"name {PAIR!r} in the counts for model 'm' holds a surrogate pair"),
}
# a manifest whose run_id and record_count are those of an empty body
EMPTY_MANIFEST = RunManifest(hashlib.sha256(b"").hexdigest(), {}, 0, "flags")
MAP_READERS = {
    "build_report": lambda counts, path: build_report(counts),
    "build_manifest": lambda counts, path: build_manifest(counts, {}, "flags"),
    "persist_run": lambda counts, path: persist_run(EMPTY_MANIFEST, counts, path),
}


@pytest.mark.parametrize("counts, message", MAP_FAULTS.values(), ids=MAP_FAULTS.keys())
@pytest.mark.parametrize("read", MAP_READERS.values(), ids=MAP_READERS.keys())
def test_counts_map_fault_raises_the_rules_message(tmp_path, read, counts, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read(counts, tmp_path / "run.jsonl")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, paired", [
    (PAIR, True), ("a" + PAIR + "b", True), ("\udbff\udc00", True),
    ("", False), ("\ud800", False), ("\udfff\ud800", False), ("\ud800x\udfff", False), ("\U000103ff", False),
])
def test_surrogate_pair_is_a_high_surrogate_then_a_low_one(text, paired):
    assert has_surrogate_pair(text) is paired


@pytest.mark.parametrize("text, message", [
    ("", r"empty run file"),
    ('{"model":"m","task":"t","n":1,"c":1}\n', r":1: missing manifest header; is this a raw log\?"),
], ids=["empty", "no-manifest"])
def test_load_run_rejects_a_file_without_a_manifest(tmp_path, text, message):
    path = tmp_path / "run.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        load_run(path)


def test_compute_on_models_that_share_no_task_exits_2(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({"model": m, "task": t, "n": 2, "c": 1}) + "\n" for m, t in (("a", "x"), ("b", "y"))),
                   encoding="utf-8")
    assert main(["compute", "--input", str(log)]) == 2
    assert capsys.readouterr() == ("", "error: task sets have empty intersection across models ['a', 'b']; "
                                       "nothing to compare\n")
