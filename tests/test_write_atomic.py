"""One write per command: `files.write_atomic` lands a command's whole file
set or none of it.

Each command that writes files hands every one of them to one
`write_atomic` call.  A failure before the renames (a temp file that cannot
be made, a full disk, a file past the size limit, a renderer that raises)
leaves no new file and no temp, and every target keeps its old bytes.  Only
a failure in the renames themselves can leave the files renamed before it.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covertau
import covertau.cli
import covertau.ingest
import covertau.report
from covertau import TaskCounts
from covertau.cli import main
from covertau.files import write_atomic
from covertau.report import build_report

ENV = {**os.environ, "PYTHONPATH": str(Path(covertau.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}


def aggregated_log(path, models=("a", "b"), tasks=3):
    path.write_text("".join(json.dumps({"model": m, "task": f"t{t}", "n": 4, "c": (i + t) % 5}) + "\n"
                            for i, m in enumerate(models) for t in range(tasks)), encoding="utf-8")
    return path


class TestWriteAtomic:
    def test_a_later_file_that_fails_keeps_every_target_and_leaves_no_temp(self, tmp_path):
        first, second = tmp_path / "bundle.json", tmp_path / "metrics.csv"
        first.write_text("old bundle\n", encoding="utf-8")

        def chunks():
            yield "new metrics\n"
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError) as info:
            write_atomic({first: "new bundle\n", second: chunks()})
        assert info.value.errno == errno.ENOSPC
        assert first.read_text(encoding="utf-8") == "old bundle\n"
        assert [path.name for path in tmp_path.iterdir()] == ["bundle.json"]

    def test_files_are_renamed_only_after_every_one_is_written(self, tmp_path, monkeypatch):
        targets = [tmp_path / name for name in ("a.csv", "b.csv", "c.svg")]
        renamed = []
        replace = os.replace

        def recording_replace(src, dst):
            # every temp is complete before the first rename
            assert sorted(path.name.split(".")[0] for path in tmp_path.iterdir()) == ["a", "b", "c"]
            renamed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        write_atomic({path: (f"{path.name}\n", "end\n") for path in targets})
        assert renamed == ["a.csv", "b.csv", "c.svg"]
        assert [path.read_text(encoding="utf-8") for path in targets] == [f"{p.name}\nend\n" for p in targets]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "b.csv", "c.svg"]

    def test_a_failed_rename_keeps_the_earlier_renames_and_removes_the_other_temps(self, tmp_path):
        # the documented limit: a target that is a directory fails only at its rename
        first, blocked, last = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        blocked.mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic({first: "a\n", blocked: "b\n", last: "c\n"})
        assert first.read_text(encoding="utf-8") == "a\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "b.csv"]
        assert list(blocked.iterdir()) == []


def test_curves_past_the_file_size_limit_leaves_no_file(tmp_path):
    # a log whose cover_curves.svg is larger than every other file curves writes
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({"model": m, "task": f"t{t}", "n": 300, "c": (7 * t + 13 * i) % 301}) + "\n"
                           for i, m in enumerate(("a", "b")) for t in range(300)), encoding="utf-8")
    assert main(["curves", "--input", str(log), "--out-dir", str(tmp_path / "free")]) == 0
    sizes = {path.name: path.stat().st_size for path in (tmp_path / "free").iterdir()}
    svg = sizes.pop("cover_curves.svg")
    assert len(sizes) == 5 and max(sizes.values()) < svg
    limit = (max(sizes.values()) + svg) // 2
    out = tmp_path / "out"
    out.mkdir()
    # the limit and the ignored SIGXFSZ hold in the child only: a write past
    # the limit fails there with EFBIG instead of ending the process
    code = f"""
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from covertau.cli import main
sys.exit(main(["curves", "--input", {str(log)!r}, "--out-dir", {str(out)!r}]))
"""
    result = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: [Errno 27] File too large")
    assert list(out.iterdir()) == []


def test_compute_keeps_the_old_pair_when_the_second_temp_cannot_be_made(tmp_path, monkeypatch, capsys):
    log, out = aggregated_log(tmp_path / "log.jsonl"), tmp_path / "out"
    out.mkdir()
    old = {"bundle.json": b"old bundle\n", "metrics.csv": b"old,metrics\n"}
    for name, data in old.items():
        (out / name).write_bytes(data)
    temps = []
    real_open = os.open

    def open_(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            temps.append(path)
            if len(temps) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_)
    assert main(["compute", "--input", str(log), "--out-dir", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(temps) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == old


def test_simulate_with_an_unwritable_log_writes_no_gold_file(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    assert main(["simulate", "--kind", "guesser", "--tasks", "2", "--trials", "2",
                 "--out", str(tmp_path / "nodir" / "log.jsonl"), "--gold-out", str(gold)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gold", ["./same.jsonl", "same.jsonl", "sub/../same.jsonl"])
def test_simulate_refuses_a_gold_file_that_is_its_log(tmp_path, monkeypatch, capsys, gold):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["simulate", "--kind", "guesser", "--tasks", "2", "--trials", "2",
                 "--out", "same.jsonl", "--gold-out", gold]) == 2
    assert capsys.readouterr() == ("", f"error: --out same.jsonl and --gold-out {gold} name the same file; "
                                       "give the gold answers a path of their own\n")
    assert [path.name for path in tmp_path.iterdir()] == ["sub"]


def test_simulate_refuses_a_gold_file_for_a_profile_kind_before_it_draws(tmp_path, monkeypatch, capsys):
    def make_profile(spec):
        raise AssertionError("drew a profile")

    monkeypatch.setattr(covertau.cli, "make_profile", make_profile)
    assert main(["simulate", "--kind", "uniform-random", "--tasks", "2", "--trials", "2",
                 "--out", str(tmp_path / "log.jsonl"), "--gold-out", str(tmp_path / "gold.jsonl")]) == 2
    assert capsys.readouterr() == ("", "error: --gold-out applies to the guesser kind only\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, written", [
    (["simulate", "--kind", "guesser", "--tasks", "2", "--trials", "2",
      "--out", "{d}/log.jsonl", "--gold-out", "{d}/gold.jsonl"], ["gold.jsonl", "log.jsonl"]),
    (["simulate", "--kind", "constant-p", "--p", "1/2", "--tasks", "2", "--trials", "2", "--out", "{d}/log.jsonl"],
     ["log.jsonl"]),
    (["compute", "--input", "{log}", "--out-dir", "{d}"], ["bundle.json", "metrics.csv"]),
    (["curves", "--input", "{log}", "--out-dir", "{d}"],
     ["cover_curve_a.csv", "cover_curve_b.csv", "cover_curves.svg", "pass_curve_a.csv", "pass_curve_b.csv",
      "pass_curves.svg"]),
    (["dominance", "--input", "{log}", "--out-dir", "{d}"], ["dominance.json"]),
], ids=["simulate-guesser", "simulate-profile", "compute", "curves", "dominance"])
def test_each_command_lands_its_files_in_one_write(tmp_path, monkeypatch, capsys, argv, written):
    log, out = aggregated_log(tmp_path / "log.jsonl"), tmp_path / "out"
    out.mkdir()
    calls = []
    monkeypatch.setattr(covertau.cli, "write_atomic", lambda files: calls.append(files) or write_atomic(files))
    assert main([arg.format(d=out, log=log) for arg in argv]) == 0
    assert [sorted(path.name for path in files) for files in calls] == [written]
    assert sorted(path.name for path in out.iterdir()) == written


def test_ingest_lands_its_run_in_one_write(tmp_path, monkeypatch, capsys):
    log, run = aggregated_log(tmp_path / "log.jsonl"), tmp_path / "run.jsonl"
    calls = []
    monkeypatch.setattr(covertau.ingest, "write_atomic", lambda files: calls.append(files) or write_atomic(files))
    assert main(["ingest", "--input", str(log), "--out", str(run)]) == 0
    assert [list(files) for files in calls] == [[run]]


COUNTS = {m: [TaskCounts(f"t{t}", 4, (i + t) % 5) for t in range(3)] for i, m in enumerate(("a", "b"))}


@pytest.mark.parametrize("ks, message", [
    ((4, 2), r"k values must be strictly ascending, got \[4, 2\]"),
    ((0,), r"k values must be >= 1, got \[0\]"),
    ((), "k grid is empty"),
    ((1, 2.0), r"k values must be integers, got \[1, 2.0\]"),
])
def test_build_report_refuses_a_k_grid_before_it_tallies(monkeypatch, ks, message):
    built = []
    tally = covertau.report.TaskTally
    monkeypatch.setattr(covertau.report, "TaskTally", lambda *args: built.append(args) or tally(*args))
    with pytest.raises(ValueError, match=message):
        build_report(COUNTS, ks=ks)
    assert built == []


def test_a_k_below_one_has_one_wording_in_the_library_and_the_cli(tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        build_report(COUNTS, ks=(0,))
    assert main(["compute", "--input", str(aggregated_log(tmp_path / "log.jsonl")), "--k", "0"]) == 2
    assert capsys.readouterr().err == f"error: --{info.value}\n" == "error: --k values must be >= 1, got [0]\n"
