"""Fast checks of the benchmark itself, at tiny workload sizes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import WRAPS, Tracer, resolve  # noqa: E402

from covertau import cli  # noqa: E402

TINY = {
    "graded-log": {"tasks": 3, "trials": 512, "sim_tasks": 2},
    "model-matrix": {"models": 3, "tasks": 40, "trials": 16},
    "mixed-bootstrap": {"models": 4, "tasks": 200, "groups": 4},
}


def tiny(name: str, seed: int, work: Path) -> workloads.Workload:
    return workloads.build(name, seed, work, **TINY[name])


def run_pass(wl: workloads.Workload, out: Path, tracer: Tracer | None = None) -> run.Ledger:
    ledger = run.Ledger()
    run.inprocess_pass(wl, cli.main, out, ledger, "t", tracer)
    assert ledger.failures == []
    return ledger


def all_bytes(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a = tiny(name, 7, tmp_path / "a")
    b = tiny(name, 7, tmp_path / "b")
    c = tiny(name, 8, tmp_path / "c")
    assert all_bytes(tmp_path / "a") == all_bytes(tmp_path / "b")
    assert a.tallies == b.tallies and a.omitted == b.omitted
    assert all_bytes(tmp_path / "a") != all_bytes(tmp_path / "c")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracles_pass_on_real_outputs(name, tmp_path):
    wl = tiny(name, 3, tmp_path / "in")
    run_pass(wl, tmp_path / "out")
    ledger = run.Ledger()
    ledger.run_checks("t", oracles.checks_for(wl, tmp_path / "out"))
    assert ledger.failures == [] and ledger.attempted >= 3


def test_run_file_oracle_catches_a_changed_count(tmp_path):
    wl = tiny("graded-log", 3, tmp_path / "in")
    run_pass(wl, tmp_path / "out")
    path = tmp_path / "out" / "run.jsonl"
    assert oracles.check_run_file(path, wl) == []
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["c"] += 1000
    lines[1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert oracles.check_run_file(path, wl)


def test_auc_oracle_catches_a_swapped_entry(tmp_path):
    wl = tiny("model-matrix", 3, tmp_path / "in")
    run_pass(wl, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "dominance" / "dominance.json").read_text())
    assert oracles.check_auc_identity(doc, wl) == []
    auc = doc["dominance"]["auc_plus"]
    assert auc[0][1] != auc[1][0]
    auc[0][1], auc[1][0] = auc[1][0], auc[0][1]
    assert oracles.check_auc_identity(doc, wl)


def test_dropped_oracle_catches_a_removed_task(tmp_path):
    wl = tiny("mixed-bootstrap", 3, tmp_path / "in")
    run_pass(wl, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "compute" / "bundle.json").read_text())
    assert oracles.check_dropped(doc, wl) == []
    model = sorted(doc["dropped_tasks"])[0]
    doc["dropped_tasks"][model].pop()
    assert oracles.check_dropped(doc, wl)


def test_wrappers_restore_module_attributes():
    originals = [getattr(*resolve(m, p)) for m, p, _, _ in WRAPS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(getattr(*resolve(m, p)) is not o for (m, p, _, _), o in zip(WRAPS, originals))
            raise RuntimeError("leave the block early")
    assert all(getattr(*resolve(m, p)) is o for (m, p, _, _), o in zip(WRAPS, originals))


def test_traced_pass_matches_plain_pass_and_counts_pairs(tmp_path):
    wl = tiny("model-matrix", 5, tmp_path / "in")
    run_pass(wl, tmp_path / "plain")
    tracer = Tracer()
    run_pass(wl, tmp_path / "traced", tracer)
    assert oracles.digests(tmp_path / "plain") == oracles.digests(tmp_path / "traced")
    layers = run.layer_metrics(tracer, "t", [name for name, _ in wl.commands(tmp_path)])
    m = TINY["model-matrix"]["models"]
    assert layers["dominance.pairs"] == 3 * m * (m - 1)
    assert layers["report.reports"] == 2
    assert layers["ingest.records"] == m * TINY["model-matrix"]["tasks"]
    assert 0 < layers["cli.span_coverage"] <= 1


def test_child_usage_is_per_command(tmp_path):
    # a large command followed by a small one: the small one's peak RSS must be
    # its own, not the running maximum over earlier children
    children = run.Children(tmp_path, deadline=time.monotonic() + 60)
    big = children.run("simulate", ["simulate", "--kind", "guesser", "--tasks", "4",
                                    "--trials", "20000", "--out", str(tmp_path / "sim.jsonl")])
    small = children.run("version", ["--version"])
    assert big.status == 0 and small.status == 0
    assert 1 < small.rss_mb < big.rss_mb
    assert 0 < small.cpu_s < big.cpu_s and 0 < small.wall_s < big.wall_s


def test_child_rss_excludes_the_benchmark_process(tmp_path):
    # a child started by exec inherits the old address space's peak RSS, so a
    # large benchmark process must not be what starts the measured command
    ballast = b"\x01" * (200 << 20)
    children = run.Children(tmp_path, deadline=time.monotonic() + 60)
    small = children.run("version", ["--version"])
    assert small.status == 0 and len(ballast) == 200 << 20
    assert 1 < small.rss_mb < 100
