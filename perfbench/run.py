"""covertau benchmark: three CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload graded-log --seed 1 --seconds 45 --trace 0

`--workload all` runs the three workloads one after another, each for
--seconds, and prefixes each metric in the last line with its workload.

--trace 0 runs the real CLI as child processes (`python -m covertau.cli`
with PYTHONPATH=src), one command at a time in a closed loop, repeating the
workload's command sequence (a "pass") for --seconds.  Wall time, CPU time
and peak RSS of each command come from that child alone, via os.wait4 in
launch.py.
--trace 1 runs one child pass as the reference, then alternates in-process
passes through covertau.cli.main with and without the layer spans of
spans.Tracer, and reports per-layer self times and counts.

Every pass is checked: commands must exit 0, the first pass's outputs must
satisfy the oracles in oracles.py, and every later pass (traced ones too)
must write byte-identical files.  A failed check counts against fail_frac;
it does not stop the run.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  Its metrics are END_TO_END (--trace 0), the ones every
workload has, or PER_LAYER (--trace 1), the median over passes.  Of
END_TO_END, the pass times total_s, cpu_s and report_s are the mean over
the run's passes, and setup_s and the RSS figures the median (README.md,
"Bounds and steadiness", says why).  The readable table before it adds each
command's own time and RSS and fail_frac.  Context, input sizes, per-pass
samples, output digests and spans go to .perfbench_runs/ in the checkout.
README.md lists the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import oracles
import workloads
from spans import WRAPS, Tracer

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
BUDGET_S = 170.0
SETUP_REPS = 5
REPORT_COMMANDS = ("compute", "dominance", "curves")

# --trace 0 metrics: name -> (unit, statistic over the run's samples).  The
# host's speed switches between fast and slow phases that last seconds to
# minutes.  The median of a run's few multi-second passes jumps to whichever
# phase held most of them; the mean moves in proportion to the time spent in
# each, so it spreads less from run to run.
END_TO_END = {
    "setup_s": ("s", "median"),
    "total_s": ("s", "mean"),
    "cpu_s": ("s", "mean"),
    "report_s": ("s", "mean"),
    "report_rss_mb": ("MB", "median"),
    "parse_rss_mb": ("MB", "median"),
}

SELF_TIME_LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in WRAPS))
COUNTED = ("ingest.records", "ingest.graded", "dominance.resamples", "curves.breakpoints",
           "report.tasks_dropped")

# --trace 1 metrics: name -> unit
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    **{name: "count" for name in COUNTED},
    "curves.build_cover_curve.calls": "count",
    "report.reports": "count",
    "dominance.pairs": "count/report",
    "cli.other_s": "s",
    "cli.span_coverage": "ratio",
    "trace.overhead_s": "s",
}


class Usage(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


@dataclass
class Sample:
    """One command: wall, CPU (user + sys) and peak RSS of that child alone."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int


class Children:
    """Runs covertau commands one at a time, each under launch.py.

    The launcher, not this process, spawns and reaps the command, so the
    command's peak RSS starts from the launcher's few MB rather than from
    this process's own peak (see launch.py).
    """

    def __init__(self, logs: Path, deadline: float) -> None:
        src, extra = str(ROOT / "src"), os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{extra}" if extra else src}
        self.logs = logs
        self.deadline = deadline

    def run(self, name: str, args: list[str]) -> Sample:
        result = self.logs / f"{name}.usage.json"
        result.unlink(missing_ok=True)
        timeout = max(self.deadline - time.monotonic(), 1.0)
        argv = [sys.executable, "-I", "-S", str(LAUNCHER), str(result),
                str(self.logs / f"{name}.out"), str(self.logs / f"{name}.err"), f"{timeout:.3f}",
                sys.executable, "-m", "covertau.cli", *args]
        pid = os.posix_spawn(sys.executable, argv, self.env)
        try:
            os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGTERM)  # the launcher kills and reaps the command
            os.waitpid(pid, 0)
            raise
        usage = json.loads(result.read_text())
        return Sample(name, usage["wall_s"], usage["cpu_s"], usage["rss_mb"], usage["status"])

    def stderr_tail(self, name: str) -> str:
        return (self.logs / f"{name}.err").read_text(errors="replace").strip()[-300:]


class Ledger:
    """Checks attempted and failed; commands count as checks too."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append((label, errors))

    def run_checks(self, prefix: str, checks) -> None:
        for label, check in checks.items():
            try:
                errors = check()
            except Exception as exc:  # unreadable or missing output is a failed check
                errors = [f"{type(exc).__name__}: {exc}"]
            self.record(f"{prefix} {label}", errors)

    def same_outputs(self, label: str, got: dict[str, str], ref: dict[str, str]) -> None:
        bad = sorted(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))
        self.record(label, [f"outputs differ from the reference pass: {bad}"] if bad else [])


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_pass(wl: workloads.Workload, children: Children, out: Path, ledger: Ledger,
               label: str) -> list[Sample]:
    samples = [children.run(name, args) for name, args in wl.commands(fresh(out))]
    for s in samples:
        errors = [] if s.status == 0 else [f"exit {s.status}: {children.stderr_tail(s.name)}"]
        ledger.record(f"{label} {s.name} exit", errors)
    return samples


def inprocess_pass(wl: workloads.Workload, main, out: Path, ledger: Ledger, label: str,
                   tracer: Tracer | None = None) -> dict[str, float]:
    """One pass through covertau.cli.main in this process; wall time per command."""
    walls = {}
    with tracer.installed() if tracer else nullcontext():
        for name, args in wl.commands(fresh(out)):
            gc.collect()
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        status = main(args)
                    else:
                        tracer.run_id = f"{label}/{name}"
                        with tracer.span(f"cli.{name}"):
                            status = main(args)
                except Exception as exc:  # a crash in covertau fails the command, not the run
                    status = f"{type(exc).__name__}: {exc}"
                walls[name] = time.perf_counter() - start
            errors = [] if status == 0 else [f"exit {status}: {sink.getvalue()[-300:]}"]
            ledger.record(f"{label} {name} exit", errors)
    return walls


def summary(values: list[float]) -> dict[str, float]:
    return {"median": statistics.median(values), "mean": statistics.fmean(values),
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(passes: list[list[Sample]], setup: list[float], ledger: Ledger,
               parser: str) -> dict[str, dict]:
    """Every end-to-end figure: the contract metrics, then per-command ones.

    `parser` names the command that parses the workload's raw log.
    """
    series: dict[str, list[float]] = {"setup_s": setup}
    for samples in passes:
        report = [s for s in samples if s.name in REPORT_COMMANDS]
        series.setdefault("total_s", []).append(sum(s.wall_s for s in samples))
        series.setdefault("cpu_s", []).append(sum(s.cpu_s for s in samples))
        series.setdefault("report_s", []).append(sum(s.wall_s for s in report))
        series.setdefault("report_rss_mb", []).append(max(s.rss_mb for s in report))
        series.setdefault("parse_rss_mb", []).append(
            next(s.rss_mb for s in samples if s.name == parser))
        for s in samples:
            series.setdefault(f"{s.name}_s", []).append(s.wall_s)
            series.setdefault(f"{s.name}_rss_mb", []).append(s.rss_mb)
    out = {name: {**summary(vals), "unit": "MB" if name.endswith("_mb") else "s"}
           for name, vals in series.items()}
    frac = len(ledger.failures) / ledger.attempted
    out["fail_frac"] = {**summary([frac]), "n": ledger.attempted, "unit": "ratio"}
    return out


def layer_metrics(tracer: Tracer, label: str, names: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    run_ids = {f"{label}/{name}" for name in names}
    self_s = tracer.self_times(run_ids)
    calls = tracer.calls(run_ids)
    counts: dict[str, int] = {}
    for rid in run_ids:
        for key, value in tracer.counts[rid].items():
            counts[key] = counts.get(key, 0) + value
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    out.update({key: counts.get(key, 0) for key in COUNTED})
    reports = calls.get("report.build_report", 0)
    out["curves.build_cover_curve.calls"] = calls.get("curves.build_cover_curve", 0)
    out["report.reports"] = reports
    out["dominance.pairs"] = calls.get("dominance.auc_plus_cover", 0) / reports if reports else 0
    roots = {i: s for i, s in enumerate(tracer.spans) if s.run_id in run_ids and s.parent is None}
    covered = dict.fromkeys(roots, 0.0)
    for s in tracer.spans:
        if s.parent in covered:
            covered[s.parent] += s.duration
    out["cli.other_s"] = sum(root.duration - covered[i] for i, root in roots.items())
    out["cli.span_coverage"] = min(covered[i] / root.duration for i, root in roots.items())
    return out


def read_commit() -> str:
    try:
        # the ceiling keeps git from looking above the checkout for a repository
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def context() -> dict[str, object]:
    src = ROOT / "src" / "covertau"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "commit": read_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "load": "closed loop, one command at a time",
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_table(rows: dict[str, dict]) -> None:
    print(f"{'metric':34} {'unit':12} {'median':>12} {'mean':>12} {'min':>12} {'max':>12} "
          f"{'n':>4}")
    for name, row in rows.items():
        print(f"{name:34} {row['unit']:12} {row['median']:12.6g} {row['mean']:12.6g} "
              f"{row['min']:12.6g} {row['max']:12.6g} {row['n']:4d}")


def run(workload: str, args: argparse.Namespace, work: Path) -> dict:
    started = time.monotonic()
    deadline = started + BUDGET_S
    ctx = context()
    wl = workloads.build(workload, args.seed, work / "inputs")
    children = Children(fresh(work / "logs"), deadline)
    if children.run("version", ["--version"]).status != 0:  # also compiles the bytecode
        raise Usage(f"covertau --version failed: {children.stderr_tail('version')}")
    ledger = Ledger()
    out = work / "out"
    ref_samples = child_pass(wl, children, out, ledger, "pass0")
    ref = oracles.digests(out)
    ledger.run_checks("pass0", oracles.checks_for(wl, out))
    passes = [ref_samples]
    record: dict[str, object] = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                                 "context": ctx, "inputs": wl.sizes, "digests": ref}

    def time_left(last: float) -> bool:
        now = time.monotonic()
        return now - started + last <= args.seconds and now + 1.5 * last < deadline - 5

    if args.trace == 0:
        setup = [children.run("version", ["--version"]).wall_s for _ in range(SETUP_REPS)]
        while time_left(sum(s.wall_s for s in passes[-1])):
            label = f"pass{len(passes)}"
            passes.append(child_pass(wl, children, out, ledger, label))
            ledger.same_outputs(f"{label} determinism", oracles.digests(out), ref)
            setup.append(children.run("version", ["--version"]).wall_s)
        rows = end_to_end(passes, setup, ledger, wl.parser)
        metrics = {name: {"value": rows[name][stat], "unit": unit}
                   for name, (unit, stat) in END_TO_END.items()}
        record["samples"] = [[asdict(s) for s in samples] for samples in passes]
    else:
        sys.path.insert(0, str(ROOT / "src"))
        from covertau import cli

        tracer = Tracer()
        names = [name for name, _ in wl.commands(out)]
        per_pass: list[dict[str, float]] = []
        last = sum(s.wall_s for s in ref_samples)
        while not per_pass or time_left(last):
            label = f"pass{len(per_pass) + 1}"
            # alternate which side goes first so warm-up does not favour one side
            walls = {}
            for side in ("plain", "traced") if len(per_pass) % 2 == 0 else ("traced", "plain"):
                walls[side] = inprocess_pass(wl, cli.main, work / side, ledger, f"{label}-{side}",
                                             tracer if side == "traced" else None)
                ledger.same_outputs(f"{label}-{side} determinism", oracles.digests(work / side), ref)
            layers = layer_metrics(tracer, f"{label}-traced", names)
            layers["trace.overhead_s"] = sum(walls["traced"].values()) - sum(walls["plain"].values())
            per_pass.append(layers)
            last = sum(sum(w.values()) for w in walls.values())
        rows = {name: {**summary([p[name] for p in per_pass]), "unit": unit}
                for name, unit in PER_LAYER.items()}
        metrics = {name: {"value": rows[name]["median"], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        record["layers"] = per_pass
        (RUNS / f"{wl.name}-seed{args.seed}-spans.jsonl").write_text(tracer.to_jsonl())

    record["failures"] = ledger.failures
    record["table"] = rows
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {json.dumps(wl.sizes)}")
    print(f"context: {json.dumps(ctx)}")
    print_table(rows)
    for label, errors in ledger.failures:
        print(f"FAILED {label}: {'; '.join(errors)}")
    return {"correct": not ledger.failures, "attempted": ledger.attempted,
            "failed": len(ledger.failures), "metrics": metrics}


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through Children.run, which reaps its child


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "covertau" / "cli.py").is_file():
        print(f"perfbench: no covertau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args, work / name) for name in names}
    except Usage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
