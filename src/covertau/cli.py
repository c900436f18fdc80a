"""Command-line surface.

Subcommands:

  simulate   write a synthetic completion log (guesser / constant-p /
             two-point / uniform-random), printing the exact profile used
  ingest     parse a raw log (grading against gold if needed) and persist
             an aggregated run file
  compute    metric table (pass@1, cover at requested thresholds, AvgAUC+)
  curves     per-model curve tables plus combined SVG plots
  dominance  pairwise excess-AUC matrix, rankings, crossovers

All commands accept either a raw log or a persisted run as input and are
byte-deterministic for fixed (input, flags, seed); exit status is nonzero
with a message on stderr for any rejection.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__

# covertau module -> the names the CLI takes from it.  A command binds the
# names of the modules it runs when it starts (`_load`), so `--version`
# loads none of them and `ingest` no report code.  perfbench/spans.py and
# some tests patch names here before a command runs; `_load` keeps a name
# already bound, and `__getattr__` imports one that is asked for first.
# simulate_guesser, records_to_jsonl and bundle_json are bound only for
# perfbench/spans.py, which wraps them here.
_IMPORTS = {
    "files": ("write_atomic",),
    "ingest": ("build_manifest", "counts_from_log", "decode_lines", "digest_file", "is_run_file", "load_run",
               "parse_gold", "persist_run", "read_log"),
    "metrics": ("check_k_grid",),
    "plots": ("cover_curves_svg", "pass_curves_svg"),
    "records": ("as_thresholds", "as_unit_rational"),
    "report": ("DEFAULT_K_GRID", "DEFAULT_TAUS", "build_report", "bundle_chunks", "bundle_json", "cover_curve_csv",
               "metrics_csv", "pass_curve_csv", "render_dominance_text", "render_metrics_table", "safe_filename"),
    "synth": ("GuesserSpec", "ProfileSpec", "completions_log", "guesser_gold", "guesser_log", "guesser_profile",
              "make_profile", "records_to_jsonl", "simulate_guesser"),
}
_SOURCES = {name: module for module, names in _IMPORTS.items() for name in names}
_REPORT_MODULES = ("files", "ingest", "metrics", "records", "report")


def _load(*modules: str) -> None:
    """Bind the names `_IMPORTS` takes from `modules`, keeping those already bound."""
    from importlib import import_module

    bound = globals()
    for module in modules:
        source = import_module(f".{module}", __package__)
        for name in _IMPORTS[module]:
            bound.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_SOURCES[name])
    return globals()[name]


MAX_BOOTSTRAP = 100_000  # resamples a report may draw; each counts the task tally once
# `simulate` bounds, checked before any draw: at about 30 us per task and
# 0.5 us and 85 bytes per record (2-core Xeon), the largest run takes a
# minute or two and writes at most 8.5 GB
MAX_TASKS = 10**6
MAX_RECORDS = 10**8  # tasks x trials
MAX_DENOMINATOR = 2**63  # p = a/b is drawn as int64 integers in 0..b-1


def _parse_taus(raw: list[str] | None) -> tuple[Fraction, ...]:
    return as_thresholds(raw, "--tau") if raw else DEFAULT_TAUS


def _parse_ks(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return DEFAULT_K_GRID
    try:
        ks = tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--k must be a comma-separated integer list, got {raw!r}") from exc
    return check_k_grid(ks, "--k")


def _counts_from_raw_log(input_path: str, gold_path: str | None):
    """(counts, verdict source, sha256) of a raw log, graded against gold if given."""
    parsed = read_log(input_path)
    gold = None
    if gold_path:
        # checked after the read, so that a malformed log is reported by its line
        if parsed.kind == "aggregated":
            raise ValueError(f"--gold applies to per-completion logs; {input_path} is an aggregated log "
                             "whose verdicts are already counted")
        with Path(gold_path).open("rb") as fh:
            gold = parse_gold(decode_lines(fh, gold_path), gold_path)
    return (*counts_from_log(parsed, gold), parsed.digest)


def _load_counts(input_path: str, gold_path: str | None):
    """Counts from either a persisted run or a raw log, plus provenance."""
    if is_run_file(input_path):
        # read first, so that a malformed run file is reported by its line
        manifest, counts = load_run(input_path)
        if gold_path:
            raise ValueError(f"--gold applies to per-completion logs; {input_path} is a persisted run "
                             "whose verdicts are already resolved")
        return counts, {"run_id": manifest.run_id, "verdict_source": manifest.verdict_source}
    counts, verdict_source, digest = _counts_from_raw_log(input_path, gold_path)
    provenance = {"source_digest": digest, "verdict_source": verdict_source}
    if gold_path:
        provenance["gold_digest"] = digest_file(gold_path)
    return counts, provenance


def _simulate_value(args: argparse.Namespace, name: str) -> Fraction:
    """`simulate --<name>`, which its `--kind` requires, as an exact value in [0, 1]."""
    raw = getattr(args, name)
    if raw is None:
        raise ValueError(f"--kind {args.kind} needs --{name}")
    value = as_unit_rational(raw, f"--{name}")
    if name != "ratio" and value.denominator > MAX_DENOMINATOR:
        raise ValueError(f"--{name} must have a denominator of at most 2**63, got {value}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json
    from collections import Counter

    _load("files", "records", "synth")
    if args.model == "":
        raise ValueError("--model must be a nonempty string, got ''")
    for flag, count in (("--tasks", args.tasks), ("--trials", args.trials)):
        if count < 1:
            raise ValueError(f"{flag} must be >= 1, got {count}")
    if args.tasks > MAX_TASKS:
        raise ValueError(f"--tasks must be at most {MAX_TASKS}, got {args.tasks}")
    if args.tasks * args.trials > MAX_RECORDS:
        raise ValueError(f"--tasks x --trials must be at most {MAX_RECORDS} records, got {args.tasks * args.trials}")
    if args.kind == "guesser":
        if not 2 <= args.support <= MAX_DENOMINATOR:
            raise ValueError(f"--support must lie in [2, 2**63], got {args.support}")
        spec = GuesserSpec(
            support_size=args.support,
            tasks=args.tasks,
            trials=args.trials,
            seed=args.seed,
            model=args.model or "guesser",
        )
        profile, log = guesser_profile(spec), guesser_log(spec)
        if args.gold_out:
            lines = "".join(
                json.dumps({"answer": a, "task": t}, sort_keys=True, separators=(",", ":")) + "\n"
                for t, a in sorted(guesser_gold(spec).items())
            )
            write_atomic(Path(args.gold_out), lines)
    else:
        names = {"constant-p": ("p",), "two-point": ("low", "high", "ratio")}.get(args.kind, ())
        profile_spec = ProfileSpec(
            kind=args.kind,
            tasks=args.tasks,
            seed=args.seed,
            model=args.model or args.kind,
            **{name: _simulate_value(args, name) for name in names},
        )
        profile = make_profile(profile_spec)
        log = completions_log(profile, args.trials, args.seed)
        if args.gold_out:
            raise ValueError("--gold-out applies to the guesser kind only")
    write_atomic(Path(args.out), log)

    counts = Counter(profile.probabilities)
    print(f"model {profile.model}: {profile.num_tasks} tasks, {args.trials} trials each")
    print("exact per-task success probabilities:")
    for p in sorted(counts):
        print(f"  p={p} on {counts[p]} task(s)")
    print(f"wrote {profile.num_tasks * args.trials} records to {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.gold and Path(args.gold).name == Path(args.input).name:
        raise ValueError(f"--input {args.input} and --gold {args.gold} have the same base name "
                         f"{Path(args.input).name!r}, which keys each one's sha256 in the run's source_digests; "
                         "rename one of them")
    _load("ingest")
    counts, verdict_source, digest = _counts_from_raw_log(args.input, args.gold)
    digests = {Path(args.input).name: digest}
    if args.gold:
        digests[Path(args.gold).name] = digest_file(args.gold)
    manifest = build_manifest(counts, digests, verdict_source)
    persist_run(manifest, counts, args.out)
    print(f"run {manifest.run_id[:12]}: {len(counts)} model(s), "
          f"{len(set().union(*(view.tasks for view in counts.values())))} task(s), {manifest.record_count} records")
    print(f"wrote {args.out}")
    return 0


def _report(args: argparse.Namespace, **options):
    """The report bundle of `args.input` under the shared input flags plus
    a command's own `build_report` options."""
    counts, provenance = _load_counts(args.input, args.gold)
    if unknown := sorted(set(args.model or ()) - set(counts)):
        raise ValueError(f"--model names unknown models {unknown}; known models: {sorted(counts)}")
    selected = {model: counts[model] for model in args.model or counts}
    return build_report(selected, ks=_parse_ks(args.k), provenance=provenance, **options)


def _table_options(args: argparse.Namespace) -> dict[str, object]:
    """The `build_report` options of the commands that write a metric table."""
    if args.bootstrap < 0:
        raise ValueError(f"--bootstrap must be >= 0, got {args.bootstrap}")
    if args.bootstrap > MAX_BOOTSTRAP:
        raise ValueError(f"--bootstrap must be at most {MAX_BOOTSTRAP}, got {args.bootstrap}")
    return {"taus": _parse_taus(args.tau), "seed": args.seed, "bootstrap_resamples": args.bootstrap}


def _cmd_compute(args: argparse.Namespace) -> int:
    _load(*_REPORT_MODULES)
    if args.group_delimiter == "":
        raise ValueError("--group-delimiter must be a nonempty string, got ''")
    bundle = _report(args, group_delimiter=args.group_delimiter, **_table_options(args))
    sys.stdout.write(render_metrics_table(bundle))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "bundle.json", bundle_chunks(bundle))
        write_atomic(out / "metrics.csv", metrics_csv(bundle))
        print(f"wrote {out / 'bundle.json'} and {out / 'metrics.csv'}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    _load("plots", *_REPORT_MODULES)
    bundle = _report(args)
    stems: dict[str, str] = {}
    for model in bundle.models:
        stem = safe_filename(model)
        if stems.setdefault(stem, model) != model:
            raise ValueError(
                f"models {stems[stem]!r} and {model!r} would both write cover_curve_{stem}.csv "
                f"and pass_curve_{stem}.csv; select one of them with --model"
            )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, model in stems.items():
        write_atomic(out / f"cover_curve_{stem}.csv", cover_curve_csv(bundle.cover_curves[model]))
        write_atomic(out / f"pass_curve_{stem}.csv", pass_curve_csv(bundle.pass_curves[model]))
    write_atomic(out / "cover_curves.svg", cover_curves_svg(list(bundle.cover_curves.values())))
    write_atomic(out / "pass_curves.svg", pass_curves_svg(list(bundle.pass_curves.values())))
    print(f"wrote curve tables and SVG plots for {len(bundle.models)} model(s) to {out}")
    return 0


def _cmd_dominance(args: argparse.Namespace) -> int:
    _load(*_REPORT_MODULES)
    if args.model and len(set(args.model)) < 2:
        raise ValueError(f"dominance needs at least 2 models; --model selects only {args.model[0]!r}")
    bundle = _report(args, **_table_options(args))
    if bundle.dominance is None:
        raise ValueError("dominance needs at least 2 models in the run")
    sys.stdout.write(render_dominance_text(bundle))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "dominance.json", bundle_chunks(bundle))
        print(f"wrote {out / 'dominance.json'}")
    return 0


def _add_input_args(sub: argparse.ArgumentParser, with_table: bool = False) -> None:
    sub.add_argument("--input", required=True, help="raw log (per-completion or aggregated) or persisted run")
    sub.add_argument("--gold", help="gold-answer file for grading per-completion logs without verdicts")
    sub.add_argument("--model", action="append", help="restrict to this model (repeatable)")
    sub.add_argument("--k", help="comma-separated ascending k grid (default powers of two 1..8192)")
    if with_table:
        sub.add_argument("--tau", action="append",
                         help="reliability threshold, exact decimal or num/den (repeatable; default 0.2 0.8)")
        sub.add_argument("--seed", type=int, default=0, help="seed for bootstrap resampling")
        sub.add_argument("--bootstrap", type=int, default=0, help="bootstrap resample count (0 = off)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertau",
        description="Reliability-thresholded coverage metrics from sampled completion logs",
    )
    parser.add_argument("--version", action="version", version=f"covertau {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic completion log")
    sim.add_argument("--kind", required=True, choices=["guesser", "constant-p", "two-point", "uniform-random"])
    sim.add_argument("--tasks", type=int, required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--model", help="model identifier in the emitted log")
    sim.add_argument("--support", type=int, default=30, help="guesser answer-space size")
    sim.add_argument("--p", help="constant-p success probability (exact decimal or num/den)")
    sim.add_argument("--low", help="two-point low value")
    sim.add_argument("--high", help="two-point high value")
    sim.add_argument("--ratio", help="two-point fraction of tasks at the high value")
    sim.add_argument("--out", required=True, help="output log path")
    sim.add_argument("--gold-out", help="also write the guesser gold-answer file here")
    sim.set_defaults(func=_cmd_simulate)

    ing = sub.add_parser("ingest", help="parse a raw log and persist an aggregated run")
    ing.add_argument("--input", required=True)
    ing.add_argument("--gold", help="gold-answer file for grading")
    ing.add_argument("--out", required=True, help="output run path")
    ing.set_defaults(func=_cmd_ingest)

    comp = sub.add_parser("compute", help="per-model metric table")
    _add_input_args(comp, with_table=True)
    comp.add_argument("--group-delimiter", help="average metrics per task group split on this delimiter")
    comp.add_argument("--out-dir", help="also write bundle.json and metrics.csv here")
    comp.set_defaults(func=_cmd_compute)

    cur = sub.add_parser("curves", help="curve tables and SVG plots")
    _add_input_args(cur)
    cur.add_argument("--out-dir", required=True)
    cur.set_defaults(func=_cmd_curves)

    dom = sub.add_parser("dominance", help="pairwise excess-AUC report")
    _add_input_args(dom, with_table=True)
    dom.add_argument("--out-dir", help="also write dominance.json here")
    dom.set_defaults(func=_cmd_dominance)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # numpy is not loaded yet, and covertau makes no BLAS call: one OpenBLAS
    # thread saves the CPU an idle pool burns.  A caller's own setting stays.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    # a ParseError is a ValueError; numpy's MemoryError names its array
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
