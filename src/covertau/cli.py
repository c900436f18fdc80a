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
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from . import __version__
from .ingest import (
    ParseError,
    build_manifest,
    counts_from_log,
    decode_lines,
    digest_file,
    is_run_file,
    load_run,
    parse_gold,
    persist_run,
    read_log,
    write_atomic,
)
from .plots import cover_curves_svg, pass_curves_svg
from .records import as_unit_rational
from .report import (
    DEFAULT_K_GRID,
    DEFAULT_TAUS,
    build_report,
    bundle_json,
    cover_curve_csv,
    metrics_csv,
    pass_curve_csv,
    render_dominance_text,
    render_metrics_table,
    safe_filename,
)
from .synth import (
    GuesserSpec,
    ProfileSpec,
    completions_log,
    guesser_gold,
    guesser_log,
    guesser_profile,
    make_profile,
)
from .synth import records_to_jsonl, simulate_guesser  # noqa: F401  (perfbench/spans.py wraps them here)


def _parse_taus(raw: list[str] | None) -> tuple[Fraction, ...]:
    if not raw:
        return DEFAULT_TAUS
    return tuple(as_unit_rational(t, "--tau") for t in raw)


def _parse_ks(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return DEFAULT_K_GRID
    try:
        ks = tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--k must be a comma-separated integer list, got {raw!r}") from exc
    if any(k < 1 for k in ks):
        raise ValueError(f"--k values must be >= 1, got {list(ks)}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"--k values must be strictly ascending, got {list(ks)}")
    try:
        float(ks[-1])
    except OverflowError:
        raise ValueError(f"--k values must convert to a float; one has {len(str(ks[-1]))} digits") from None
    return ks


def _counts_from_raw_log(input_path: str, gold_path: str | None):
    """(counts, verdict source) of a raw log, graded against gold if given."""
    parsed = read_log(input_path)
    gold = None
    if gold_path:
        with Path(gold_path).open("rb") as fh:
            gold = parse_gold(decode_lines(fh, gold_path), gold_path)
    return counts_from_log(parsed, gold)


def _load_counts(input_path: str, gold_path: str | None):
    """Counts from either a persisted run or a raw log, plus provenance."""
    if is_run_file(input_path):
        if gold_path:
            raise ValueError(f"--gold applies to raw logs; {input_path} is a persisted run "
                             "whose verdicts are already resolved")
        manifest, counts = load_run(input_path)
        return counts, {"run_id": manifest.run_id, "verdict_source": manifest.verdict_source}
    counts, verdict_source = _counts_from_raw_log(input_path, gold_path)
    provenance = {"source_digest": digest_file(input_path), "verdict_source": verdict_source}
    if gold_path:
        provenance["gold_digest"] = digest_file(gold_path)
    return counts, provenance


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.kind == "guesser":
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
        profile_spec = ProfileSpec(
            kind=args.kind,
            tasks=args.tasks,
            seed=args.seed,
            model=args.model or args.kind,
            p=args.p,
            low=args.low,
            high=args.high,
            ratio=args.ratio,
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
    counts, verdict_source = _counts_from_raw_log(args.input, args.gold)
    digests = {Path(args.input).name: digest_file(args.input)}
    if args.gold:
        digests[Path(args.gold).name] = digest_file(args.gold)
    manifest = build_manifest(counts, digests, verdict_source)
    persist_run(manifest, counts, args.out)
    print(f"run {manifest.run_id[:12]}: {len(counts)} model(s), "
          f"{len({tc.task for tcs in counts.values() for tc in tcs})} task(s), {manifest.record_count} records")
    print(f"wrote {args.out}")
    return 0


def _report(args: argparse.Namespace, **options):
    """The report bundle of `args.input` under the shared input flags plus
    a command's own `build_report` options."""
    counts, provenance = _load_counts(args.input, args.gold)
    return build_report(counts, ks=_parse_ks(args.k), model_filter=args.model, provenance=provenance, **options)


def _table_options(args: argparse.Namespace) -> dict[str, object]:
    """The `build_report` options of the commands that write a metric table."""
    return {"taus": _parse_taus(args.tau), "seed": args.seed, "bootstrap_resamples": args.bootstrap}


def _cmd_compute(args: argparse.Namespace) -> int:
    bundle = _report(args, group_delimiter=args.group_delimiter, **_table_options(args))
    sys.stdout.write(render_metrics_table(bundle))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "bundle.json", bundle_json(bundle))
        write_atomic(out / "metrics.csv", metrics_csv(bundle))
        print(f"wrote {out / 'bundle.json'} and {out / 'metrics.csv'}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
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
    bundle = _report(args, **_table_options(args))
    if bundle.dominance is None:
        raise ValueError("dominance needs at least 2 models in the run")
    sys.stdout.write(render_dominance_text(bundle))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "dominance.json", bundle_json(bundle))
        print(f"wrote {out / 'dominance.json'}")
    return 0


def _add_input_args(sub: argparse.ArgumentParser, with_table: bool = False) -> None:
    sub.add_argument("--input", required=True, help="raw log (per-completion or aggregated) or persisted run")
    sub.add_argument("--gold", help="gold-answer file for grading raw logs without verdicts")
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
    except (ValueError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
