"""Fuzzed report and simulate flags never give a traceback or a hang.

Each report example runs `compute`, `dominance` or `curves` through `main`
in process on one small valid aggregated log, with drawn values of `--k`,
repeated `--tau`, `--seed`, `--bootstrap`, repeated `--model` (known,
unknown or empty) and `--group-delimiter`, each on the commands that take
it.  Each simulate example draws every `simulate` flag.  Its task and trial
counts are either small or past `MAX_TASKS` or `MAX_RECORDS`, so that an
accepted run stays small.  The command must exit 0 or 2, where argparse's
`SystemExit(2)` counts as 2, and raise nothing else.  On exit 2 the last
stderr line must name one of the flags given.  A timer bounds each example,
so a hang fails the test instead of stalling it.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau.cli import MAX_RECORDS, MAX_TASKS, main

MODELS = ("m0", "m1", "m2")
EXAMPLE_SECONDS = 10
TABLE_COMMANDS = ("compute", "dominance")


class Hang(Exception):
    """An example outran EXAMPLE_SECONDS."""


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    """Three models on six tasks in two "/" groups, at trial counts 4 and 6."""
    path = tmp_path_factory.mktemp("flags") / "log.jsonl"
    path.write_text("".join(
        json.dumps({"model": m, "task": f"g{t % 2}/t{t}", "n": 4 + 2 * (t % 2), "c": (3 * i + t) % (5 + 2 * (t % 2))})
        + "\n"
        for i, m in enumerate(MODELS) for t in range(6)
    ), encoding="utf-8")
    return path


numbers = st.one_of(st.integers(-3, 10).map(str), st.sampled_from(("", "x", "1.5", "1e3", str(2**1024), " 2")))
k_grids = st.one_of(st.lists(numbers, min_size=1, max_size=4).map(",".join), st.text(",0123456789-x ", max_size=8))
taus = st.one_of(
    st.sampled_from(("0", "1", "0.2", "1/5", "0.25", "3/4", "1/3", "-0.1", "1.5", "2/1", "1/0", "nope", "",
                     "1e-5000", "0.2e1", " 0.5")),
    st.fractions(0, 1, max_denominator=12).map(str),
)
seeds = st.one_of(st.integers(-2**70, 2**70).map(str), st.sampled_from(("", "x", "1.5")))
models = st.sampled_from((*MODELS, "", "m9", "M0"))
delimiters = st.sampled_from(("/", "", "t", "g0", "//", "-", " "))


@st.composite
def flag_sets(draw):
    """(command, [(flag, value), ...]) with each flag on a command that takes it."""
    command = draw(st.sampled_from((*TABLE_COMMANDS, "curves")))
    flags = []
    if draw(st.booleans()):
        flags.append(("--k", draw(k_grids)))
    flags += [("--model", m) for m in draw(st.lists(models, max_size=3))]
    if command in TABLE_COMMANDS:
        flags += [("--tau", t) for t in draw(st.lists(taus, max_size=3))]
        if draw(st.booleans()):
            flags.append(("--seed", draw(seeds)))
        if draw(st.booleans()):
            flags.append(("--bootstrap", str(draw(st.integers(-3, 8)))))
    if command == "compute" and draw(st.booleans()):
        flags.append(("--group-delimiter", draw(delimiters)))
    return command, flags


def run(argv):
    """(exit code, stderr) of `main(argv)`, with SystemExit read as its
    code, under a timer that raises Hang."""
    def alarm(signum, frame):
        raise Hang(argv)

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(flag_sets())
def test_fuzzed_flags_exit_0_or_2_and_name_a_flag(log, drawn):
    command, flags = drawn
    argv = [command, "--input", str(log), *(f"{flag}={value}" for flag, value in flags)]
    if command == "curves":
        argv += ["--out-dir", str(log.parent / "curves")]
    code, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        assert any(flag in last for flag, _ in flags), (argv, err)


rationals = st.one_of(taus, st.sampled_from((f"1/{2**63}", f"1/{2**63 + 1}", "1e-30")))


def counts(small, bound):
    """Integer flag values, mostly in 1..small, else below 1, past `bound`,
    or no integer."""
    valid = st.integers(1, small).map(str)
    return st.one_of(valid, valid, valid, st.sampled_from(("-1", "0", str(bound + 1), str(10**30), "", "x", "1.5")))


@st.composite
def simulate_flags(draw):
    """[(flag, value), ...] for `simulate`: every flag of every kind, each
    maybe given, and counts whose product is at most 12 * 40 records or
    past a bound."""
    flags = [("--kind", draw(st.sampled_from(("guesser", "constant-p", "two-point", "uniform-random")))),
             ("--tasks", draw(counts(12, MAX_TASKS))), ("--trials", draw(counts(40, MAX_RECORDS)))]
    optional = {"--seed": seeds, "--model": st.sampled_from(("", "g", 'g"\\é')), "--p": rationals,
                "--low": rationals, "--high": rationals, "--ratio": rationals,
                "--support": st.one_of(st.integers(-2, 40), st.integers(2**63 - 2, 2**64)).map(str)}
    flags += [(flag, draw(value)) for flag, value in optional.items() if draw(st.booleans())]
    return flags


@settings(max_examples=300, deadline=None)
@given(simulate_flags(), st.booleans())
def test_fuzzed_simulate_flags_exit_0_or_2_and_name_a_flag(log, flags, gold):
    out = log.parent / "simulated"
    argv = ["simulate", *(f"{flag}={value}" for flag, value in flags), f"--out={out}.jsonl"]
    argv += [f"--gold-out={out}.gold.jsonl"] * gold
    code, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        assert any(flag in last for flag in [flag for flag, _ in flags] + ["--gold-out"] * gold), (argv, err)


@pytest.mark.parametrize("argv, err", [
    (["--tasks", str(MAX_TASKS + 1), "--trials", "1"], f"--tasks must be at most {MAX_TASKS}, got {MAX_TASKS + 1}"),
    (["--tasks", "100", "--trials", str(MAX_RECORDS // 100 + 1)],
     f"--tasks x --trials must be at most {MAX_RECORDS} records, got {MAX_RECORDS + 100}"),
    (["--tasks", "1", "--trials", str(10**12)], f"--tasks x --trials must be at most {MAX_RECORDS} records, got {10**12}"),
], ids=["tasks", "records", "trials-past-memory"])
def test_simulate_past_a_bound_is_rejected_before_any_draw(tmp_path, argv, err):
    out = tmp_path / "log.jsonl"
    assert run(["simulate", "--kind", "guesser", *argv, "--out", str(out)]) == (2, f"error: {err}\n")
    assert not out.exists()
