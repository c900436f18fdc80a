"""Fuzzed report flags never give a traceback or a hang.

Each example runs `compute`, `dominance` or `curves` through `main` in
process on one small valid aggregated log, with drawn values of `--k`,
repeated `--tau`, `--seed`, `--bootstrap`, repeated `--model` (known,
unknown or empty) and `--group-delimiter`, each on the commands that take
it.  The command must exit 0 or 2, where argparse's `SystemExit(2)` counts
as 2, and raise nothing else.  On exit 2 the last stderr line must name one
of the flags given.  A timer bounds each example, so a hang fails the test
instead of stalling it.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau.cli import main

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
