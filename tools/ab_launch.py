"""Alternating launches of one covertau command from two source trees.

    python tools/ab_launch.py [--pairs N] TREE_A TREE_B -- ARG...

Each pair runs `python -m covertau.cli ARG...` once with PYTHONPATH=TREE/src
for each tree, the order flipped from pair to pair, so host load that drifts
over minutes lands on both sides alike.  Each child goes through
perfbench/launch.py, a fresh `-I -S` interpreter that reads the child's own
wall time, CPU time and peak RSS from `os.wait4` (its docstring says why the
child is not spawned from here).  One untimed launch per tree comes first.
It caches the tree's bytecode unless PYTHONDONTWRITEBYTECODE is set, in
which case every launch compiles covertau from source again; the setting
is passed on as found.  After that launch it prints, for each tree, how
many of its modules have bytecode cached for this interpreter, and exits 2
if one tree has none, some or all of them cached and the other does not:
a launch that compiles covertau and one that reads its bytecode would time
the cache, not the code.  For wall_s, cpu_s and rss_mb it prints each
side's median and quartiles and the pairs each side won (lower wins), then
the median of the per-pair differences B - A against A's interquartile
range: a claim that B is lower holds when B won at least 9 of 10 pairs and
that median difference is below -IQR(A).  The command runs in the current
directory, and both sides write its outputs to the same paths in turn.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"
METRICS = ("wall_s", "cpu_s", "rss_mb")


def launch(tree: str, argv: list[str], scratch: Path) -> dict:
    """wall_s, cpu_s and rss_mb of one launch of the command from `tree`."""
    result, out, err = (str(scratch / name) for name in ("result.json", "stdout", "stderr"))
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    subprocess.run([sys.executable, "-I", "-S", str(LAUNCH), result, out, err, "600",
                    sys.executable, "-m", "covertau.cli", *argv], env=env, check=True)
    sample = json.loads(Path(result).read_text())
    if sample["status"] != 0:
        sys.exit(f"{tree}: exit status {sample['status']}\n{Path(err).read_text()[-2000:]}")
    return sample


def bytecode_state(tree: str) -> tuple[str, str]:
    """Whether none, some or all of the tree's covertau modules have bytecode
    cached for this interpreter, and how many."""
    sources = sorted((Path(tree).resolve() / "src" / "covertau").glob("*.py"))
    cached = sum(Path(importlib.util.cache_from_source(str(path))).exists() for path in sources)
    writes = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    state = "none" if cached == 0 else "all" if cached == len(sources) else "some"
    return state, f"{cached}/{len(sources)} modules cached (bytecode writes {writes})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs to time (at least 2)")
    parser.add_argument("trees", nargs=2, metavar="TREE", help="source trees A and B, each holding src/covertau")
    parser.add_argument("argv", nargs="+", metavar="ARG", help="the covertau command and its arguments, after --")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = list(enumerate(args.trees))  # by position: A and B may name one tree, to see the noise
    runs = ([], [])
    with tempfile.TemporaryDirectory() as scratch:
        states = []
        for side, tree in sides:
            launch(tree, args.argv, Path(scratch))
            states.append(bytecode_state(tree))
            print(f"bytecode {'AB'[side]} {states[-1][1]}  {tree}", flush=True)
        if states[0][0] != states[1][0]:
            print(f"error: A has {states[0][1]} and B {states[1][1]}; clear both trees' __pycache__ "
                  "or cache both, so that the pairs time the code and not the bytecode cache", file=sys.stderr)
            sys.exit(2)
        for pair in range(args.pairs):
            for side, tree in sides[::-1] if pair % 2 else sides:
                runs[side].append(launch(tree, args.argv, Path(scratch)))
    for metric in METRICS:
        a, b = ([run[metric] for run in side] for side in runs)
        wins = sum(x < y for x, y in zip(a, b)), sum(y < x for x, y in zip(a, b))
        for (side, tree), values, won in zip(sides, (a, b), wins):
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{metric:7} {'AB'[side]} median {median:.4f}  quartiles [{q1:.4f}, {q3:.4f}]  "
                  f"won {won}/{args.pairs}  {tree}")
        q1, _, q3 = statistics.quantiles(a, n=4)
        print(f"{metric:7} B-A median {statistics.median(y - x for x, y in zip(a, b)):+.4f}  "
              f"IQR(A) {q3 - q1:.4f}  B won {wins[1]}/{args.pairs}")


if __name__ == "__main__":
    main()
