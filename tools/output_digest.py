"""One sha256 over everything the benchmark workloads' commands produce.

Builds each workload of perfbench/workloads.py for one seed, runs its
commands in process through `covertau.cli.main`, and hashes, command by
command, the exit code and stdout and stderr (with the output directory
replaced by a placeholder), then every file the commands wrote.  Two
checkouts whose outputs are byte-identical print the same digests.

Run from the repository root, with the covertau to test on PYTHONPATH:

    PYTHONPATH=<checkout>/src python tools/output_digest.py --seed 3 5 7

For each seed it prints one line per workload and a last line for all of
them, each "<sha256>  <name>"; with more than one seed, each seed's lines
follow a "seed N" line.  perfbench/ is read, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import covertau
from covertau.cli import main as covertau_main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

PLACEHOLDER = "<out>"


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `covertau` command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = covertau_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def workload_digest(name: str, seed: int, work: Path) -> str:
    wl = workloads.build(name, seed, work / "inputs")
    out = work / "out"
    out.mkdir()
    digest = hashlib.sha256()
    for command, argv in wl.commands(out):
        code, stdout, stderr = run(argv)
        for part in (command, str(code), stdout, stderr):
            digest.update(part.replace(str(out), PLACEHOLDER).encode() + b"\0")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", required=True, help="benchmark seeds, each of every workload")
    args = parser.parse_args(argv)

    print(f"covertau {covertau.__version__} from {Path(covertau.__file__).parent}", file=sys.stderr)
    for seed in args.seed:
        if len(args.seed) > 1:
            print(f"seed {seed}", flush=True)
        total = hashlib.sha256()
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                digest = workload_digest(name, seed, Path(tmp))
            total.update(f"{name} {digest}\n".encode())
            print(f"{digest}  {name}", flush=True)
        print(f"{total.hexdigest()}  all", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
