"""List every `raise` in src/covertau that the test suite never runs.

Runs pytest in process under a line tracer limited to the files of
src/covertau, then reads each file with `ast` and prints every `raise`
statement none of whose lines ran, as `path:line: source`.  Lines run only
in a child process (a test that starts a fresh interpreter) are not seen.

Run from the repository root:

    PYTHONPATH=src python tools/raise_coverage.py [pytest args ...]

The pytest arguments default to the tier-1 suite.  The exit status is 1 if
pytest fails, a listed `raise` is not in ALLOWED, or the line trace was
dropped before pytest returned (then no list is printed), else 0.  Tracing makes
the suite about twice as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "covertau"

#: (file, enclosing function, statement source) -> why no test can run it
ALLOWED: dict[tuple[str, str, str], str] = {}


def raises(path: Path) -> list[tuple[str, int, int, str]]:
    """(enclosing function, first line, last line, source) of each `raise` in a file."""
    source = path.read_text(encoding="utf-8")
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((function, child.lineno, child.end_lineno, ast.get_source_segment(source, child)))
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def traced_pytest(args: list[str]) -> tuple[int, set[tuple[str, int]], bool]:
    """(pytest's exit code, the (file, line) pairs run in the package,
    whether the line trace was still set when pytest returned)."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    ran: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
        # a test that unsets the trace, or a trace function that raises (as
        # at the recursion limit), ends the trace without failing pytest
        kept = sys.gettrace() is call
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran, kept


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, ran, kept = traced_pytest(args or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                             str(ROOT / "tests")])
    if not kept:
        print("the line trace was dropped during the run, so the lines it saw are incomplete; no list printed")
        return 1
    unexpected = 0
    print(f"raise statements in {PACKAGE.relative_to(ROOT)} that no test ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        for function, first, last, source in raises(path):
            if any((str(path), n) in ran for n in range(first, last + 1)):
                continue
            reason = ALLOWED.get((path.name, function, source))
            unexpected += reason is None
            head = source.splitlines()[0]
            print(f"{path.relative_to(ROOT)}:{first}: {head}" + (f"  [allowed: {reason}]" if reason else ""))
    if code:
        print(f"pytest exited {code}; the list is incomplete")
    return 1 if code or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
