"""No module of the package imports numpy at module scope, the library's
cover-curve path loads it nowhere, and importing the CLI loads none of
`dataclasses`, `inspect` or `html`.

numpy is imported inside the functions that draw random numbers, so that
`covertau --version`, `ingest` and reports without `--bootstrap` start
without it.  A stray top-level import would load it on every command
again; the first guard reads the source instead of timing anything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covertau

PACKAGE = Path(covertau.__file__).parent


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _module_scope_numpy_imports(tree: ast.Module) -> list[int]:
    """Line numbers of numpy imports that run when the module is imported:
    anywhere outside a function body and outside `if TYPE_CHECKING:`."""
    found = []
    pending: list[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_module_scope_numpy_import():
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno in _module_scope_numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == [], f"module-scope numpy imports: {offenders}"


def test_guard_flags_module_scope_and_passes_local_imports():
    source = (
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "class Tally:\n"
        "    from numpy.random import Philox\n"
        "    def count(self):\n"
        "        import numpy as np\n"
        "try:\n"
        "    import numpy.linalg\n"
        "except ImportError:\n"
        "    pass\n"
        "def draw():\n"
        "    from numpy import random\n"
    )
    assert _module_scope_numpy_imports(ast.parse(source)) == [1, 6, 10]


COVER_PATH = """
from fractions import Fraction as F
from covertau import (SuccessProfile, auc_plus_cover, avg_auc_plus, build_cover_curve, check_cover_dominance,
                      dominance_report)
a, b = (SuccessProfile.from_pairs(m, [("t0", F(1, 3)), ("t1", p)]) for m, p in (("A", F(1)), ("B", F(0))))
curves = [build_cover_curve(a), build_cover_curve(b)]
dominance_report(curves), avg_auc_plus(curves), auc_plus_cover(*curves), check_cover_dominance(*curves)
"""


@pytest.mark.parametrize("code, unloaded", [
    # cover curves and auc+ are integer counts: only resampling needs numpy
    (COVER_PATH, ["numpy"]),
    # the value types are plain slotted classes and SVG text is escaped by hand
    ("import covertau.cli", ["dataclasses", "inspect", "html"]),
], ids=["library-cover-path", "cli-import"])
def test_fresh_interpreter_leaves_modules_unloaded(code, unloaded):
    code = f"import sys\n{code}\nprint([name for name in {unloaded!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
