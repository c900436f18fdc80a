"""No module of the package imports numpy at module scope, the library's
cover-curve path loads it nowhere, and importing the CLI, or every module
of the package, loads none of `dataclasses`, `inspect` or `html` (nor, for
every module, the network stack).  Between covertau modules it is the other
way round: each imports the others at module scope only, and uses every
name it imports.

numpy is imported inside the functions that draw random numbers, so that
`covertau --version`, `ingest` and reports without `--bootstrap` start
without it.  A stray top-level import would load it on every command
again; the first guard reads the source instead of timing anything.

A covertau import inside a function hides an import cycle, and an unused
one loads a module for nothing, so the module graph stays acyclic and each
command loads only what it runs.  The one exception is a `# noqa: F401`
name that perfbench/spans.py wraps where it is imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import covertau

PACKAGE = Path(covertau.__file__).parent


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imports(tree: ast.Module) -> Iterator[tuple[ast.Import | ast.ImportFrom, str]]:
    """Each import statement of `tree` and the body it sits in: "function"
    (it runs when the function is called), "type-checking" (under
    `if TYPE_CHECKING:`, outside a function: it never runs), "class" or
    "module" (it runs when the module is imported)."""
    pending: list[tuple[ast.AST, str]] = [(node, "module") for node in tree.body]
    while pending:
        node, where = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = "function"
        elif isinstance(node, ast.ClassDef) and where == "module":
            where = "class"
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            pending.extend((child, "type-checking") for child in node.body)
            pending.extend((child, where) for child in node.orelse)
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, where
        pending.extend((child, where) for child in ast.iter_child_nodes(node))


def _sources(node: ast.Import | ast.ImportFrom, package: str = "covertau") -> list[str]:
    """The modules an import statement of a module of `package` imports from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:  # the package is flat, so a relative import names `package` or one of its modules
        return [f"{package}.{node.module}" if node.module else package]
    return [node.module or ""]


def _module_scope_numpy_imports(tree: ast.Module) -> list[int]:
    """Line numbers of numpy imports that run when the module is imported:
    anywhere outside a function body and outside `if TYPE_CHECKING:`."""
    return sorted(node.lineno for node, where in _imports(tree) if where in ("module", "class")
                  and any(name == "numpy" or name.startswith("numpy.") for name in _sources(node)))


def _covertau_import_faults(source: str, module: str, wrapped: set[tuple[str, str]]) -> list[str]:
    """The faults of the covertau imports of `source`, the text of `module`:
    "<line>: late" for one inside a function or class body, and "<line>:
    <name> unused" for a name imported from covertau that `source` never
    reads, unless the import is marked `# noqa: F401` and (module, name) is
    in `wrapped`."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults = []
    for node, where in _imports(tree):
        if not any(name.split(".")[0] == "covertau" for name in _sources(node)):
            continue
        if where in ("function", "class"):
            faults.append((node.lineno, "late"))
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and not (noqa and (module, name) in wrapped):
                faults.append((node.lineno, f"{name} unused"))
    return [f"{line}: {fault}" for line, fault in sorted(faults)]


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


def test_covertau_imports_sit_at_module_scope_and_are_used(spans):
    wrapped = {(module, path) for module, path, _name, _counter in spans.WRAPS}
    faults = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _covertau_import_faults(path.read_text(encoding="utf-8"),
                                             "covertau" if path.stem == "__init__" else f"covertau.{path.stem}",
                                             wrapped))
    }
    assert faults == {}


def test_import_check_flags_late_and_unused_covertau_imports():
    source = (
        "import json\n"
        "from . import __version__\n"
        "from .curves import CoverCurve, PassCurve\n"
        "from .metrics import aggregate  # noqa: F401\n"
        "from .metrics import cover_at_tau  # noqa: F401\n"
        "class Tally:\n"
        "    from .records import ONE\n"
        "def curve(profile) -> CoverCurve:\n"
        "    from .dominance import TaskTally\n"
        "    return TaskTally(__version__, ONE)\n"
    )
    wrapped = {("covertau.m", "aggregate")}
    assert _covertau_import_faults(source, "covertau.m", wrapped) == [
        "3: PassCurve unused", "5: cover_at_tau unused", "7: late", "9: late"]


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
    # the CLI loads each module only when a command runs it, so import them all
    ("from covertau import cli, curves, dominance, files, ingest, metrics, plots, records, report, synth",
     ["dataclasses", "inspect", "html", "urllib.request", "http.client", "email", "ssl"]),
], ids=["library-cover-path", "cli-import", "every-module"])
def test_fresh_interpreter_leaves_modules_unloaded(code, unloaded):
    code = f"import sys\n{code}\nprint([name for name in {unloaded!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
