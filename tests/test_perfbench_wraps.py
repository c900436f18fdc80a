"""Every function the benchmark's layer trace wraps must still exist, and
every import kept only for that trace must be one it wraps.

`perfbench/spans.py` patches covertau functions at the module attributes
their callers use, so a refactor that moves or drops one of those names
breaks `perfbench/run.py --trace 1`.  Conversely an unused import marked
`# noqa: F401` in the package is dead code unless the trace wraps it there.
The perfbench suite is outside the default test paths; this check runs with
the package tests.  It imports spans.py from its file without writing
bytecode next to it.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "covertau"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    assert spans.WRAPS
    for module, path, name, _counter in spans.WRAPS:
        owner, attr = spans.resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{name}: {module}.{path} does not resolve"


def noqa_imports():
    """(module, name) for each name imported by a statement of the package
    that carries `# noqa: F401` on any of its lines."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = "covertau" if path.stem == "__init__" else f"covertau.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                for alias in node.names:
                    yield module, alias.asname or alias.name


def test_every_noqa_import_is_wrapped_where_it_is_imported(spans):
    wrapped = {(module, path) for module, path, _name, _counter in spans.WRAPS}
    imports = list(noqa_imports())
    assert imports, "no noqa imports found; is PACKAGE right?"
    assert [f"{m}.{name}" for m, name in imports if (m, name) not in wrapped] == []
