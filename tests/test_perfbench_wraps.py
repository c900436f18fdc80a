"""Every function the benchmark's layer trace wraps must still exist.

`perfbench/spans.py` patches covertau functions at the module attributes
their callers use, so a refactor that moves or drops one of those names
breaks `perfbench/run.py --trace 1`.  The perfbench suite is outside the
default test paths; this check runs with the package tests.  It imports
spans.py from its file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module, path, name, _counter in spans.WRAPS:
        owner, attr = spans.resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{name}: {module}.{path} does not resolve"
