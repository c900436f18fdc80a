import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, settings

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Every phase but explain, which only adds notes to a failure's report: on a
# failing property it ran for minutes and grew to hundreds of MB.  No check
# is loosened; a failure is still found, shrunk and reported.
settings.register_profile("covertau", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("covertau")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance check as it completes."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call" or item.module.__name__ != "test_acceptance":
        return
    status = "PASS" if rep.passed else "FAIL"
    terminal = item.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(f"[acceptance] {status} {item.name}")


@pytest.fixture
def loads_calls(monkeypatch):
    """A Counter of the `json.loads` calls: "loads" counts whole lines (text
    that starts with "{" after whitespace), "decodes" every other call, such
    as a string value decoded on its own."""
    calls = Counter()
    loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls["loads" if text.lstrip()[:1] == "{" else "decodes"] += 1
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    return calls


@pytest.fixture
def spans(monkeypatch):
    """perfbench/spans.py, the benchmark's layer trace, imported from its
    file without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
