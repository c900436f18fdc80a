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
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "covertau"


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


def test_trace_sees_each_command_layer_in_a_fresh_interpreter(tmp_path):
    # the CLI binds a command's names when it starts; a name the tracer has
    # wrapped there before must stay the one the command calls
    log, run = tmp_path / "log.jsonl", tmp_path / "run.jsonl"
    log.write_text("".join(json.dumps({"model": m, "task": f"t{i}", "n": 4, "c": c}) + "\n"
                           for m, c in (("a", 1), ("b", 3)) for i in range(3)), encoding="utf-8")
    code = f"""
import contextlib, importlib.util, io, json, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS)!r})
spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import covertau.cli
tracer = spans.Tracer()
with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
    assert covertau.cli.main(["ingest", "--input", {str(log)!r}, "--out", {str(run)!r}]) == 0
    assert covertau.cli.main(["compute", "--input", {str(run)!r}]) == 0
print(json.dumps(tracer.calls({{tracer.run_id}})))
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    calls = json.loads(result.stdout)
    layers = ["ingest.read_log", "ingest.build_manifest", "ingest.persist_run", "io.write_atomic",
              "ingest.load_run", "report.build_report"]
    assert {name: calls.get(name, 0) for name in layers} == {
        "ingest.read_log": 1, "ingest.build_manifest": 1, "ingest.persist_run": 1, "io.write_atomic": 1,
        "ingest.load_run": 1, "report.build_report": 1}
