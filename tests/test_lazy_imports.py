"""Each command loads only the covertau modules it runs, and the package
loads a submodule the first time one of its names is used.

Every launch compiles the modules it imports when no bytecode is cached, so
a module a command never runs costs it start-up time.  Each case runs in a
fresh interpreter, because this process has long since loaded them all.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covertau
from covertau.cli import main

ENV = {**os.environ, "PYTHONPATH": str(Path(covertau.__file__).parents[1])}

# the names `covertau` exported when its __init__ imported every module, by
# the module that defines each, in `__all__` order
EXPORTS = {
    "curves": ["CoverCurve", "PassCurve", "beta_mass_below", "beta_weighted_pass", "export_curve",
               "fraction_nonzero", "pass_curve", "uniform_auc"],
    "dominance": ["CrossoverResult", "DominanceReport", "auc_plus_cover", "avg_auc_plus", "bootstrap_bands",
                  "build_cover_curve", "check_cover_dominance", "dominance_report", "find_crossover", "rank_models"],
    "ingest": ["ParseError", "RunManifest", "aggregate", "apply_grading", "build_manifest", "canonical_answer",
               "cons_at_n", "counts_from_log", "grade", "load_run", "parse_gold", "parse_records", "persist_run"],
    "metrics": ["cover_at_tau", "estimate_success", "maj_at_n", "majority_threshold", "pass_at_k_exact",
                "pass_at_k_unbiased"],
    "records": ["GoldAnswer", "SampleRecord", "SuccessProfile", "TaskColumns", "TaskCounts", "as_unit_rational"],
    "synth": ["GuesserSpec", "ProfileSpec", "make_profile", "simulate_completions", "simulate_guesser",
              "toy_model_a", "toy_model_b"],
}


def fresh(code: str) -> object:
    """The JSON value that `code`, run in a fresh interpreter, prints last."""
    result = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def loaded_by(argv: list[str]) -> tuple[int, list[str]]:
    """The exit status of `covertau.cli.main(argv)` in a fresh interpreter,
    and the covertau modules loaded when it returns."""
    return tuple(fresh(f"""
import contextlib, io, json, sys
import covertau.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = covertau.cli.main({argv!r})
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, sorted(m for m in sys.modules if m.split(".")[0] == "covertau")]))
"""))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A two-model raw log, its gold answers and the run ingested from them."""
    root = tmp_path_factory.mktemp("lazy")
    logs = [root / "a.jsonl", root / "b.jsonl"]
    gold, run = root / "gold.jsonl", root / "run.jsonl"
    assert main(["simulate", "--kind", "guesser", "--tasks", "4", "--trials", "3", "--model", "a",
                 "--out", str(logs[0]), "--gold-out", str(gold)]) == 0
    assert main(["simulate", "--kind", "constant-p", "--p", "1/2", "--tasks", "4", "--trials", "3",
                 "--model", "b", "--out", str(logs[1])]) == 0
    log = root / "log.jsonl"
    log.write_text("".join(path.read_text(encoding="utf-8") for path in logs), encoding="utf-8")
    assert main(["ingest", "--input", str(log), "--gold", str(gold), "--out", str(run)]) == 0
    return {"root": root, "log": log, "gold": gold, "run": run}


BASE = ["covertau", "covertau.cli"]
READ = ["covertau.files", "covertau.ingest", "covertau.metrics", "covertau.records"]
REPORT = ["covertau.curves", "covertau.dominance", "covertau.report"]


@pytest.mark.parametrize("argv, expected", [
    (["--version"], BASE),
    (["simulate", "--kind", "guesser", "--tasks", "2", "--trials", "2", "--out", "{root}/sim.jsonl",
      "--gold-out", "{root}/sim_gold.jsonl"],
     BASE + ["covertau.files", "covertau.records", "covertau.synth"]),
    (["ingest", "--input", "{log}", "--gold", "{gold}", "--out", "{root}/again.jsonl"],
     BASE + ["covertau.files", "covertau.ingest", "covertau.records"]),
    (["compute", "--input", "{run}", "--out-dir", "{root}/compute"], BASE + READ + REPORT),
    (["dominance", "--input", "{run}", "--out-dir", "{root}/dominance"], BASE + READ + REPORT),
    (["curves", "--input", "{run}", "--out-dir", "{root}/curves"], BASE + READ + REPORT + ["covertau.plots"]),
], ids=["version", "simulate", "ingest", "compute", "dominance", "curves"])
def test_each_command_loads_only_its_modules(inputs, argv, expected):
    status, loaded = loaded_by([arg.format(**inputs) for arg in argv])
    assert status == 0
    assert loaded == sorted(expected)


def test_import_loads_no_submodule_until_a_name_is_used():
    assert fresh("""
import json, sys
import covertau
seen = [sorted(m for m in sys.modules if m.startswith("covertau."))]
covertau.TaskCounts
seen.append(sorted(m for m in sys.modules if m.startswith("covertau.")))
covertau.metrics.pass_at_k_exact  # a submodule by name, as when __init__ imported them all
seen.append(sorted(m for m in sys.modules if m.startswith("covertau.")))
print(json.dumps(seen))
""") == [[], ["covertau.records"], ["covertau.metrics", "covertau.records"]]


def test_all_holds_the_names_it_held_when_every_module_loaded():
    assert covertau.__all__ == ["__version__", *(name for names in EXPORTS.values() for name in names)]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    source = importlib.import_module(f"covertau.{module}")
    for name in EXPORTS[module]:
        assert getattr(covertau, name) is getattr(source, name), name


def test_star_import_and_dir_list_every_name():
    listed, bound = fresh("""
import json
import covertau
listed = sorted(set(covertau.__all__) - set(dir(covertau)))
namespace = {}
exec("from covertau import *", namespace)
print(json.dumps([listed, sorted(set(namespace) - {"__builtins__"})]))
""")
    assert listed == []
    assert bound == sorted(covertau.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'covertau' has no attribute 'nope'$"):
        covertau.nope
    assert not hasattr(covertau.cli, "nope")
