"""Seeded benchmark inputs and the covertau commands each workload runs.

Every input comes from numpy's PCG64 generator seeded with the benchmark
seed; covertau receives only the files written here.  Alongside the files,
each builder keeps the generator's own tallies, which the output checks in
`oracles.py` compare against without using covertau code.

Workloads (sizes are the defaults; tests shrink them):

  graded-log       2 models x 15 tasks x 8192 trials of per-completion
                   records (245,760 lines, about 21 MB).  `flagged` is a
                   30-label guesser whose records carry `correct` and
                   `answer`; `graded` is a 4-label guesser whose records
                   carry only `answer`, graded against a gold file.  Runs
                   simulate, ingest --gold, compute.  Parse, grading,
                   aggregation and synthesis do nearly all the work.
  model-matrix     aggregated log, 10 models x 2000 tasks at n = 256.  Runs
                   ingest, dominance, curves.  The Fraction auc+ matrix and
                   the pass/cover curves dominate; grading is bypassed.
  mixed-bootstrap  aggregated log, 6 models x 3000 tasks in 8 "/"-prefixed
                   groups, trial counts drawn from TRIAL_MIX, and every
                   third model omitting every 97th task.  Runs compute with
                   1000 bootstrap resamples and per-group tables directly on
                   the raw log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("graded-log", "model-matrix", "mixed-bootstrap")

FLAGGED_SUPPORT = 30
GRADED_LABELS = ("alpha", "beta", "gamma", "delta")
# surface forms of one label; grading must see through case and padding
ANSWER_FORMS = (str.lower, str.title, str.upper, lambda s: f"  {s} ")
TRIAL_MIX = (8, 16, 24, 100, 256, 300)
OMIT_EVERY = 97
SIM_SUPPORT = 30


@dataclass
class Workload:
    """Generated inputs plus what the outputs must agree with.

    `tallies` maps model -> task -> (n, c) as generated; `omitted` maps
    model -> tasks that model's log leaves out.
    """

    name: str
    seed: int
    inputs: dict[str, Path]
    tallies: dict[str, dict[str, tuple[int, int]]]
    omitted: dict[str, set[str]] = field(default_factory=dict)
    sizes: dict[str, object] = field(default_factory=dict)
    sim_trials: int = 0
    sim_tasks: int = 0

    @property
    def parser(self) -> str:
        """The command that parses the raw log."""
        return "compute" if self.name == "mixed-bootstrap" else "ingest"

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        """(command name, argv after the program) for one pass, writing under `out`."""
        i = {k: str(v) for k, v in self.inputs.items()}
        if self.name == "graded-log":
            return [
                ("simulate", ["simulate", "--kind", "guesser", "--support", str(SIM_SUPPORT),
                              "--tasks", str(self.sim_tasks), "--trials", str(self.sim_trials),
                              "--seed", str(self.seed), "--out", str(out / "simulated.jsonl")]),
                ("ingest", ["ingest", "--input", i["log"], "--gold", i["gold"],
                            "--out", str(out / "run.jsonl")]),
                ("compute", ["compute", "--input", str(out / "run.jsonl"),
                             "--out-dir", str(out / "compute")]),
            ]
        if self.name == "model-matrix":
            return [
                ("ingest", ["ingest", "--input", i["log"], "--out", str(out / "run.jsonl")]),
                ("dominance", ["dominance", "--input", str(out / "run.jsonl"),
                               "--out-dir", str(out / "dominance")]),
                ("curves", ["curves", "--input", str(out / "run.jsonl"),
                            "--out-dir", str(out / "curves")]),
            ]
        return [
            ("compute", ["compute", "--input", i["log"], "--bootstrap", "1000",
                         "--seed", str(self.seed), "--group-delimiter", "/",
                         "--out-dir", str(out / "compute")]),
        ]


def task_names(count: int, groups: int = 0) -> list[str]:
    if groups:
        return [f"g{i % groups}/task{i:05d}" for i in range(count)]
    return [f"task{i:03d}" for i in range(count)]


def _write(path: Path, lines: list[str]) -> int:
    data = "".join(lines).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def graded_log(seed: int, work: Path, tasks: int = 15, trials: int = 8192,
               sim_tasks: int = 30) -> Workload:
    rng = np.random.default_rng(seed)
    names = task_names(tasks)
    tallies: dict[str, dict[str, tuple[int, int]]] = {"flagged": {}, "graded": {}}
    lines: list[str] = []

    gold_f = rng.integers(0, FLAGGED_SUPPORT, size=tasks)
    answers_f = rng.integers(0, FLAGGED_SUPPORT, size=(tasks, trials))
    for t, task in enumerate(names):
        hits = answers_f[t] == gold_f[t]
        tallies["flagged"][task] = (trials, int(hits.sum()))
        lines.extend(
            f'{{"model":"flagged","task":"{task}","sample_index":{j},'
            f'"answer":"{a}","correct":{"true" if h else "false"}}}\n'
            for j, (a, h) in enumerate(zip(answers_f[t].tolist(), hits.tolist()))
        )

    forms = [[f(label) for f in ANSWER_FORMS] for label in GRADED_LABELS]
    gold_g = rng.integers(0, len(GRADED_LABELS), size=tasks)
    answers_g = rng.integers(0, len(GRADED_LABELS), size=(tasks, trials))
    form_idx = rng.integers(0, len(ANSWER_FORMS), size=(tasks, trials))
    for t, task in enumerate(names):
        tallies["graded"][task] = (trials, int((answers_g[t] == gold_g[t]).sum()))
        lines.extend(
            f'{{"model":"graded","task":"{task}","sample_index":{j},"answer":"{forms[a][f]}"}}\n'
            for j, (a, f) in enumerate(zip(answers_g[t].tolist(), form_idx[t].tolist()))
        )

    work.mkdir(parents=True, exist_ok=True)
    log, gold = work / "graded.jsonl", work / "gold.jsonl"
    log_bytes = _write(log, lines)
    _write(gold, [f'{{"task":"{task}","answer":"{GRADED_LABELS[g]}"}}\n'
                  for task, g in zip(names, gold_g.tolist())])
    return Workload(
        name="graded-log", seed=seed, inputs={"log": log, "gold": gold}, tallies=tallies,
        sizes={"records": len(lines), "bytes": log_bytes, "models": 2, "tasks": tasks,
               "trials": [trials], "simulate": f"{sim_tasks} tasks x {trials} trials"},
        sim_trials=trials, sim_tasks=sim_tasks,
    )


def _aggregated_lines(tallies: dict[str, dict[str, tuple[int, int]]]) -> list[str]:
    return [
        f'{{"model":"{model}","task":"{task}","n":{n},"c":{c}}}\n'
        for model, per_task in tallies.items()
        for task, (n, c) in per_task.items()
    ]


def _beta_binomial(rng: np.random.Generator, n: np.ndarray, model: int) -> np.ndarray:
    """Per-task successes of one model whose task difficulty is Beta(a, b).

    The shape is fixed per model index, not drawn, so the number of distinct
    success rates, and with it the work the report layers do, does not move
    with the seed; only the draws do.
    """
    a = 0.4 + (0.7 * model) % 2.6
    b = 0.4 + (1.1 * model) % 2.6
    return rng.binomial(n, rng.beta(a, b, size=len(n)))


def model_matrix(seed: int, work: Path, models: int = 10, tasks: int = 2000,
                 trials: int = 256) -> Workload:
    rng = np.random.default_rng(seed)
    names = task_names(tasks)
    n = np.full(tasks, trials)
    tallies = {
        f"model-{m:02d}": dict(zip(names, zip(n.tolist(), _beta_binomial(rng, n, m).tolist())))
        for m in range(models)
    }
    work.mkdir(parents=True, exist_ok=True)
    log = work / "matrix.jsonl"
    lines = _aggregated_lines(tallies)
    log_bytes = _write(log, lines)
    return Workload(
        name="model-matrix", seed=seed, inputs={"log": log}, tallies=tallies,
        sizes={"records": len(lines), "bytes": log_bytes, "models": models, "tasks": tasks,
               "trials": [trials]},
    )


def mixed_bootstrap(seed: int, work: Path, models: int = 6, tasks: int = 3000,
                    groups: int = 8) -> Workload:
    rng = np.random.default_rng(seed)
    names = task_names(tasks, groups)
    tallies: dict[str, dict[str, tuple[int, int]]] = {}
    omitted: dict[str, set[str]] = {}
    for m in range(models):
        model = f"model-{m}"
        n = rng.choice(TRIAL_MIX, size=tasks)
        c = _beta_binomial(rng, n, m)
        # every third model leaves out every 97th task, each at its own offset
        skip = {i for i in range(tasks) if m % 3 == 0 and i % OMIT_EVERY == (OMIT_EVERY - 1 - m)}
        omitted[model] = {names[i] for i in skip}
        tallies[model] = {
            names[i]: (int(n[i]), int(c[i])) for i in range(tasks) if i not in skip
        }
    work.mkdir(parents=True, exist_ok=True)
    log = work / "mixed.jsonl"
    lines = _aggregated_lines(tallies)
    log_bytes = _write(log, lines)
    return Workload(
        name="mixed-bootstrap", seed=seed, inputs={"log": log}, tallies=tallies, omitted=omitted,
        sizes={"records": len(lines), "bytes": log_bytes, "models": models, "tasks": tasks,
               "groups": groups, "trials": list(TRIAL_MIX)},
    )


BUILDERS = {
    "graded-log": graded_log,
    "model-matrix": model_matrix,
    "mixed-bootstrap": mixed_bootstrap,
}


def build(name: str, seed: int, work: Path, **sizes) -> Workload:
    return BUILDERS[name](seed, work, **sizes)
