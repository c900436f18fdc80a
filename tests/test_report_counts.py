"""Reports built straight from integer (n, c) counts, against the public
profile API (estimate_success -> curves, pass curves, dominance, bands) as
the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covertau.curves
import covertau.dominance
import covertau.metrics
import covertau.report
from covertau import (
    SuccessProfile,
    TaskCounts,
    avg_auc_plus,
    bootstrap_bands,
    build_cover_curve,
    cover_at_tau,
    dominance_report,
    estimate_success,
    find_crossover,
    pass_curve,
    rank_models,
)
from covertau.report import build_report, format_tau

F = Fraction

# tasks with and without a "/" group prefix
TASKS = ["a/t0", "a/t1", "b/t0", "b/t1", "b/t2", "c", "d/x/y", "d/z"]
# large coprime trial counts push T * lcm past 2**62
COPRIME = [65521, 65519, 65497, 65479, 997]
trials = st.one_of(st.integers(1, 8), st.sampled_from(COPRIME))


@st.composite
def task_counts(draw, n):
    # c in {0, n} gets a branch of its own so it is drawn often
    return draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))


@st.composite
def report_inputs(draw):
    models = [f"m{i}" for i in range(draw(st.integers(1, 4)))]
    tasks = draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=len(TASKS), unique=True))
    counts = {}
    for model in models:
        # tasks[0] is shared; any other task may be omitted by any model
        kept = [tasks[0]] + [t for t in tasks[1:] if draw(st.booleans()) or len(models) == 1]
        row = []
        for task in kept:
            n = draw(trials)
            row.append(TaskCounts(task=task, n=n, c=draw(task_counts(n))))
        counts[model] = draw(st.permutations(row))
    taus = draw(st.lists(st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=70000)),
                         min_size=1, max_size=3, unique=True))
    ks = sorted(draw(st.sets(st.sampled_from([1, 2, 3, 8, 64, 8192]), min_size=1)))
    delimiter = draw(st.sampled_from([None, "/"]))
    resamples = draw(st.sampled_from([0, 1, 3]))
    seed = draw(st.integers(0, 2**64))
    return counts, taus, ks, delimiter, resamples, seed


def oracle_table(profiles, taus):
    table = {p.model: {"pass@1": p.mean_p, **{f"cov@{format_tau(t)}": cover_at_tau(p, t) for t in taus}}
             for p in profiles}
    if len(profiles) >= 2:
        for model, value in avg_auc_plus([build_cover_curve(p) for p in profiles]).items():
            table[model]["avg_auc_plus"] = value
    return table


def oracle_report(counts, taus, ks, delimiter, resamples, seed):
    profiles = [estimate_success(counts[m], m) for m in sorted(counts)]
    shared = sorted(set.intersection(*(set(p.tasks) for p in profiles)))
    dropped = {p.model: tuple(sorted(set(p.tasks) - set(shared))) for p in profiles if set(p.tasks) - set(shared)}
    aligned = [p.restrict(shared) for p in profiles]
    table = oracle_table(aligned, taus)
    if delimiter:
        names = sorted({t.split(delimiter, 1)[0] for t in shared})
        groups = [oracle_table([p.restrict([t for t in shared if t.split(delimiter, 1)[0] == g]) for p in aligned], taus)
                  for g in names]
        table = {m: {k: sum((grp[m][k] for grp in groups), F(0)) / len(groups) for k in row} for m, row in table.items()}
    curves = [build_cover_curve(p) for p in aligned]
    passes = {p.model: pass_curve(p, ks) for p in aligned}
    models = [p.model for p in aligned]
    return {
        "metrics": table,
        "rankings": {k: rank_models({m: table[m][k] for m in table}) for k in next(iter(table.values()))},
        "cover_curves": {c.model: c for c in curves},
        "pass_bits": {m: [v.hex() for v in c.values] for m, c in passes.items()},
        "dominance": dominance_report(curves) if len(curves) >= 2 else None,
        "crossovers": tuple(find_crossover(passes[a], passes[b]) for i, a in enumerate(models) for b in models[i + 1:]),
        "dropped_tasks": dropped,
        "bootstrap": bootstrap_bands(aligned, taus, resamples=resamples, seed=seed) if resamples else None,
    }


def assert_report_matches_oracle(counts, taus, ks, delimiter, resamples, seed):
    bundle = build_report(counts, taus=taus, ks=ks, group_delimiter=delimiter,
                          bootstrap_resamples=resamples, seed=seed)
    got = {
        "metrics": bundle.metrics,
        "rankings": bundle.rankings,
        "cover_curves": bundle.cover_curves,
        "pass_bits": {m: [v.hex() for v in c.values] for m, c in bundle.pass_curves.items()},
        "dominance": bundle.dominance,
        "crossovers": bundle.crossovers,
        "dropped_tasks": bundle.dropped_tasks,
        "bootstrap": bundle.bootstrap,
    }
    assert got == oracle_report(counts, taus, ks, delimiter, resamples, seed)
    assert bundle.models == tuple(sorted(counts))


@settings(max_examples=300, deadline=None)
@given(report_inputs())
def test_report_from_counts_equals_profile_oracle(inputs):
    assert_report_matches_oracle(*inputs)


def test_report_on_python_ints_matches_oracle():
    # L = 2 * (2**61 - 1) is below 2**62 but T * L is not: int64 sums would wrap
    d = 2**61 - 1
    counts = {
        "A": [TaskCounts(task=f"g{j % 2}/t{j}", n=2, c=2) for j in range(8)],
        "B": [TaskCounts(task="g0/t0", n=d, c=1), TaskCounts(task="g1/t1", n=d, c=d - 1)]
        + [TaskCounts(task=f"g{j % 2}/t{j}", n=2, c=j % 3 // 2) for j in range(2, 8)],
    }
    for delimiter in (None, "/"):
        assert_report_matches_oracle(counts, [F(1, d), F(1, 2), F(1)], [1, 64], delimiter, 3, 0)


def test_report_builds_no_profile_and_no_fraction_round_trip(monkeypatch):
    calls = []
    original = SuccessProfile.__post_init__

    def counting_post_init(self):
        calls.append("SuccessProfile")
        original(self)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SuccessProfile, "__post_init__", counting_post_init)
    for module, name in [(covertau.metrics, "estimate_success"), (covertau.report, "estimate_success"),
                         (covertau.curves, "scale_to_lcm"), (covertau.dominance, "scale_to_lcm")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    counts = {
        m: [TaskCounts(task=f"g{j % 3}/t{j}", n=n, c=(j * (i + 1)) % (n + 1)) for j, n in enumerate([4, 7, 9, 16, 5, 1])]
        for i, m in enumerate("ABC")
    }
    bundle = build_report(counts, group_delimiter="/", bootstrap_resamples=5, seed=1)
    assert bundle.bootstrap is not None and bundle.aggregation == "per-group-averaged"
    assert calls == []

    # the patches do see the profile path
    bootstrap_bands([covertau.metrics.estimate_success(counts[m], m) for m in "AB"], [F(1, 2)], resamples=1)
    assert calls.count("SuccessProfile") == 2
    assert calls.count("estimate_success") == 2 and calls.count("scale_to_lcm") == 1


@pytest.mark.parametrize("resamples", [-1, -5])
def test_negative_bootstrap_count_rejected(resamples):
    counts = {m: [TaskCounts(task="t", n=2, c=1)] for m in "AB"}
    with pytest.raises(ValueError, match=f"bootstrap resample count must be >= 0, got {resamples}"):
        build_report(counts, bootstrap_resamples=resamples)
