"""Synthetic profile generators and Monte-Carlo simulators."""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertau import (
    GuesserSpec,
    ProfileSpec,
    SuccessProfile,
    aggregate,
    cons_at_n,
    counts_from_log,
    cover_at_tau,
    make_profile,
    parse_records,
    pass_at_k_exact,
    pass_at_k_unbiased,
    simulate_completions,
    simulate_guesser,
    toy_model_a,
    toy_model_b,
)
from covertau.cli import main
from covertau.ingest import write_atomic
from covertau.synth import completions_log, guesser_gold, guesser_log, records_to_jsonl

F = Fraction


class TestMakeProfile:
    def test_constant_half(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=100, p=F(1, 2)))
        assert prof.num_tasks == 100
        assert set(prof.probabilities) == {F(1, 2)}

    def test_two_point_split(self):
        prof = make_profile(
            ProfileSpec(kind="two-point", tasks=100, low=0, high=1, ratio=F(1, 2))
        )
        ps = list(prof.probabilities)
        assert ps.count(F(0)) == 50 and ps.count(F(1)) == 50

    def test_uniform_random_is_seed_deterministic(self):
        spec = ProfileSpec(kind="uniform-random", tasks=20, seed=5)
        assert make_profile(spec) == make_profile(spec)
        other = make_profile(ProfileSpec(kind="uniform-random", tasks=20, seed=6))
        assert make_profile(spec) != other

    def test_user_list(self):
        prof = make_profile(
            ProfileSpec(kind="user-list", tasks=3, values=[F(0), "0.5", 1])
        )
        assert prof.probabilities == (F(0), F(1, 2), F(1))

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_profile(ProfileSpec(kind="constant-p", tasks=3, p=F(3, 2)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown profile kind"):
            ProfileSpec(kind="gaussian", tasks=3)

    def test_toy_models_reproduce_balanced_pair(self):
        a, b = toy_model_a(), toy_model_b()
        assert a.mean_p == b.mean_p == F(1, 2)
        assert pass_at_k_exact(a, 1) == pass_at_k_exact(b, 1) == 0.5
        # A keeps growing, B stays flat
        assert pass_at_k_exact(a, 16) > pass_at_k_exact(a, 1)
        assert pass_at_k_exact(b, 16) == 0.5


class TestSimulateCompletions:
    def test_certain_success(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=2, p=1))
        records = simulate_completions(prof, trials=5, seed=0)
        assert all(r.correct for r in records)

    def test_certain_failure(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=2, p=0))
        records = simulate_completions(prof, trials=5, seed=0)
        assert not any(r.correct for r in records)

    def test_fair_coin_concentrates(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=1, p=F(1, 2)))
        records = simulate_completions(prof, trials=8192, seed=0)
        c = sum(r.correct for r in records)
        # tolerance clears three binomial standard errors with room to spare
        assert 3 * math.sqrt(0.25 / 8192) < 0.02
        assert abs(c / 8192 - 0.5) < 0.02

    def test_seeded_determinism(self):
        prof = make_profile(ProfileSpec(kind="uniform-random", tasks=5, seed=1))
        a = simulate_completions(prof, trials=50, seed=9)
        b = simulate_completions(prof, trials=50, seed=9)
        assert a == b
        c = simulate_completions(prof, trials=50, seed=10)
        assert a != c

    def test_per_task_streams_are_independent_of_task_set(self):
        # task i's draws depend only on (seed, i): adding tasks later in the
        # profile must not perturb earlier tasks' records
        small = make_profile(ProfileSpec(kind="constant-p", tasks=2, p=F(1, 3)))
        large = make_profile(ProfileSpec(kind="constant-p", tasks=4, p=F(1, 3)))
        recs_small = simulate_completions(small, trials=20, seed=7)
        recs_large = simulate_completions(large, trials=20, seed=7)
        small_tasks = {r.task for r in recs_small}
        filtered = [r for r in recs_large if r.task in small_tasks]
        assert filtered == recs_small

    def test_canonical_ordering(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=3, p=F(1, 2)))
        records = simulate_completions(prof, trials=4, seed=0)
        keys = [(r.task, r.sample_index) for r in records]
        assert keys == sorted(keys)

    def test_empirical_rate_approaches_p(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=1, p=F(1, 3)))
        records = simulate_completions(prof, trials=2**13, seed=3)
        c = sum(r.correct for r in records)
        se = math.sqrt((1 / 3) * (2 / 3) / 2**13)
        assert abs(c / 2**13 - 1 / 3) <= 3 * se


class TestSimulateGuesser:
    def test_profile_is_exactly_one_over_m(self):
        prof, records = simulate_guesser(GuesserSpec(support_size=30, tasks=4, trials=16, seed=1))
        assert set(prof.probabilities) == {F(1, 30)}
        assert len(records) == 4 * 16

    def test_answers_match_verdicts(self):
        _, records = simulate_guesser(GuesserSpec(support_size=5, tasks=3, trials=32, seed=2))
        for r in records:
            assert r.correct == (r.answer == "0")

    def test_consensus_scoring_runs_on_guesser_output(self):
        spec = GuesserSpec(support_size=3, tasks=6, trials=64, seed=4)
        _, records = simulate_guesser(spec)
        score = cons_at_n(records, guesser_gold(spec))
        assert 0 <= score <= 1

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="model identifier must be nonempty"):
            GuesserSpec(support_size=2, tasks=2, trials=2, seed=0, model="")

    def test_small_support_rejected(self):
        with pytest.raises(ValueError, match="support_size"):
            GuesserSpec(support_size=1, tasks=2, trials=2, seed=0)

    def test_binary_support_is_fair_coin(self):
        prof, _ = simulate_guesser(GuesserSpec(support_size=2, tasks=3, trials=4, seed=0))
        assert set(prof.probabilities) == {F(1, 2)}

    def test_exact_pass_curve_formula(self):
        spec = GuesserSpec(support_size=30, tasks=10, trials=4, seed=0)
        prof, _ = simulate_guesser(spec)
        for k in (1, 4, 16, 8192):
            expected = 1.0 - (29 / 30) ** k
            assert pass_at_k_exact(prof, k) == pytest.approx(expected, abs=1e-12)

    def test_empirical_unbiased_tracks_exact_within_three_se(self):
        spec = GuesserSpec(support_size=30, tasks=30, trials=2**13, seed=11)
        prof, records = simulate_guesser(spec)
        counts = aggregate(records)[spec.model]
        for k in (1, 4, 16):
            per_task = np.array(
                [float(pass_at_k_unbiased(tc, k, exact=True)) for tc in counts]
            )
            estimate = per_task.mean()
            exact = 1.0 - (29 / 30) ** k
            se = per_task.std(ddof=1) / math.sqrt(len(per_task)) + 1e-12
            assert abs(estimate - exact) <= 3 * se

    def test_cover_collapse_at_modest_threshold(self):
        prof, _ = simulate_guesser(GuesserSpec(support_size=30, tasks=30, trials=4, seed=0))
        assert cover_at_tau(prof, F(1, 5)) == 0


class TestLogEmission:
    def test_round_trips_through_parser(self):
        spec = GuesserSpec(support_size=4, tasks=3, trials=8, seed=5)
        _, records = simulate_guesser(spec)
        lines = records_to_jsonl(records).splitlines()
        assert [json.loads(line) for line in lines] == [
            {"model": r.model, "task": r.task, "sample_index": r.sample_index,
             "answer": r.answer, "correct": r.correct}
            for r in records
        ]
        parsed = parse_records(lines)
        assert {key: tally.seen for key, tally in parsed.records.items()} == {
            (r.model, r.task): {s.sample_index for s in records if s.task == r.task}
            for r in records
        }
        assert counts_from_log(parsed) == (aggregate(records), "flags")

    def test_emission_is_deterministic(self):
        spec = GuesserSpec(support_size=4, tasks=3, trials=8, seed=5)
        one = records_to_jsonl(simulate_guesser(spec)[1])
        two = records_to_jsonl(simulate_guesser(spec)[1])
        assert one == two


# model names that JSON must escape: quotes, backslashes, control characters
# and non-ASCII text, mixed with plain letters
model_names = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\n\x7fé文 '), st.characters()), min_size=1, max_size=12
)
rationals = st.integers(1, 60).flatmap(lambda b: st.integers(0, b).map(lambda a: F(a, b)))


@st.composite
def profile_specs(draw):
    """constant-p, two-point and uniform-random specs; uniform-random rates
    are floats, with denominators up to 2**53."""
    kind = draw(st.sampled_from(["constant-p", "two-point", "uniform-random"]))
    params = {
        "constant-p": lambda: {"p": draw(rationals)},
        "two-point": lambda: {"low": draw(rationals), "high": draw(rationals), "ratio": draw(rationals)},
        "uniform-random": lambda: {"seed": draw(st.integers(0, 2**32))},
    }[kind]()
    return ProfileSpec(kind=kind, tasks=draw(st.integers(1, 5)), model=draw(model_names), **params)


class TestStreamingEmitters:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 5), st.integers(1, 300), st.integers(0, 2**64), model_names)
    def test_guesser_log_equals_record_path(self, support, tasks, trials, seed, model):
        spec = GuesserSpec(support_size=support, tasks=tasks, trials=trials, seed=seed, model=model)
        chunks = list(guesser_log(spec))
        assert len(chunks) == tasks
        assert "".join(chunks) == records_to_jsonl(simulate_guesser(spec)[1])

    @settings(max_examples=150, deadline=None)
    @given(profile_specs(), st.integers(1, 300), st.integers(0, 2**64),
           st.none() | st.lists(model_names, min_size=5, max_size=5, unique=True))
    def test_completions_log_equals_record_path(self, spec, trials, seed, task_names):
        prof = make_profile(spec)
        if task_names is not None:  # task names that JSON must escape too
            prof = SuccessProfile.from_pairs(prof.model, zip(task_names, prof.probabilities))
        chunks = list(completions_log(prof, trials, seed))
        assert len(chunks) == spec.tasks
        assert "".join(chunks) == records_to_jsonl(simulate_completions(prof, trials, seed))

    def test_bad_trial_count_rejected_before_any_draw(self):
        prof = make_profile(ProfileSpec(kind="constant-p", tasks=2, p=F(1, 2)))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            completions_log(prof, 0, 0)

    def test_streamed_guesser_write_stays_small(self, tmp_path):
        # the record path holds 245,760 records and every line at once: well
        # over 100 MB; the stream holds one task's column and chunk
        spec = GuesserSpec(support_size=30, tasks=30, trials=8192, seed=7)
        path = tmp_path / "guesser.jsonl"
        tracemalloc.start()
        try:
            write_atomic(path, guesser_log(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        with path.open("rb") as fh:
            assert sum(1 for _ in fh) == 30 * 8192


def oracle_simulate_stdout(profile, trials, out):
    counts = Counter(profile.probabilities)
    lines = [f"model {profile.model}: {profile.num_tasks} tasks, {trials} trials each",
             "exact per-task success probabilities:"]
    lines += [f"  p={p} on {counts[p]} task(s)" for p in sorted(counts)]
    lines.append(f"wrote {profile.num_tasks * trials} records to {out}")
    return "".join(line + "\n" for line in lines)


class TestSimulateCommand:
    def test_guesser_files_and_stdout_equal_record_path(self, tmp_path, capsys):
        out, gold = tmp_path / "log.jsonl", tmp_path / "gold.jsonl"
        assert main(["simulate", "--kind", "guesser", "--support", "7", "--tasks", "4", "--trials", "50",
                     "--seed", "3", "--model", 'g"\\é', "--out", str(out), "--gold-out", str(gold)]) == 0
        spec = GuesserSpec(support_size=7, tasks=4, trials=50, seed=3, model='g"\\é')
        profile, records = simulate_guesser(spec)
        assert out.read_text(encoding="utf-8") == records_to_jsonl(records)
        assert gold.read_text(encoding="utf-8") == "".join(
            json.dumps({"answer": a, "task": t}, sort_keys=True, separators=(",", ":")) + "\n"
            for t, a in sorted(guesser_gold(spec).items())
        )
        assert capsys.readouterr().out == oracle_simulate_stdout(profile, 50, out)

    @pytest.mark.parametrize("kind, extra", [
        ("constant-p", {"p": "1/3"}),
        ("two-point", {"low": "0.1", "high": "9/10", "ratio": "1/4"}),
        ("uniform-random", {}),
    ])
    def test_profile_kinds_equal_record_path(self, tmp_path, capsys, kind, extra):
        out = tmp_path / "log.jsonl"
        flags = [x for key, value in extra.items() for x in (f"--{key}", value)]
        assert main(["simulate", "--kind", kind, "--tasks", "6", "--trials", "40", "--seed", "5",
                     "--out", str(out), *flags]) == 0
        profile = make_profile(ProfileSpec(kind=kind, tasks=6, seed=5, model=kind, **extra))
        assert out.read_text(encoding="utf-8") == records_to_jsonl(simulate_completions(profile, 40, 5))
        assert capsys.readouterr().out == oracle_simulate_stdout(profile, 40, out)

    def test_rejections_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(["simulate", "--kind", "constant-p", "--p", "1/2", "--tasks", "2", "--trials", "0",
                     "--out", str(out)]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err
        assert main(["simulate", "--kind", "constant-p", "--p", "1/2", "--tasks", "2", "--trials", "3",
                     "--out", str(out), "--gold-out", str(tmp_path / "gold.jsonl")]) == 2
        assert "--gold-out applies to the guesser kind only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
