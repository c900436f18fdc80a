"""Synthetic profile generators and Monte-Carlo simulators."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from covertau import (
    GuesserSpec,
    ProfileSpec,
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
from covertau.synth import guesser_gold, records_to_jsonl

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
