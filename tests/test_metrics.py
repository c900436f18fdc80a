"""Core metric operations: aggregation, pass@k, cover@tau, maj@n, cons@n."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from covertau import (
    SampleRecord,
    SuccessProfile,
    TaskCounts,
    aggregate,
    cons_at_n,
    cover_at_tau,
    estimate_success,
    maj_at_n,
    majority_threshold,
    pass_at_k_exact,
    pass_at_k_unbiased,
)

F = Fraction


def rec(model, task, idx, correct=None, answer=None):
    return SampleRecord(model=model, task=task, sample_index=idx, correct=correct, answer=answer)


def profile(*ps, model="m"):
    return SuccessProfile.from_pairs(model, ((f"t{i:03d}", p) for i, p in enumerate(ps)))


def random_profile(rng, tasks=50, model="m"):
    return profile(*(F(float(x)) for x in rng.random(tasks)), model=model)


class TestAggregate:
    def test_counts_correct_flags(self):
        records = [rec("m", "t", i, correct=i < 2) for i in range(4)]
        assert aggregate(records) == {"m": [TaskCounts(task="t", n=4, c=2)]}

    def test_all_incorrect(self):
        records = [rec("m", "t", i, correct=False) for i in range(8)]
        assert aggregate(records) == {"m": [TaskCounts(task="t", n=8, c=0)]}

    def test_two_models_sharing_tasks(self):
        # recounted by hand: m1/t1 2-of-3, m1/t2 0-of-1, m2/t1 1-of-2
        records = [
            rec("m1", "t1", 0, correct=True),
            rec("m1", "t1", 1, correct=True),
            rec("m1", "t1", 2, correct=False),
            rec("m1", "t2", 0, correct=False),
            rec("m2", "t1", 0, correct=True),
            rec("m2", "t1", 1, correct=False),
        ]
        assert aggregate(records) == {
            "m1": [TaskCounts(task="t1", n=3, c=2), TaskCounts(task="t2", n=1, c=0)],
            "m2": [TaskCounts(task="t1", n=2, c=1)],
        }

    def test_duplicate_key_rejected_by_name(self):
        records = [rec("m", "t", 0, correct=True), rec("m", "t", 0, correct=False)]
        with pytest.raises(ValueError, match=r"model='m', task='t', sample_index=0"):
            aggregate(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate([])

    def test_unresolved_verdict_rejected(self):
        with pytest.raises(ValueError, match="no verdict"):
            aggregate([rec("m", "t", 0, answer="42")])


class TestEstimateSuccess:
    def test_plain_rate(self):
        prof = estimate_success([TaskCounts(task="t", n=4, c=2)], "m")
        assert prof.entries == (("t", F(1, 2)),)

    def test_exact_third_not_a_float(self):
        prof = estimate_success([TaskCounts(task="t", n=3, c=1)], "m")
        p = prof.entries[0][1]
        assert isinstance(p, Fraction)
        assert p == F(1, 3)

    def test_zero_rate(self):
        prof = estimate_success([TaskCounts(task="t", n=8192, c=0)], "m")
        assert prof.entries[0][1] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no task counts"):
            estimate_success([], "m")

    def test_n_zero_rejected_at_type(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            TaskCounts(task="t", n=0, c=0)

    @pytest.mark.parametrize(
        "n, c, name", [(2.0, 1, "n"), (2, 1.0, "c"), (True, 1, "n"), (2, True, "c"), ("2", 1, "n")]
    )
    def test_non_integer_counts_rejected_at_type(self, n, c, name):
        # a float or bool would render as 2.0 or True in a run file that load_run rejects
        with pytest.raises(ValueError, match=rf"^{name} must be an integer for task 't', got "):
            TaskCounts(task="t", n=n, c=c)


class TestPassAtKExact:
    def test_half_half_k1(self):
        assert pass_at_k_exact(profile(F(1, 2), F(1, 2)), 1) == 0.5

    def test_zero_one_any_k(self):
        assert pass_at_k_exact(profile(F(0), F(1)), 7) == 0.5

    def test_guesser_saturates(self):
        prof = profile(*[F(1, 30)] * 10)
        got = pass_at_k_exact(prof, 8192)
        # direct evaluation of 1 - (29/30)^8192, independently via log arithmetic
        direct = 1.0 - math.exp(8192 * math.log(29 / 30))
        assert got >= 1 - 1e-6
        assert got == pytest.approx(direct, abs=1e-12)

    def test_k1_equals_mean_p(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            prof = random_profile(rng)
            assert abs(pass_at_k_exact(prof, 1) - float(prof.mean_p)) <= 1e-12

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(12)
        ks = [1, 2, 3, 4, 8, 16, 64, 256, 4096, 2**20]
        for _ in range(10):
            prof = random_profile(rng, tasks=30)
            values = [pass_at_k_exact(prof, k) for k in ks]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_limit_reaches_one_for_positive_p(self):
        rng = np.random.default_rng(13)
        ps = [F(1, 1000) + F(float(x)) * F(999, 1000) for x in rng.random(40)]
        prof = profile(*ps)
        assert pass_at_k_exact(prof, 2**20) >= 1 - 1e-6

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k values must be >= 1"):
            pass_at_k_exact(profile(F(1, 2)), 0)


def subset_enumeration_oracle(n, c, k):
    """Average over all C(n, k) trial subsets of 'subset has a correct trial'."""
    correct = [i < c for i in range(n)]
    hits = sum(1 for combo in itertools.combinations(range(n), k) if any(correct[i] for i in combo))
    return F(hits, math.comb(n, k))


class TestPassAtKUnbiased:
    def test_all_correct(self):
        assert pass_at_k_unbiased(TaskCounts(task="t", n=5, c=5), 3) == 1.0

    def test_none_correct(self):
        assert pass_at_k_unbiased(TaskCounts(task="t", n=5, c=0), 3) == 0.0

    def test_single_correct_of_three(self):
        # oracle: subsets {01,02,12}; two contain trial 0
        assert subset_enumeration_oracle(3, 1, 2) == F(2, 3)
        assert pass_at_k_unbiased(TaskCounts(task="t", n=3, c=1), 2, exact=True) == F(2, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_mode_matches_enumeration(self, n):
        for c in range(n + 1):
            for k in range(1, n + 1):
                got = pass_at_k_unbiased(TaskCounts(task="t", n=n, c=c), k, exact=True)
                assert got == subset_enumeration_oracle(n, c, k), (n, c, k)

    def test_float_mode_tracks_exact(self):
        for n, c, k in [(10, 3, 5), (64, 1, 32), (50, 49, 2), (7, 7, 7)]:
            exact = pass_at_k_unbiased(TaskCounts(task="t", n=n, c=c), k, exact=True)
            approx = pass_at_k_unbiased(TaskCounts(task="t", n=n, c=c), k)
            assert approx == pytest.approx(float(exact), abs=1e-12)

    def test_k_equals_n_is_indicator_of_any_success(self):
        for n in range(1, 12):
            for c in range(n + 1):
                got = pass_at_k_unbiased(TaskCounts(task="t", n=n, c=c), n, exact=True)
                assert got == (1 if c >= 1 else 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(1, n))))
    def test_shorter_product_equals_the_running_product_oracle(self, nck):
        n, c, k = nck
        want = oracle.pass_at_k_unbiased(n, c, k)
        counts = TaskCounts(task="t", n=n, c=c)
        assert pass_at_k_unbiased(counts, k, exact=True) == want
        assert pass_at_k_unbiased(counts, k) == pytest.approx(float(want), rel=0, abs=1e-12)

    def test_exact_mode_takes_the_few_factors_of_a_small_c(self):
        # the k-factor Fraction product, the oracle, takes 0.08-0.16 s here
        start = time.perf_counter()
        got = pass_at_k_unbiased(TaskCounts(task="t", n=65536, c=10), 32768, exact=True)
        assert time.perf_counter() - start < 0.05
        assert got == oracle.pass_at_k_unbiased(65536, 10, 32768)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds trial count"):
            pass_at_k_unbiased(TaskCounts(task="t", n=4, c=2), 5)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k values must be >= 1"):
            pass_at_k_unbiased(TaskCounts(task="t", n=4, c=2), 0)


class TestCoverAtTau:
    def test_constant_half_low_threshold(self):
        assert cover_at_tau(profile(*[F(1, 2)] * 10), F(1, 5)) == 1

    def test_split_profile_high_threshold(self):
        prof = profile(*([F(0)] * 5 + [F(1)] * 5))
        assert cover_at_tau(prof, F(4, 5)) == F(1, 2)

    def test_tau_zero_is_one(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            assert cover_at_tau(random_profile(rng, tasks=17), 0) == 1

    def test_exact_breakpoint_is_inclusive(self):
        # p = 1/2 counts at tau = 1/2: the comparison is >= in exact rationals
        assert cover_at_tau(profile(F(1, 2)), F(1, 2)) == 1
        assert cover_at_tau(profile(F(1, 2)), F(5001, 10000)) == 0

    def test_string_tau_parses_exactly(self):
        assert cover_at_tau(profile(F(1, 5)), "0.2") == 1

    def test_float_tau_rejected(self):
        with pytest.raises(TypeError, match="float"):
            cover_at_tau(profile(F(1, 2)), 0.2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            cover_at_tau(profile(F(1, 2)), F(3, 2))

    def test_nonincreasing_in_tau(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            prof = random_profile(rng, tasks=23)
            taus = sorted(F(float(x)) for x in rng.random(12))
            values = [cover_at_tau(prof, t) for t in taus]
            assert all(b <= a for a, b in zip(values, values[1:]))


class TestMajAtN:
    def test_strict_majority_counts(self):
        assert maj_at_n([TaskCounts(task="t", n=8, c=5)]) == 1

    def test_tie_is_not_a_majority(self):
        assert maj_at_n([TaskCounts(task="t", n=8, c=4)]) == 0

    def test_hand_counted_fixture(self):
        counts = [
            TaskCounts(task="a", n=8, c=5),
            TaskCounts(task="b", n=8, c=4),
            TaskCounts(task="c", n=8, c=8),
            TaskCounts(task="d", n=8, c=0),
        ]
        assert maj_at_n(counts) == F(1, 2)

    @pytest.mark.parametrize("n", [4, 8, 32, 5, 7])
    def test_equals_cover_at_majority_threshold(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            counts = [
                TaskCounts(task=f"t{i:03d}", n=n, c=int(rng.integers(0, n + 1)))
                for i in range(20)
            ]
            prof = estimate_success(counts, "m")
            assert maj_at_n(counts) == cover_at_tau(prof, majority_threshold(n))


class TestConsAtN:
    def test_unique_mode_matches_gold(self):
        records = [rec("m", "t", i, answer=a) for i, a in enumerate(["a", "a", "b"])]
        assert cons_at_n(records, {"t": "a"}) == 1

    def test_mode_tie_is_unsolved(self):
        records = [rec("m", "t", i, answer=a) for i, a in enumerate(["a", "b"])]
        assert cons_at_n(records, {"t": "a"}) == 0

    def test_majority_wrong_answer_loses(self):
        records = [rec("m", "t", i, answer=a) for i, a in enumerate(["b", "b", "a", "a", "a"])]
        assert cons_at_n(records, {"t": "b"}) == 0

    def test_numeric_spellings_pool_into_one_mode(self):
        records = [rec("m", "t", i, answer=a) for i, a in enumerate([".5", "0.5", "7"])]
        assert cons_at_n(records, {"t": "0.5"}) == 1

    def test_missing_answer_rejected_by_name(self):
        records = [rec("m", "t", 0, answer="a"), rec("m", "t", 1, correct=True)]
        with pytest.raises(ValueError, match="sample_index=1"):
            cons_at_n(records, {"t": "a"})

    def test_missing_gold_rejected(self):
        with pytest.raises(ValueError, match="no gold answer for task 't'"):
            cons_at_n([rec("m", "t", 0, answer="a")], {})

    def test_mixed_models_rejected(self):
        records = [rec("m1", "t", 0, answer="a"), rec("m2", "t", 0, answer="a")]
        with pytest.raises(ValueError, match="multiple models"):
            cons_at_n(records, {"t": "a"})

    def test_fraction_over_tasks(self):
        records = [
            rec("m", "t1", 0, answer="x"),
            rec("m", "t1", 1, answer="x"),
            rec("m", "t2", 0, answer="y"),
            rec("m", "t2", 1, answer="z"),
        ]
        # t1 solved, t2 has a tied mode
        assert cons_at_n(records, {"t1": "x", "t2": "y"}) == F(1, 2)


class TestDegenerateInputs:
    def test_profile_with_no_tasks_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            SuccessProfile(model="m", entries=())

    def test_empty_task_identifier_rejected(self):
        with pytest.raises(ValueError, match="task must be a nonempty string, got ''"):
            SuccessProfile.from_pairs("m", [("t", F(1, 2)), ("", F(1, 2))])

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SuccessProfile.from_pairs("m", [("t", F(3, 2))])
