"""Pairwise comparison: excess AUC, dominance transfer, crossovers, rankings."""

from fractions import Fraction

import numpy as np
import pytest

from covertau import (
    SuccessProfile,
    auc_plus_cover,
    avg_auc_plus,
    bootstrap_bands,
    build_cover_curve,
    check_cover_dominance,
    cover_at_tau,
    dominance_report,
    find_crossover,
    fraction_nonzero,
    pass_at_k_exact,
    pass_curve,
    rank_models,
    toy_model_a,
    toy_model_b,
    uniform_auc,
)
from covertau.records import format_tau

F = Fraction


def profile(*ps, model="m"):
    return SuccessProfile.from_pairs(model, ((f"t{i:03d}", p) for i, p in enumerate(ps)))


def random_profile(rng, tasks=30, model="m"):
    return profile(*(F(float(x)) for x in rng.random(tasks)), model=model)


def dominated_pair(rng, tasks=30):
    """B random; A raises a random subset of B's values, so A >= B per task."""
    base = [F(float(x)) for x in rng.random(tasks)]
    raised = []
    for p in base:
        if rng.random() < 0.5:
            u = F(float(rng.random()))
            raised.append(p + u * (1 - p))
        else:
            raised.append(p)
    return profile(*raised, model="A"), profile(*base, model="B")


class TestAucPlus:
    def test_toy_pair_balances(self):
        a = build_cover_curve(toy_model_a())
        b = build_cover_curve(toy_model_b())
        assert auc_plus_cover(a, b) == F(1, 4)
        assert auc_plus_cover(b, a) == F(1, 4)

    def test_self_comparison_is_zero(self):
        a = build_cover_curve(toy_model_a())
        assert auc_plus_cover(a, a) == 0

    def test_dominated_side_is_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            pa, pb = dominated_pair(rng)
            a, b = build_cover_curve(pa), build_cover_curve(pb)
            assert auc_plus_cover(b, a) == 0

    def test_bounded_by_one_and_extremal_case(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            a = build_cover_curve(random_profile(rng, model="A"))
            b = build_cover_curve(random_profile(rng, model="B"))
            assert 0 <= auc_plus_cover(a, b) <= 1
        top = build_cover_curve(profile(*[F(1)] * 5, model="top"))
        bottom = build_cover_curve(profile(*[F(0)] * 5, model="bottom"))
        assert auc_plus_cover(top, bottom) == 1

    def test_mismatched_task_universes_rejected(self):
        a = build_cover_curve(toy_model_a(tasks=10))
        b = build_cover_curve(toy_model_b(tasks=20))
        with pytest.raises(ValueError, match="task universes"):
            auc_plus_cover(a, b)

    def test_antisymmetric_difference_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            pa = random_profile(rng, model="A")
            pb = random_profile(rng, model="B")
            a, b = build_cover_curve(pa), build_cover_curve(pb)
            lhs = auc_plus_cover(a, b) - auc_plus_cover(b, a)
            assert lhs == uniform_auc(a) - uniform_auc(b)
            assert lhs == pa.mean_p - pb.mean_p


class TestAvgAucPlus:
    def test_two_models_equal_pairwise(self):
        a = build_cover_curve(toy_model_a())
        b = build_cover_curve(toy_model_b())
        avg = avg_auc_plus([a, b])
        assert avg == {"A": F(1, 4), "B": F(1, 4)}

    def test_three_model_hand_integration(self):
        # C at 3/4 everywhere dominates A = B at 1/4 everywhere:
        # G_C - G_A = 1 on (1/4, 3/4], so each pairwise excess is 1/2
        a = profile(*[F(1, 4)] * 8, model="A")
        b = profile(*[F(1, 4)] * 8, model="B")
        c = profile(*[F(3, 4)] * 8, model="C")
        curves = [build_cover_curve(p) for p in (a, b, c)]
        avg = avg_auc_plus(curves)
        assert avg["C"] == F(1, 2)
        assert avg["A"] == 0 and avg["B"] == 0

    def test_single_model_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            avg_auc_plus([build_cover_curve(toy_model_a())])


class TestCoverDominance:
    def test_reflexive(self):
        a = build_cover_curve(toy_model_a())
        assert check_cover_dominance(a, a)

    def test_toy_pair_crosses(self):
        a = build_cover_curve(toy_model_a())
        b = build_cover_curve(toy_model_b())
        assert not check_cover_dominance(a, b)
        assert not check_cover_dominance(b, a)

    def test_taskwise_improvement_dominates(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            pa, pb = dominated_pair(rng)
            assert check_cover_dominance(build_cover_curve(pa), build_cover_curve(pb))

    def test_dominance_transfers_to_pass_curves(self):
        rng = np.random.default_rng(35)
        ks = [2**i for i in range(14)]
        for _ in range(20):
            pa, pb = dominated_pair(rng)
            assert check_cover_dominance(build_cover_curve(pa), build_cover_curve(pb))
            for k in ks:
                assert pass_at_k_exact(pa, k) >= pass_at_k_exact(pb, k)


class TestFindCrossover:
    def test_known_flip_at_k4(self):
        # A: 1-0.9^k crosses B's flat 0.3 between k=3 (0.271) and k=4 (0.3439)
        a = profile(*[F(1, 10)] * 10, model="A")
        b = profile(*([F(1)] * 3 + [F(0)] * 7), model="B")
        ks = list(range(1, 11))
        result = find_crossover(pass_curve(a, ks), pass_curve(b, ks))
        assert result.crossed
        assert result.k_star == 4
        assert "B leads before" in result.direction and "A after" in result.direction

    def test_identical_curves_never_cross(self):
        a = pass_curve(toy_model_a(), [1, 2, 4])
        result = find_crossover(a, a)
        assert not result.crossed

    def test_dominated_pairs_never_cross(self):
        rng = np.random.default_rng(36)
        ks = [2**i for i in range(14)]
        for _ in range(10):
            pa, pb = dominated_pair(rng)
            result = find_crossover(pass_curve(pa, ks), pass_curve(pb, ks))
            assert not result.crossed

    def test_tie_then_lead_is_not_a_flip(self):
        # equal at k=1 (both 0.5), then the constant-p model pulls ahead
        a = pass_curve(toy_model_a(tasks=10), [1, 2, 4])
        b = pass_curve(toy_model_b(tasks=10), [1, 2, 4])
        result = find_crossover(a, b)
        assert not result.crossed

    def test_grid_mismatch_rejected(self):
        a = pass_curve(toy_model_a(tasks=4), [1, 2])
        b = pass_curve(toy_model_b(tasks=4), [1, 2, 4])
        with pytest.raises(ValueError, match="grids differ"):
            find_crossover(a, b)


class TestRankModels:
    def test_descending_order(self):
        assert rank_models({"a": 0.3, "b": 0.5}) == [("b", 0.5, 1), ("a", 0.3, 2)]

    def test_ties_share_rank_lexicographic_display(self):
        ranked = rank_models({"b": 0.5, "a": 0.5})
        assert ranked == [("a", 0.5, 1), ("b", 0.5, 1)]

    def test_competition_ranking_after_tie(self):
        ranked = rank_models({"a": 0.5, "b": 0.5, "c": 0.3})
        assert [(m, r) for m, _, r in ranked] == [("a", 1), ("b", 1), ("c", 3)]

    def test_published_benchmark_column(self):
        # pass@1 column of a published six-method comparison table
        values = {
            "base": 8.34,
            "GRPO": 17.86,
            "GSPO": 18.00,
            "PPO": 18.38,
            "KL-Cov": 28.34,
            "Unlikeliness": 17.02,
        }
        ranked = rank_models(values)
        assert [m for m, _, _ in ranked] == ["KL-Cov", "PPO", "GSPO", "GRPO", "Unlikeliness", "base"]
        assert [r for _, _, r in ranked] == [1, 2, 3, 4, 5, 6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            rank_models({})


class TestLimitRankingConsistency:
    def test_tiny_tau_rank_matches_nonzero_fraction_rank(self):
        rng = np.random.default_rng(37)
        profiles = []
        for i in range(5):
            # rates on a /64 grid with some exact zeros
            ps = [F(int(x), 64) for x in rng.integers(0, 65, size=40)]
            profiles.append(profile(*ps, model=f"m{i}"))
        tau = F(1, 10**9)
        by_cover = rank_models({p.model: cover_at_tau(p, tau) for p in profiles})
        by_nonzero = rank_models({p.model: fraction_nonzero(p) for p in profiles})
        assert by_cover == by_nonzero


class TestDominanceReport:
    def test_matrix_shape_and_diagonal(self):
        curves = [build_cover_curve(toy_model_a()), build_cover_curve(toy_model_b())]
        report = dominance_report(curves)
        assert report.models == ("A", "B")
        assert report.auc_plus[0][0] == 0 and report.auc_plus[1][1] == 0
        assert report.auc_plus[0][1] == F(1, 4)
        assert report.avg_auc_plus == (F(1, 4), F(1, 4))
        assert report.rankings["avg_auc_plus"][0][2] == 1

    def test_requires_two_models(self):
        with pytest.raises(ValueError, match="at least 2"):
            dominance_report([build_cover_curve(toy_model_a())])


class TestBootstrapBands:
    def _profiles(self):
        rng = np.random.default_rng(38)
        shared = [f"t{i:03d}" for i in range(40)]
        out = []
        for name in ("A", "B"):
            ps = [F(int(x), 32) for x in rng.integers(0, 33, size=40)]
            out.append(SuccessProfile.from_pairs(name, zip(shared, ps)))
        return out

    def test_deterministic_for_fixed_seed(self):
        profiles = self._profiles()
        one = bootstrap_bands(profiles, [F(1, 5)], resamples=200, seed=9)
        two = bootstrap_bands(profiles, [F(1, 5)], resamples=200, seed=9)
        assert one == two

    def test_band_brackets_point_estimate(self):
        profiles = self._profiles()
        bands = bootstrap_bands(profiles, [F(1, 5), F(4, 5)], resamples=500, seed=9)
        for prof in profiles:
            for tau in (F(1, 5), F(4, 5)):
                lo, hi = bands[prof.model][f"cov@{format_tau(tau)}"]
                point = float(cover_at_tau(prof, tau))
                assert lo <= point <= hi
                assert lo <= hi

    def test_threshold_is_exact_for_float_derived_p(self):
        # Fraction(1/3) is just below 1/3, so cover at 1/3 is 0, not 1
        below = SuccessProfile.from_pairs("A", [("t0", F(1 / 3)), ("t1", F(1 / 3))])
        zero = SuccessProfile.from_pairs("B", [("t0", F(0)), ("t1", F(0))])
        assert cover_at_tau(below, F(1, 3)) == 0
        bands = bootstrap_bands([below, zero], [F(1, 3)], resamples=20, seed=0)
        assert bands["A"]["cov@1/3"] == (0.0, 0.0)

    def test_repeated_threshold_rejected(self):
        # "0.2" and "1/5" are one threshold, which would give one cov@0.2 band for two taus
        with pytest.raises(ValueError, match="tau gives threshold 0.2 more than once"):
            bootstrap_bands([toy_model_a(4), toy_model_b(4)], ["0.2", "1/5"], resamples=3)

    def test_misaligned_profiles_rejected(self):
        a = toy_model_a(tasks=10)
        b = toy_model_b(tasks=12)
        with pytest.raises(ValueError, match="same task set"):
            bootstrap_bands([a, b], [F(1, 5)], resamples=10, seed=0)
