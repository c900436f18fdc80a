"""Cover/pass curve construction and the integral identities."""

from fractions import Fraction

import numpy as np
import pytest

from covertau import (
    SuccessProfile,
    beta_mass_below,
    beta_weighted_pass,
    build_cover_curve,
    cover_at_tau,
    export_curve,
    fraction_nonzero,
    pass_at_k_exact,
    pass_curve,
    toy_model_a,
    toy_model_b,
    uniform_auc,
)
from covertau.curves import CoverCurve, PassCurve

F = Fraction


def profile(*ps, model="m"):
    return SuccessProfile.from_pairs(model, ((f"t{i:03d}", p) for i, p in enumerate(ps)))


def random_profile(rng, tasks=50, model="m"):
    return profile(*(F(float(x)) for x in rng.random(tasks)), model=model)


class TestBuildCoverCurve:
    def test_constant_half_shape(self):
        curve = build_cover_curve(toy_model_a())
        assert curve.breakpoints == (F(0), F(1, 2), F(1))
        assert curve.values == (F(1), F(1), F(0))
        assert curve.value_at(F(1, 2)) == 1
        assert curve.value_at(F(3, 4)) == 0

    def test_zero_one_split_shape(self):
        curve = build_cover_curve(toy_model_b())
        assert curve.breakpoints == (F(0), F(1))
        assert curve.values == (F(1), F(1, 2))
        assert curve.value_at(F(1, 100)) == F(1, 2)
        assert curve.value_at(F(1)) == F(1, 2)

    def test_three_step_fixture(self):
        # indicators counted by hand: drops to 2/3 after 1/3, to 1/3 after 2/3
        curve = build_cover_curve(profile(F(1, 3), F(2, 3), F(1)))
        assert curve.breakpoints == (F(0), F(1, 3), F(2, 3), F(1))
        assert curve.values == (F(1), F(1), F(2, 3), F(1, 3))

    def test_agrees_with_cover_at_tau_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            prof = random_profile(rng, tasks=19)
            curve = build_cover_curve(prof)
            taus = [F(0), F(1)] + [F(float(x)) for x in rng.random(15)] + list(prof.probabilities[:5])
            for tau in taus:
                assert curve.value_at(tau) == cover_at_tau(prof, tau)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="non-increasing"):
            CoverCurve(
                model="m",
                breakpoints=(F(0), F(1, 2), F(1)),
                values=(F(1), F(1, 2), F(3, 4)),
                num_tasks=4,
            )


class TestPassCurve:
    def test_constant_half(self):
        curve = pass_curve(toy_model_a(tasks=10), [1, 2])
        assert curve.values[0] == 0.5
        assert curve.values[1] == pytest.approx(0.75, abs=1e-15)

    def test_zero_one_profile_is_flat(self):
        curve = pass_curve(toy_model_b(tasks=10), [1, 2, 4, 1000])
        assert all(v == 0.5 for v in curve.values)

    def test_guesser_saturation_endpoints(self):
        curve = pass_curve(profile(*[F(1, 30)] * 4), [1, 8192])
        assert curve.values[0] == pytest.approx(1 / 30, abs=1e-15)
        assert curve.values[1] >= 1 - 1e-6

    def test_non_ascending_grid_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            pass_curve(toy_model_a(tasks=4), [1, 4, 2])

    def test_values_nondecreasing_invariant(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PassCurve(model="m", ks=(1, 2), values=(0.5, 0.4))


def beta_quadrature_oracle(curve, k, nodes=64):
    """Gauss-Legendre integration of k(1-t)^(k-1) G(t) piece by piece.

    The weight is a polynomial of degree k-1, and G is constant per piece,
    so with enough nodes the rule is exact up to float rounding and fully
    independent of the closed-form antiderivative.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    bps = [float(b) for b in curve.breakpoints]
    vals = [float(v) for v in curve.values]
    for j in range(1, len(bps)):
        a, b = bps[j - 1], bps[j]
        half = (b - a) / 2.0
        t = (x + 1.0) * half + a
        total += vals[j] * half * np.sum(w * k * (1.0 - t) ** (k - 1))
    return total


class TestBetaWeightedPass:
    def test_symmetric_split_any_k(self):
        curve = build_cover_curve(toy_model_b(tasks=10))
        assert beta_weighted_pass(curve, 5) == pytest.approx(0.5, abs=1e-15)

    def test_constant_half_k2(self):
        curve = build_cover_curve(toy_model_a(tasks=10))
        assert beta_weighted_pass(curve, 2) == pytest.approx(0.75, abs=1e-15)

    def test_matches_exact_pass_tightly(self):
        rng = np.random.default_rng(22)
        ks = [1, 2, 4, 8, 16, 64, 256, 1024]
        for _ in range(20):
            prof = random_profile(rng)
            curve = build_cover_curve(prof)
            for k in ks:
                assert beta_weighted_pass(curve, k) == pytest.approx(
                    pass_at_k_exact(prof, k), abs=1e-12
                )

    @pytest.mark.parametrize("k", [1, 2, 5, 16, 63])
    def test_matches_quadrature_oracle(self, k):
        rng = np.random.default_rng(23)
        prof = random_profile(rng, tasks=21)
        curve = build_cover_curve(prof)
        assert beta_weighted_pass(curve, k) == pytest.approx(
            beta_quadrature_oracle(curve, k), abs=1e-11
        )

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k values must be >= 1"):
            beta_weighted_pass(build_cover_curve(toy_model_a(tasks=2)), 0)


class TestUniformAuc:
    def test_constant_half(self):
        assert uniform_auc(build_cover_curve(toy_model_a(tasks=10))) == F(1, 2)

    def test_zero_one_split(self):
        assert uniform_auc(build_cover_curve(toy_model_b(tasks=10))) == F(1, 2)

    def test_three_step_fixture(self):
        # piecewise sum 1*(1/3) + (2/3)(1/3) + (1/3)(1/3) = 2/3
        curve = build_cover_curve(profile(F(1, 3), F(2, 3), F(1)))
        assert uniform_auc(curve) == F(2, 3)

    def test_equals_mean_p_exactly(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            prof = random_profile(rng, tasks=31)
            assert uniform_auc(build_cover_curve(prof)) == prof.mean_p


class TestFractionNonzero:
    def test_counts_positives(self):
        assert fraction_nonzero(profile(F(0), F(1, 2), F(1))) == F(2, 3)

    def test_all_positive_is_one(self):
        rng = np.random.default_rng(25)
        ps = [F(1, 1000) + F(float(x)) * F(1, 2) for x in rng.random(9)]
        assert fraction_nonzero(profile(*ps)) == 1

    def test_all_zero_is_zero(self):
        assert fraction_nonzero(profile(F(0), F(0))) == 0

    def test_upper_bounds_pass_at_k_and_gap_closes(self):
        rng = np.random.default_rng(26)
        ps = [F(1, 100) + F(float(x)) * F(99, 100) for x in rng.random(12)]
        prof = profile(*ps)
        limit = float(fraction_nonzero(prof))
        gaps = []
        for k in [1, 8, 64, 512, 4096]:
            value = pass_at_k_exact(prof, k)
            assert value <= limit + 1e-12
            gaps.append(limit - value)
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6


class TestBetaMassBelow:
    def test_closed_form(self):
        assert beta_mass_below(F(1, 2), 1) == pytest.approx(0.5)
        assert beta_mass_below(F(1, 2), 3) == pytest.approx(1 - 0.125)

    def test_mass_grows_with_k(self):
        for tau in [F(1, 100), F(1, 10), F(1, 2)]:
            masses = [beta_mass_below(tau, k) for k in [1, 2, 4, 8, 16, 128, 1024]]
            assert all(b > a for a, b in zip(masses, masses[1:])) or masses[-1] == 1.0
            assert all(b >= a for a, b in zip(masses, masses[1:]))


class TestExportCurve:
    def test_grid_evaluation(self):
        curve = build_cover_curve(toy_model_a(tasks=10))
        rows = export_curve(curve, [F(0), F(1, 4), F(1, 2), F(3, 4)])
        assert [v for _, v in rows] == [F(1), F(1), F(1), F(0)]

    def test_default_is_breakpoints(self):
        curve = build_cover_curve(profile(F(1, 3), F(2, 3), F(1)))
        rows = export_curve(curve)
        assert [x for x, _ in rows] == list(curve.breakpoints)
        assert [v for _, v in rows] == list(curve.values)

    def test_empty_grid_falls_back_to_breakpoints(self):
        curve = build_cover_curve(toy_model_a(tasks=4))
        assert export_curve(curve, []) == export_curve(curve)

    def test_pass_curve_preserves_k_order(self):
        curve = pass_curve(toy_model_a(tasks=4), [1, 2, 8])
        rows = export_curve(curve)
        assert [k for k, _ in rows] == [1, 2, 8]

    def test_out_of_range_grid_rejected(self):
        curve = build_cover_curve(toy_model_a(tasks=4))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            export_curve(curve, [F(3, 2)])
