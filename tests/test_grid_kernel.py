"""The integer-grid cover-curve kernel against the plain Fraction oracle."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from covertau import (
    CoverCurve,
    SuccessProfile,
    auc_plus_cover,
    avg_auc_plus,
    build_cover_curve,
    check_cover_dominance,
    dominance_report,
    pass_at_k_exact,
    pass_curve,
)
from covertau.dominance import _cover_grid

F = Fraction

# plug-in rates c/n from mixed trial counts
plug_in = st.integers(1, 300).flatmap(lambda n: st.integers(0, n).map(lambda c: F(c, n)))
# denominators of 2**53 and up, as float-derived profiles have; these push
# the grid scale past 2**62 and onto Python ints
wide = st.integers(2**53, 2**64).flatmap(lambda d: st.integers(0, d).map(lambda c: F(c, d)))
from_float = st.floats(0.0, 1.0).map(F)
# p = 0 and p = 1 get a branch of their own so they are drawn often
rate = st.one_of(plug_in, st.sampled_from([F(0), F(1)]), wide, from_float)


@st.composite
def profile_sets(draw, rates=rate):
    tasks = draw(st.integers(1, 12))
    models = draw(st.integers(2, 4))
    return [
        SuccessProfile.from_pairs(
            f"m{i}", ((f"t{j:02d}", draw(rates)) for j in range(tasks))
        )
        for i in range(models)
    ]


def assert_matches_oracle(curves):
    report = dominance_report(curves)
    for i, a in enumerate(curves):
        for j, b in enumerate(curves):
            expected = oracle.auc_plus_cover(a, b)
            assert report.auc_plus[i][j] == expected
            assert auc_plus_cover(a, b) == expected
            assert check_cover_dominance(a, b) == oracle.check_cover_dominance(a, b)
    averages = oracle.avg_auc_plus(curves)
    assert avg_auc_plus(curves) == averages
    assert report.avg_auc_plus == tuple(averages[c.model] for c in curves)


@settings(max_examples=200, deadline=None)
@given(profile_sets())
def test_kernel_equals_fraction_oracle(profiles):
    curves = [build_cover_curve(p) for p in profiles]
    assert curves == [oracle.build_cover_curve(p) for p in profiles]
    assert all(type(x) is Fraction for c in curves for x in c.breakpoints + c.values)
    assert_matches_oracle(curves)


@settings(max_examples=100, deadline=None)
@given(profile_sets(rates=st.one_of(plug_in, st.sampled_from([F(0), F(1)]))))
def test_pass_curve_equals_pointwise_pass_at_k(profiles):
    ks = [1, 2, 3, 8, 64, 8192]
    for prof in profiles:
        assert pass_curve(prof, ks).values == tuple(pass_at_k_exact(prof, k) for k in ks)


def test_grid_dtype_switches_to_python_ints_at_2_62():
    for den, dtype in ((2**62 - 1, np.int64), (2**62, object)):
        curves = [build_cover_curve(SuccessProfile.from_pairs(m, [("t0", F(1, den))])) for m in "AB"]
        heights, widths, scale = _cover_grid(curves)
        assert scale == den
        assert heights.dtype == dtype and widths.dtype == dtype


def test_wide_denominators_match_oracle_on_python_ints():
    d = 2**61 + 1
    profiles = [
        SuccessProfile.from_pairs("A", [("t0", F(1, d)), ("t1", F(1)), ("t2", F(1, 3))]),
        SuccessProfile.from_pairs("B", [("t0", F(d - 1, d)), ("t1", F(0)), ("t2", F(1, 2))]),
    ]
    curves = [build_cover_curve(p) for p in profiles]
    heights, _, scale = _cover_grid(curves)
    assert scale >= 2**62 and heights.dtype == object
    assert_matches_oracle(curves)


def test_hand_built_curves_with_values_off_the_task_grid():
    # values need not be multiples of 1/num_tasks
    a = CoverCurve(model="A", breakpoints=(F(0), F(2, 7), F(1)), values=(F(1), F(5, 9), F(1, 3)), num_tasks=4)
    b = CoverCurve(model="B", breakpoints=(F(0), F(1, 2), F(1)), values=(F(1), F(2, 3), F(0)), num_tasks=4)
    assert_matches_oracle([a, b])
