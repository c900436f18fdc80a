"""The integer-grid cover-curve kernel against the plain Fraction oracle."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from covertau import (
    CoverCurve,
    SuccessProfile,
    auc_plus_cover,
    avg_auc_plus,
    bootstrap_bands,
    build_cover_curve,
    check_cover_dominance,
    cover_at_tau,
    dominance_report,
    pass_at_k_exact,
    pass_curve,
)
from covertau.dominance import BAND_LEVELS, TaskTally, _cover_grid, scaled_bootstrap_bands
from covertau.report import format_tau

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
def profile_sets(draw, rates=rate, min_models=2):
    tasks = draw(st.integers(1, 12))
    models = draw(st.integers(min_models, 4))
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


@settings(max_examples=200, deadline=None)
@given(profile_sets(min_models=1), st.lists(rate, max_size=4))
def test_value_at_equals_cover_at_tau(profiles, taus):
    # tau on every breakpoint, at 0 and 1, and off the grid
    for prof in profiles:
        curve = build_cover_curve(prof)
        for tau in [F(0), F(1), *curve.breakpoints, *taus]:
            assert curve.value_at(tau) == cover_at_tau(prof, tau)


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


def test_bootstrap_draws_one_resample_row_at_a_time():
    # 1000 resamples of 3000 tasks: the whole (resamples, T) int64 index draw
    # alone would be 22.9 MiB
    models, tasks, scale = 6, 3000, 240
    scaled = np.random.default_rng(5).integers(0, scale + 1, size=(models, tasks)).tolist()
    tally = TaskTally([f"m{i}" for i in range(models)], scaled, scale, [F(1, 5), F(4, 5)])
    tracemalloc.start()
    try:
        scaled_bootstrap_bands(tally, resamples=1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_hand_built_curves_with_values_off_the_task_grid():
    # values need not be multiples of 1/num_tasks
    a = CoverCurve(model="A", breakpoints=(F(0), F(2, 7), F(1)), values=(F(1), F(5, 9), F(1, 3)), num_tasks=4)
    b = CoverCurve(model="B", breakpoints=(F(0), F(1, 2), F(1)), values=(F(1), F(2, 3), F(0)), num_tasks=4)
    assert_matches_oracle([a, b])


def resample_sets(profiles, seed, resamples):
    """The task multisets of every bootstrap resample, tasks renamed apart."""
    t = profiles[0].num_tasks
    key = np.array([seed % 2**64, 0x626F6F74], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key)).integers(0, t, size=(resamples, t))
    return [
        [
            SuccessProfile.from_pairs(p.model, ((f"r{k:02d}", p.probabilities[i]) for k, i in enumerate(idx)))
            for p in profiles
        ]
        for idx in draws
    ]


def resampled(profiles, seed):
    """The task multiset of bootstrap resample 0 (resamples=1), tasks renamed apart."""
    return resample_sets(profiles, seed, 1)[0]


def exact_samples(sample, taus):
    """{model: {metric: float}} of one resampled task multiset, from
    `cover_at_tau` and the Fraction oracle's AvgAUC+, each rounded once."""
    averages = oracle.avg_auc_plus([oracle.build_cover_curve(p) for p in sample]) if len(sample) > 1 else {}
    out = {}
    for prof in sample:
        out[prof.model] = {f"cov@{format_tau(tau)}": float(cover_at_tau(prof, tau)) for tau in taus}
        if averages:
            out[prof.model]["avg_auc_plus"] = float(averages[prof.model])
    return out


def assert_band_is_the_exact_sample(profiles, taus, seed):
    bands = bootstrap_bands(profiles, taus, resamples=1, seed=seed)
    for model, expected in exact_samples(resampled(profiles, seed), taus).items():
        assert bands[model] == {name: (value, value) for name, value in expected.items()}


@settings(max_examples=200, deadline=None)
@given(
    profile_sets(min_models=1),
    st.lists(st.one_of(plug_in, st.sampled_from([F(0), F(1)]), from_float), min_size=1, max_size=3),
    st.integers(-(2**64), 2**64),
)
def test_single_resample_band_is_the_exact_sample(profiles, taus, seed):
    assert_band_is_the_exact_sample(profiles, taus, seed)


@pytest.mark.parametrize("d", [2**61 - 1, 2**62 + 1])
def test_single_resample_band_on_python_ints(d):
    # T * L >= 2**62 puts the bootstrap sums on Python ints; with d = 2**61 - 1
    # the lcm L = 2d alone is below 2**62 but int64 sums would wrap
    profiles = [
        SuccessProfile.from_pairs("A", [(f"t{j}", F(1)) for j in range(8)]),
        SuccessProfile.from_pairs(
            "B", [("t0", F(1, d)), ("t1", F(d - 1, d)), ("t2", F(1, 2))] + [(f"t{j}", F(0)) for j in range(3, 8)]
        ),
    ]
    for seed in range(3):
        assert_band_is_the_exact_sample(profiles, [F(1, d), F(1, 2), F(1)], seed)


@pytest.mark.parametrize("resamples", [2, 7])
@settings(max_examples=60, deadline=None)
@given(
    profile_sets(min_models=1),
    st.lists(st.one_of(plug_in, st.sampled_from([F(0), F(1)]), from_float), min_size=1, max_size=3),
    st.integers(-(2**64), 2**64),
)
def test_band_is_the_quantile_of_the_exact_samples(resamples, profiles, taus, seed):
    bands = bootstrap_bands(profiles, taus, resamples=resamples, seed=seed)
    samples = [exact_samples(sample, taus) for sample in resample_sets(profiles, seed, resamples)]
    for model, band in bands.items():
        assert band.keys() == samples[0][model].keys()
        for name, (lo, hi) in band.items():
            expected = np.quantile([sample[model][name] for sample in samples], BAND_LEVELS)
            assert (lo, hi) == tuple(expected.tolist())
