"""Unit tests for the stability-analysis helpers."""

import json
import math
import warnings

import numpy as np
import pytest

from periscore.analysis import (
    BLOCK_ELEMENTS,
    GRID_RANGE,
    GRID_STEP,
    CurveSeries,
    _diag_entries_rows,
    cosmax_extremum_interval,
    diag_gradient_fixed_m,
    extreme_diag_gradient,
    extremum_vs_m_curve,
    filter_gain,
    gradient_curve,
    prenorm_gradient_curve,
    prenormed_jacobian,
    prenormed_scores,
    row_normalize,
    row_normalize_jacobian,
    saturation_fraction,
    sin2max_extremum_location,
    sinmax_constant_expected_gradient,
    sinmax_constant_expected_score,
    softmax_extreme_gradient,
    submersion_curve,
)
from periscore.scorefn import (
    ALL_KINDS,
    COS_MAX,
    DEN_MAX,
    SIN2_MAX,
    SIN_MAX_CONSTANT,
    SIN_SOFTMAX,
    SIREN_MAX,
    SOFTMAX,
    DegenerateRow,
    DenominatorNearZero,
    NonFiniteDenominator,
    PoleProximity,
    scores,
    seeded_rng,
)

from score_reference import (
    EXTRA_KINDS,
    kind_id,
    ref_diag_gradient_fixed_m,
    ref_extreme_diag_gradient,
    ref_submersion,
    ref_whiten_jacobian,
)

KINDS = list(ALL_KINDS) + list(EXTRA_KINDS.values())
# Off-sums on both sides of every branch: negative, |M| < 1 where a
# sign-indefinite f lets M + f(x) cross zero, M = 0, and large M.
REF_M = (-3.0, -1.0, -0.5, 0.0, 1e-9, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# -- fixed-M diagonal gradient -----------------------------------------


def test_diag_gradient_matches_direct_formula():
    xs = np.array([-1.0, 0.0, 2.0])
    got = diag_gradient_fixed_m(SOFTMAX, 1.0, xs)
    want = np.exp(xs) / (1.0 + np.exp(xs)) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_diag_gradient_is_bitwise_the_reference(kind):
    xs = np.arange(GRID_RANGE[0], GRID_RANGE[1] + GRID_STEP, GRID_STEP)
    for m in (-1.0, 0.5, 2.0):
        assert np.array_equal(diag_gradient_fixed_m(kind, m, xs),
                              ref_diag_gradient_fixed_m(kind, m, xs),
                              equal_nan=True)
    # An array of off-sums broadcasts against x, one M per point.
    ms = np.linspace(-3.0, 10.0, xs.size)
    idx = np.arange(0, xs.size, 997)
    want = [ref_diag_gradient_fixed_m(kind, ms[i], xs[i:i + 1])[0]
            for i in idx]
    assert np.array_equal(diag_gradient_fixed_m(kind, ms, xs)[idx], want,
                          equal_nan=True)


def test_diag_gradient_guard_points_become_nan():
    xs = np.array([0.0, math.pi / 2, 1.0])
    got = diag_gradient_fixed_m(SIREN_MAX, 1.0, xs)
    assert np.isfinite(got[0]) and np.isnan(got[1]) and np.isfinite(got[2])


def test_softmax_extreme_gradient_is_quarter():
    assert softmax_extreme_gradient() == 0.25
    assert extreme_diag_gradient(SOFTMAX, 1.0, mode="max") == \
        pytest.approx(0.25, abs=1e-9)
    # The maximizer sits where f(x) equals the off-sum: x = ln M.
    m = 10.0
    val = diag_gradient_fixed_m(SOFTMAX, m, np.array([math.log(m)]))[0]
    assert val == pytest.approx(0.25, abs=1e-14)


def test_extreme_modes_are_consistent():
    vmax = extreme_diag_gradient(COS_MAX, 2.0, mode="max")
    vmin = extreme_diag_gradient(COS_MAX, 2.0, mode="min")
    vabs = extreme_diag_gradient(COS_MAX, 2.0, mode="abs")
    assert vmin <= vmax
    assert abs(vabs) == pytest.approx(max(abs(vmax), abs(vmin)), rel=1e-9)
    # Cos-max extrema come in symmetric pairs.
    assert vmin == pytest.approx(-vmax, rel=1e-6)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_extremum_search_is_bitwise_the_reference(kind):
    for mode in ("max", "min", "abs"):
        got = [extreme_diag_gradient(kind, m, mode) for m in REF_M]
        want = [ref_extreme_diag_gradient(kind, m, mode) for m in REF_M]
        assert np.array_equal(got, want, equal_nan=True), mode
        if mode == "abs":
            curve = extremum_vs_m_curve(kind, REF_M)
            assert np.array_equal(curve.y_values, np.abs(want),
                                  equal_nan=True)
            assert curve.params["skipped_m"] == int(np.isnan(want).sum())


def test_extremum_of_nan_off_sum_is_skipped():
    curve = extremum_vs_m_curve(COS_MAX, [2.0, math.nan])
    assert curve.y_values[0] == abs(ref_extreme_diag_gradient(COS_MAX, 2.0))
    assert math.isnan(curve.y_values[1])
    assert curve.params["skipped_m"] == 1
    for mode in ("max", "min", "abs"):
        assert math.isnan(extreme_diag_gradient(COS_MAX, math.nan, mode))


def test_extremum_of_an_off_sum_whose_square_overflows_is_skipped():
    # (1e160 + f)^2 overflows, so every grid point is a guard point
    # rather than M*f'/inf = 0.
    assert 1e160 > DEN_MAX
    curve = extremum_vs_m_curve(SOFTMAX, [1e160])
    assert math.isnan(curve.y_values[0])
    assert curve.params["skipped_m"] == 1
    xs = np.linspace(-1.0, 1.0, 5)
    assert np.all(np.isnan(diag_gradient_fixed_m(SOFTMAX, 1e160, xs)))


@pytest.mark.parametrize("mode", ["max", "min"])
def test_extremum_at_a_grid_edge_is_the_reference(mode):
    # At M = 1e6 the softmax gradient rises across the whole grid (its
    # peak is at x = ln M), so the search brackets the last grid point
    # for "max" and the first for "min".
    got = extreme_diag_gradient(SOFTMAX, 1e6, mode)
    assert got == ref_extreme_diag_gradient(SOFTMAX, 1e6, mode)
    edge = GRID_RANGE[1] if mode == "max" else GRID_RANGE[0]
    want = diag_gradient_fixed_m(SOFTMAX, 1e6, np.array([edge]))[0]
    assert got == pytest.approx(want, rel=1e-3)


# -- closed-form extremum results --------------------------------------


def test_cosmax_interval_endpoints():
    iv = cosmax_extremum_interval(2.0)
    assert iv.lower == pytest.approx(-1.0 / 3.0)
    assert iv.upper == pytest.approx(1.0)
    assert not iv.unbounded


def test_cosmax_interval_unbounded_below_one():
    iv = cosmax_extremum_interval(0.5)
    assert iv.unbounded
    assert math.isinf(iv.lower) and math.isinf(iv.upper)


def test_cosmax_interval_pole_at_unit_m():
    for m in (1.0, -1.0, 1.0 + 1e-9):
        with pytest.raises(PoleProximity) as exc:
            cosmax_extremum_interval(m)
        assert exc.value.value == m


def test_sin2max_extremum_location_is_a_maximizer():
    m = 1.0
    xstar = sin2max_extremum_location(m)
    assert 0.0 < xstar < math.pi / 2
    assert xstar == pytest.approx(0.48727, abs=1e-4)
    # The located point beats its neighborhood.
    probe = xstar + np.array([-1e-3, 0.0, 1e-3])
    ys = diag_gradient_fixed_m(SIN2_MAX, m, probe)
    assert ys[1] >= ys[0] and ys[1] >= ys[2]
    with pytest.raises(ValueError):
        sin2max_extremum_location(-1.0)


def test_filter_gain_peaks_where_f_matches_m():
    # g(M) = M/(M+f)^2 is largest when M = f(x_j).
    assert filter_gain(1.0, 1.0) == pytest.approx(0.25)
    assert filter_gain(0.5, 1.0) < 0.25
    assert filter_gain(2.0, 1.0) < 0.25
    with pytest.raises(DenominatorNearZero):
        filter_gain(1.0, -1.0)


def test_filter_gain_uses_the_kernel_denominator_bounds():
    # 1e-10 is below EPS_DEN; before, only |M + f| < 1e-12 raised and
    # this returned 1e20.
    with pytest.raises(DenominatorNearZero):
        filter_gain(1.0, -1.0 + 1e-10)
    with pytest.raises(NonFiniteDenominator):
        filter_gain(1e160, 0.0)
    with pytest.raises(NonFiniteDenominator):
        filter_gain(math.nan, 1.0)


def test_sinmax_constant_expectations_shrink_with_dimension():
    for d in (2, 8, 64):
        assert sinmax_constant_expected_score(d, 0.3) == pytest.approx(
            (1.0 + math.sin(0.3)) / d)
    g8 = sinmax_constant_expected_gradient(8, 0.3)
    g64 = sinmax_constant_expected_gradient(64, 0.3)
    assert abs(g64) < abs(g8)
    # Roughly cos(x)/d for large d.
    assert g64 == pytest.approx(math.cos(0.3) / 64, rel=0.05)


# -- Monte-Carlo measurements ------------------------------------------


def test_saturation_fraction_is_deterministic_and_contrasting():
    kwargs = dict(dim=16, trials=200, input_scale=8.0, epsilon=1e-4, seed=7)
    a = saturation_fraction(SOFTMAX, **kwargs)
    b = saturation_fraction(SOFTMAX, **kwargs)
    assert a.fraction_saturated == b.fraction_saturated
    assert a.sample_count == 200 * 16
    periodic = saturation_fraction(SIN_SOFTMAX, **kwargs)
    assert a.fraction_saturated > periodic.fraction_saturated


def test_saturation_near_zero_inputs_frozen_value():
    # At tiny input scale the off-sum shrinks with the inputs, so the
    # diagonal entries stay O(1) and almost nothing saturates.
    rep = saturation_fraction(SIN2_MAX, dim=64, trials=1000,
                              input_scale=0.01, epsilon=1e-4, seed=7)
    assert rep.fraction_saturated == pytest.approx(6.25e-5, abs=1e-12)


def test_saturation_counts_skipped_rows():
    rep = saturation_fraction(SIREN_MAX, dim=64, trials=50,
                              input_scale=8.0, epsilon=1e-4, seed=7)
    assert rep.skipped_rows + rep.sample_count // 64 == 50


def test_saturation_drops_rows_whose_denominator_overflows():
    # At input scale 300 the softmax row sum overflows in many rows, which
    # makes those rows' denominators inf or NaN, or so large that their
    # square overflows.
    rows = _rng(7).normal(0.0, 300.0, size=(200, 64))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = saturation_fraction(SOFTMAX, dim=64, trials=200,
                                  input_scale=300.0, epsilon=1e-4, seed=7)
        overflow = int((~(np.exp(rows).sum(axis=1) < DEN_MAX)).sum())
    assert overflow > 0
    assert rep.skipped_rows == overflow
    assert rep.sample_count == (200 - overflow) * 64


def test_saturation_drops_rows_whose_denominator_square_overflows():
    # At input scale 140 no row sum overflows, but 65 reach DEN_MAX, where
    # denom ** 2 in the gradient would be inf and the entries NaN.
    rows = seeded_rng(7).normal(0.0, 140.0, size=(200, 64))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = saturation_fraction(SOFTMAX, dim=64, trials=200,
                                  input_scale=140.0, epsilon=1e-4, seed=7)
        sums = np.exp(rows).sum(axis=1)
        entries, skipped = _diag_entries_rows(SOFTMAX, rows)
    assert np.all(np.isfinite(sums))
    assert rep.skipped_rows == skipped == int((sums >= DEN_MAX).sum()) == 65
    assert rep.sample_count == entries.size == 8640
    assert not np.any(np.isnan(entries))


def test_submersion_curve_decreases():
    curve = submersion_curve([4, 32], trials=100, seed=7)
    assert curve.y_values[1] < curve.y_values[0]


@pytest.mark.parametrize("d, trials", [
    (2, 7), (3, 5), (1000, 37), (20000, 3)])
def test_submersion_curve_is_bitwise_the_reference(d, trials):
    # 37 rows of width 1000 fill two blocks of 16 and a third of 5; a row
    # wider than BLOCK_ELEMENTS is scored alone.
    assert 1000 < BLOCK_ELEMENTS < 20000
    for seed in (0, 7):
        got = submersion_curve([d], trials=trials, seed=seed).y_values
        assert np.array_equal(got, [ref_submersion(d, trials, seed)])


def test_submersion_curve_rejects_rows_narrower_than_two():
    with pytest.raises(ValueError):
        submersion_curve([4, 1], trials=3)


@pytest.mark.filterwarnings("error")
def test_submersion_curve_rejects_fewer_than_one_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            submersion_curve([4], trials=trials)


# -- curves and CSV ----------------------------------------------------


def test_gradient_curve_has_gaps_at_guard_points():
    curve = gradient_curve(SIREN_MAX, 1.0, 0.0, math.pi, 101)
    assert curve.params["nan_points"] >= 1
    assert np.isnan(curve.y_values).sum() == curve.params["nan_points"]


def test_off_sum_whose_square_overflows_is_a_silent_guard_point():
    # Only denominators that pass the guard are squared, so M = 1e160
    # gives NaN points without numpy's overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = gradient_curve(SOFTMAX, 1e160, -1.0, 1.0, 5)
        ys = diag_gradient_fixed_m(SOFTMAX, np.array([[1e160], [1.0]]),
                                   np.linspace(-1.0, 1.0, 5))
    assert np.all(np.isnan(curve.y_values))
    assert np.all(np.isnan(ys[0])) and np.all(np.isfinite(ys[1]))
    assert curve.params["nan_points"] == 5


@pytest.mark.parametrize("args", [
    dict(steps=1), dict(steps=0), dict(x_min=1.0), dict(x_min=math.nan),
    dict(x_min=-math.inf), dict(x_max=math.inf),
    dict(d=1), dict(d=0), dict(var=0.0), dict(var=-1.0), dict(var=math.nan),
    dict(var=math.inf),
], ids=lambda a: "-".join(f"{k}={v}" for k, v in a.items()))
def test_gradient_curves_validate_arguments(args):
    full = dict(x_min=-1.0, x_max=1.0, steps=11, d=16, var=1.0) | args
    with pytest.raises(ValueError):
        prenorm_gradient_curve(SOFTMAX, 1.0, **full)
    if {"steps", "x_min", "x_max"} >= args.keys():
        with pytest.raises(ValueError):
            gradient_curve(SOFTMAX, 1.0, full["x_min"], full["x_max"],
                           full["steps"])


def test_extremum_vs_m_curve_orders_values():
    curve = extremum_vs_m_curve(SOFTMAX, [0.5, 1.0, 10.0])
    np.testing.assert_allclose(curve.y_values, 0.25, atol=1e-6)


def test_curve_csv_roundtrip(tmp_path):
    curve = CurveSeries(x_values=np.array([0.0, 1.0, 2.0]),
                        y_values=np.array([0.5, math.nan, -1.5]),
                        label="demo", params={"M": 2.0})
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[1].split(",") == ["0.0", "0.5"]
    assert lines[2] == "1.0,"  # NaN becomes an empty field
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["label"] == "demo"
    assert meta["params"]["M"] == 2.0


# -- pre-normalization -------------------------------------------------


def test_row_normalize_whitens():
    z = row_normalize(_rng(4).normal(2.0, 3.0, size=32))
    assert z.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.var() == pytest.approx(1.0, rel=1e-12)


def test_row_normalize_rejects_constant_rows():
    with pytest.raises(DegenerateRow):
        row_normalize(np.full(8, 3.5))


def test_row_normalize_jacobian_matches_closed_form():
    x = _rng(6).normal(1.0, 2.0, size=7)
    np.testing.assert_allclose(row_normalize_jacobian(x).entries,
                               ref_whiten_jacobian(x), rtol=0, atol=1e-15)


def test_row_normalize_jacobian_matches_finite_differences():
    x = _rng(5).normal(size=6)
    a = row_normalize_jacobian(x).entries
    h = 1e-6
    for k in range(6):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        col = (row_normalize(xp) - row_normalize(xm)) / (2.0 * h)
        np.testing.assert_allclose(a[:, k], col, atol=1e-8)


def test_prenormed_scores_are_scale_and_shift_invariant():
    x = _rng(6).normal(size=8)
    a = prenormed_scores(SOFTMAX, x).scores
    b = prenormed_scores(SOFTMAX, 10.0 * x + 3.0).scores
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_prenormed_jacobian_matches_finite_differences():
    x = _rng(7).normal(size=6)
    a = prenormed_jacobian(SIN_SOFTMAX, x).entries
    h = 1e-6
    for k in range(6):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        col = (prenormed_scores(SIN_SOFTMAX, xp).scores
               - prenormed_scores(SIN_SOFTMAX, xm).scores) / (2.0 * h)
        np.testing.assert_allclose(a[:, k], col, atol=1e-8)
