"""Unit tests for the stability-analysis helpers."""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from periscore import analysis, harness
from periscore.analysis import (
    BLOCK_ELEMENTS,
    GRID_RANGE,
    GRID_STEP,
    CurveSeries,
    ExtremumInterval,
    _diag_entries_rows,
    cosmax_extremum_interval,
    diag_gradient_fixed_m,
    extreme_diag_gradient,
    extremum_vs_m_curve,
    filter_gain,
    gradient_curve,
    prenorm_gradient_curve,
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
    SIN2_MAX_SHIFTED,
    SIN_SOFTMAX,
    SIREN_MAX,
    SOFTMAX,
    DegenerateRow,
    DenominatorNearZero,
    NonFiniteDenominator,
    PoleProximity,
    ScoreError,
    denom_ok,
    f_and_fp,
    pole_mask,
    seeded_rng,
    whiten_rows,
)

import score_reference
from score_reference import (
    EXTRA_KINDS,
    kind_id,
    prenormed_jacobian,
    prenormed_scores,
    ref_diag_gradient_fixed_m,
    ref_extreme_diag_gradient,
    ref_submersion,
    ref_whiten_jacobian,
    row_normalize,
    row_normalize_jacobian,
)

KINDS = list(ALL_KINDS) + list(EXTRA_KINDS.values())
# Off-sums on both sides of every branch: negative, |M| < 1 where a
# sign-indefinite f lets M + f(x) cross zero, M = 0, and large M.
REF_M = (-3.0, -1.0, -0.5, 0.0, 1e-9, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


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


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
def test_diag_gradient_is_nan_without_a_warning_at_non_finite_points(kind):
    # x = 800 overflows exp, and with it the exp kinds' f.
    xs = np.array([math.inf, -math.inf, math.nan, 0.0, 800.0, 0.3, -2.0])
    for m in (0.5, 2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = diag_gradient_fixed_m(kind, m, xs)
        assert np.all(np.isnan(got[:3]))
        assert np.isnan(got[4]) == (kind.tag in ("softmax", "sm-softmax"))
        assert np.array_equal(got[3:],
                              ref_diag_gradient_fixed_m(kind, m, xs[3:]),
                              equal_nan=True)


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


@pytest.mark.parametrize("block", [1, 37, 1 << 20],
                         ids=["bound-1", "bound-37",
                              "bound-wider-than-the-grid"])
def test_extremum_search_does_not_depend_on_the_block_size(monkeypatch,
                                                           block):
    # A coarse grid keeps the one-column blocks affordable.  The brackets
    # handed to the refinement pin down which grid point each search
    # kept, also where tied grid values give the same final value.
    monkeypatch.setattr(analysis, "GRID_STEP", 0.05)
    brackets = []
    refine = analysis._golden_refine

    def spy(kind, ms, signs, lo, hi):
        brackets.append((ms, signs, lo, hi))
        return refine(kind, ms, signs, lo, hi)

    monkeypatch.setattr(analysis, "_golden_refine", spy)

    def run():
        brackets.clear()
        ys = [extremum_vs_m_curve(kind, REF_M).y_values for kind in KINDS]
        ys += [[extreme_diag_gradient(kind, m, mode) for m in REF_M]
               for kind in KINDS for mode in ("max", "min", "abs")]
        return ys, list(brackets)

    want = run()
    monkeypatch.setattr(analysis, "BOUND_WIDTH", block)
    got = run()
    for a, b in zip(got[0], want[0], strict=True):
        assert np.array_equal(a, b, equal_nan=True)
    for a, b in zip(got[1], want[1], strict=True):
        assert all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))


def test_extremum_grid_memo_follows_the_grid_constants(monkeypatch):
    extremum_vs_m_curve(COS_MAX, REF_M)  # the default grid is memoized
    for module in (analysis, score_reference):
        monkeypatch.setattr(module, "GRID_STEP", 0.05)
    for kind in (SOFTMAX, COS_MAX, SIN_SOFTMAX, SIREN_MAX):
        got = [extreme_diag_gradient(kind, m) for m in REF_M]
        want = [ref_extreme_diag_gradient(kind, m) for m in REF_M]
        assert np.array_equal(got, want, equal_nan=True), kind.tag


def test_extremum_grid_memo_is_read_only():
    extreme_diag_gradient(SIREN_MAX, 2.0)
    for a in analysis._grid(*GRID_RANGE, GRID_STEP):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 1.0


def test_extremum_sweep_takes_the_grid_trig_once(monkeypatch):
    n = np.arange(GRID_RANGE[0], GRID_RANGE[1] + GRID_STEP, GRID_STEP).size
    calls = []
    for name in ("sin", "cos"):
        def spy(x, *args, _name=name, _fn=getattr(np, name), **kwargs):
            if np.size(x) == n:
                calls.append(_name)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)

    def sweep():
        calls.clear()
        for kind in ALL_KINDS:
            extremum_vs_m_curve(kind, [0.5, 1.0, 2.0, 5.0, 10.0])
        return len(calls)

    analysis._grid.cache_clear()
    assert sweep() <= 5
    # Warm: sin2-max's f' and sin2-max-shifted's f and f' take the sin of
    # other angles.
    assert sweep() == 3


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_extremum_curve_is_bitwise_its_per_m_searches(kind):
    # Negative, tiny, zero (both signs), guard-limited (|M| < 1 where a
    # sign-indefinite f lets M + f(x) cross zero; a square that
    # overflows) and non-finite off-sums, in one call.
    ms = [*np.linspace(-3.0, 10.0, 21), 0.0, -0.0, 1e-9, -1e-9, 0.25,
          math.nan, math.inf, -math.inf, 1e160, -1e160]
    curve = extremum_vs_m_curve(kind, ms)
    want = np.abs([extreme_diag_gradient(kind, m) for m in ms])
    assert np.array_equal(curve.y_values, want, equal_nan=True)
    assert curve.params["skipped_m"] == int(np.isnan(want).sum()) >= 5


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


def _assert_dropped_blocks_are_below_met(ms, signs, f, fp, ok, width):
    """Brute force: every live sign * gradient in a block _needed_blocks
    drops is below the largest live one at the blocks' first points."""
    need = analysis._needed_blocks(ms, signs, f, fp, ok)
    starts = np.arange(0, f.size, width)
    for m, need_m in zip(ms, need, strict=True):
        for sign in signs:
            with np.errstate(all="ignore"):
                denom, ys = analysis._fixed_m_quotient(m, f, fp)
                vals = np.where(ok & denom_ok(denom), sign * ys, -np.inf)
            met = vals[starts].max()
            # A NaN block maximum is not below met, so it fails too.
            assert np.all((np.maximum.reduceat(vals, starts) < met)[~need_m])
    return need


@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
def test_extremum_grid_blocks_dropped_are_below_a_grid_value(kind):
    # The off-sums of test_extremum_curve_is_bitwise_its_per_m_searches,
    # one whose peak is off the grid, and two tiny ones.
    ms = np.array([*np.linspace(-3.0, 10.0, 21), 0.0, -0.0, 1e-9, -1e-9,
                   0.25, math.nan, math.inf, -math.inf, 1e160, -1e160,
                   1e6, 1e-300, 3e-8])
    xs, sin, cos = analysis._grid(*GRID_RANGE, GRID_STEP)
    f, fp = f_and_fp(kind, xs, sin, cos)
    need = _assert_dropped_blocks_are_below_met(
        ms, np.array([1.0, -1.0]), f, fp(), ~pole_mask(kind, xs, sin),
        analysis.BOUND_WIDTH)
    assert not need.all()


# Sign-crossing M + f, signed zeros, tiny, huge and non-finite values.
_BOUND_VALUES = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e160, -1e160, 1e300,
                     -1e300, math.inf, -math.inf, math.nan]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_needed_blocks_keep_every_block_that_can_reach_met(data):
    n = data.draw(st.integers(1, 24))
    f, fp = (data.draw(hnp.arrays(np.float64, n, elements=_BOUND_VALUES))
             for _ in range(2))
    ok = data.draw(hnp.arrays(np.bool_, n))
    ms = data.draw(hnp.arrays(np.float64, st.integers(1, 3),
                              elements=_BOUND_VALUES))
    signs = np.array(data.draw(st.sampled_from([[1.0, -1.0], [1.0], [-1.0]])))
    width = data.draw(st.integers(1, 8))
    with mock.patch.object(analysis, "BOUND_WIDTH", width):
        need = _assert_dropped_blocks_are_below_met(ms, signs, f, fp, ok,
                                                    width)
    assert need.shape == (ms.size, -(-n // width))


def test_extremum_sweep_scores_at_most_a_quarter_of_its_grid(monkeypatch):
    quotient = analysis._fixed_m_quotient
    scored = []

    def spy(m, f, fp):
        denom, ys = quotient(m, f, fp)
        scored.append(ys.size)
        return denom, ys

    monkeypatch.setattr(analysis, "_fixed_m_quotient", spy)
    ms = [0.5, 1.0, 2.0, 5.0, 10.0]  # the benchmark's sweep
    for kind in ALL_KINDS:
        extremum_vs_m_curve(kind, ms)
    n = analysis._grid(*GRID_RANGE, GRID_STEP)[0].size
    assert sum(scored) <= 0.25 * len(ALL_KINDS) * len(ms) * n


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
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            sin2max_extremum_location(bad)


def test_sin2max_extremum_location_does_not_cancel_at_large_m():
    # cos(2x) = 4/(t + sqrt(8 + t^2)) with t = 2M+1, so x = pi/4 - 1/t
    # up to O(1/t^3).  The cancelling form -(t - sqrt(8 + t^2))/2 was
    # about 2e-9 off at M = 1e8.
    x = sin2max_extremum_location(1e8)
    assert abs(x - (math.pi / 4 - 1 / (2.0 * 1e8 + 1.0))) <= 4.4e-16
    assert sin2max_extremum_location(1e308) == math.pi / 4


@pytest.mark.parametrize("call, expected", [
    (lambda: cosmax_extremum_interval(math.nan), ValueError),
    (lambda: cosmax_extremum_interval(math.inf), ValueError),
    (lambda: cosmax_extremum_interval(0.0), ExtremumInterval(0.0, 0.0, 0.0)),
    (lambda: sinmax_constant_expected_score(1, 0.3), ValueError),
    (lambda: sinmax_constant_expected_gradient(1, 0.3), ValueError),
    (lambda: extremum_vs_m_curve(SOFTMAX, []), ValueError),
    (lambda: harness.build_dataset(object(), seed=0), TypeError),
], ids=["cosmax-nan", "cosmax-inf", "cosmax-zero", "expected-score-d1",
        "expected-gradient-d1", "extremum-no-m", "unknown-dataset-spec"])
def test_edge_arguments(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


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


@pytest.mark.parametrize("bad", [
    {"epsilon": math.nan},
    {"input_scale": math.nan},
    {"input_scale": math.inf},
    {"input_scale": -1.0},
], ids=["nan-epsilon", "nan-scale", "inf-scale", "negative-scale"])
def test_saturation_fraction_rejects_bad_arguments(bad):
    kwargs = dict(dim=16, trials=5, input_scale=8.0, epsilon=1e-4, seed=7)
    with pytest.raises(ValueError, match="need dim >= 2") as err:
        saturation_fraction(SOFTMAX, **(kwargs | bad))
    assert not isinstance(err.value, ScoreError)


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


def test_saturation_of_rows_that_all_hit_a_pole_is_empty():
    rows = np.full((3, 4), math.pi / 2)
    entries, skipped = _diag_entries_rows(SIREN_MAX, rows, np.sin(rows),
                                          np.cos(rows))
    assert entries.size == 0 and skipped == 3


def test_saturation_drops_pole_rows_after_scoring_every_row():
    # Every fifth row holds a pole point; the others' entries are bitwise
    # those of the pole-free rows scored alone.
    rows = seeded_rng(3).normal(0.0, 2.0, size=(40, 16))
    rows[::5, 7] = math.pi / 2
    pole = np.zeros(40, dtype=bool)
    pole[::5] = True
    entries, skipped = _diag_entries_rows(SIREN_MAX, rows)
    alone, none = _diag_entries_rows(SIREN_MAX, rows[~pole])
    assert skipped == pole.sum() == 8 and none == 0
    assert entries.tobytes() == alone.tobytes()
    assert entries.size == 32 * 16


def test_saturation_drops_rows_whose_denominator_overflows():
    # At input scale 300 the softmax row sum overflows in many rows, which
    # makes those rows' denominators inf or NaN, or so large that their
    # square overflows.  No numpy warning escapes saturation_fraction.
    rows = seeded_rng(7).normal(0.0, 300.0, size=(200, 64))
    rep = saturation_fraction(SOFTMAX, dim=64, trials=200,
                              input_scale=300.0, epsilon=1e-4, seed=7)
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = int((~(np.exp(rows).sum(axis=1) < DEN_MAX)).sum())
    assert overflow > 0
    assert rep.skipped_rows == overflow
    assert rep.sample_count == (200 - overflow) * 64


def test_saturation_drops_rows_whose_denominator_square_overflows():
    # At input scale 140 no row sum overflows, but 65 reach DEN_MAX, where
    # denom ** 2 in the gradient would be inf and the entries NaN.  No
    # numpy warning escapes either call.
    rows = seeded_rng(7).normal(0.0, 140.0, size=(200, 64))
    rep = saturation_fraction(SOFTMAX, dim=64, trials=200,
                              input_scale=140.0, epsilon=1e-4, seed=7)
    entries, skipped = _diag_entries_rows(SOFTMAX, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.exp(rows).sum(axis=1)
    assert np.all(np.isfinite(sums))
    assert rep.skipped_rows == skipped == int((sums >= DEN_MAX).sum()) == 65
    assert rep.sample_count == entries.size == 8640
    assert not np.any(np.isnan(entries))


# Row shapes at unit variance: (rng, size) -> rows.
UNIT_VARIANCE_DRAWS = {
    "normal": lambda rng, size: rng.normal(0.0, 1.0, size),
    "laplace": lambda rng, size: rng.laplace(0.0, 1 / math.sqrt(2), size),
    "t3": lambda rng, size: rng.standard_t(3, size) / math.sqrt(3),
    "uniform": lambda rng, size: rng.uniform(-math.sqrt(3), math.sqrt(3),
                                             size),
}


@pytest.mark.parametrize("seed", range(4))
def test_softmax_saturation_follows_row_shape_at_matched_scale(seed):
    # The paper's first claim with shape apart from scale: 1000 rows of
    # width 64 of each shape at scale 2, the fraction of diagonal entries
    # below 1e-4.  Seeds 0-3 read softmax 0.058-0.059 on normal rows,
    # 0.114-0.123 Laplace, 0.154-0.166 t(3), 0.0047-0.0059 uniform, and
    # at most 0.0084 for the periodic kinds.
    frac = {}
    for shape, draw in UNIT_VARIANCE_DRAWS.items():
        rows = 2.0 * draw(seeded_rng(seed), (1000, 64))
        for kind in (SOFTMAX, SIN_SOFTMAX, SIN2_MAX_SHIFTED):
            entries, _ = _diag_entries_rows(kind, rows)
            frac[kind, shape] = float(np.mean(np.abs(entries) < 1e-4))
    normal = frac[SOFTMAX, "normal"]
    assert frac[SOFTMAX, "laplace"] >= 1.5 * normal
    assert frac[SOFTMAX, "t3"] >= 1.5 * normal
    assert normal >= 5 * frac[SOFTMAX, "uniform"]
    for shape in UNIT_VARIANCE_DRAWS:
        assert frac[SIN_SOFTMAX, shape] < 0.02
        assert frac[SIN2_MAX_SHIFTED, shape] < 0.02


@pytest.mark.parametrize("seed", range(4))
def test_prenorm_leaves_row_shape_driving_softmax_saturation(seed):
    # Prenorm pins the scale, not the shape.  64000 // d rows of width d,
    # whitened, the fraction of diagonal entries below 1e-4.  Seeds 0-3
    # read, at d = 256, softmax on t(3) rows 71-129x its normal-row
    # figure and 4.1-6.8x sin-softmax, 6.8-10.2x sin2-max-shifted on
    # t(3) rows; at d = 64 on normal rows, softmax 0.0000 against at
    # least 0.0057 and 0.0018 for the periodic kinds.
    frac = {}
    for d in (64, 256):
        for shape in ("normal", "t3"):
            rows, _ = whiten_rows(
                UNIT_VARIANCE_DRAWS[shape](seeded_rng(seed), (64000 // d, d)))
            for kind in (SOFTMAX, SIN_SOFTMAX, SIN2_MAX_SHIFTED):
                entries, _ = _diag_entries_rows(kind, rows)
                frac[d, shape, kind] = float(np.mean(np.abs(entries) < 1e-4))
    t3 = frac[256, "t3", SOFTMAX]
    assert t3 >= 20 * frac[256, "normal", SOFTMAX]
    assert t3 >= 2 * frac[256, "t3", SIN_SOFTMAX]
    assert t3 >= 2 * frac[256, "t3", SIN2_MAX_SHIFTED]
    for kind in (SIN_SOFTMAX, SIN2_MAX_SHIFTED):
        assert frac[64, "normal", SOFTMAX] < 0.5 * frac[64, "normal", kind]


@pytest.mark.parametrize("seed", [7, 11])
def test_saturation_memo_is_bitwise_a_fresh_draw(seed):
    # Scales 140 and 300 drop softmax rows whose denominators overflow.
    for scale in (0.01, 8.0, 140.0, 300.0):
        rows = seeded_rng(seed).normal(0.0, scale, size=(200, 64))
        for kind in ALL_KINDS:
            rep = saturation_fraction(kind, dim=64, trials=200,
                                      input_scale=scale, epsilon=1e-4,
                                      seed=seed)
            entries, skipped = _diag_entries_rows(kind, rows)
            frac = (float(np.mean(np.abs(entries) < 1e-4)) if entries.size
                    else 0.0)
            assert (rep.fraction_saturated, rep.sample_count,
                    rep.skipped_rows) == (frac, entries.size, skipped)
            if kind == SOFTMAX:
                assert (skipped > 0) == (scale > 8.0)


def test_saturation_memo_follows_its_arguments():
    kwargs = dict(kind=SIN_SOFTMAX, dim=16, trials=50, input_scale=8.0,
                  epsilon=1e-4)
    first = saturation_fraction(seed=7, **kwargs)
    other = saturation_fraction(seed=8, **kwargs)
    assert other != first
    assert saturation_fraction(seed=7, **kwargs) == first
    assert saturation_fraction(seed=7, **(kwargs | {"trials": 40})) != first
    assert saturation_fraction(seed=7, **kwargs) == first


def test_saturation_memo_is_read_only():
    saturation_fraction(SOFTMAX, dim=16, trials=5, input_scale=8.0,
                        epsilon=1e-4, seed=7)
    for a in analysis._draws(7, 5, 16, 8.0):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
        with pytest.raises(ValueError):
            a *= 1.0


def test_saturation_sweep_draws_and_takes_the_trig_once(monkeypatch):
    trials, dim = 1000, 64
    calls = []
    for name in ("sin", "cos"):
        def spy(x, *args, _name=name, _fn=getattr(np, name), **kwargs):
            if np.size(x) == trials * dim:
                calls.append(_name)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)

    def rng(seed, _fn=analysis.seeded_rng):
        calls.append("draw")
        return _fn(seed)

    monkeypatch.setattr(analysis, "seeded_rng", rng)

    def sweep():
        calls.clear()
        for kind in ALL_KINDS:
            saturation_fraction(kind, dim=dim, trials=trials,
                                input_scale=8.0, epsilon=1e-4, seed=7)
        return sorted(calls)

    analysis._draws.cache_clear()
    # The memo's draw, sin and cos; then sin2-max's f' and
    # sin2-max-shifted's f and f' take the sin of other angles.
    assert sweep() == ["cos", "draw"] + ["sin"] * 4
    assert sweep() == ["sin"] * 3


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


@pytest.mark.parametrize("trials", [5, 37])
def test_submersion_curve_of_many_widths_is_bitwise_the_reference(trials):
    # Unsorted, repeated widths that do not divide each other, and one
    # wider than BLOCK_ELEMENTS: each reads a prefix of the widest draw.
    ds = [1000, 3, 37, 2, 20000, 3]
    assert max(ds) > BLOCK_ELEMENTS
    for seed in (0, 7):
        got = submersion_curve(ds, trials=trials, seed=seed)
        assert np.array_equal(got.x_values, ds)
        want = [ref_submersion(d, trials, seed) for d in ds]
        assert np.array_equal(got.y_values, want)


def _spy_submersion(monkeypatch):
    """Lists the element counts of every normal draw and every np.sin
    call that submersion_curve makes."""
    draws, sins = [], []

    class Rng:
        def __init__(self, seed):
            self.rng = seeded_rng(seed)

        def normal(self, loc, scale, size):
            draws.append(int(np.prod(size)))
            return self.rng.normal(loc, scale, size=size)

    def sin(x, *args, _fn=np.sin, **kwargs):
        sins.append(np.size(x))
        return _fn(x, *args, **kwargs)

    monkeypatch.setattr(analysis, "seeded_rng", Rng)
    monkeypatch.setattr(np, "sin", sin)
    return draws, sins


def test_submersion_curve_draws_and_takes_the_sin_once(monkeypatch):
    draws, sins = _spy_submersion(monkeypatch)
    for trials, ds in ((1000, [4, 16, 64, 256]), (37, [1000, 3, 20000, 3])):
        draws.clear()
        sins.clear()
        submersion_curve(ds, trials=trials, seed=7)
        assert draws == [trials * max(ds)]
        assert sins == [trials * max(ds)]


def test_submersion_curve_of_no_widths_is_empty():
    curve = submersion_curve([])
    assert curve.x_values.size == 0
    assert curve.y_values.size == 0


def test_submersion_curve_rejects_rows_narrower_than_two(monkeypatch):
    draws, sins = _spy_submersion(monkeypatch)
    with pytest.raises(ValueError, match="d >= 2"):
        submersion_curve([4, 1], trials=3)
    assert draws == [] and sins == []


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
    dict(m=math.nan), dict(m=math.inf), dict(m=-math.inf),
    dict(d=1), dict(d=0), dict(var=0.0), dict(var=-1.0), dict(var=math.nan),
    dict(var=math.inf),
], ids=lambda a: "-".join(f"{k}={v}" for k, v in a.items()))
def test_gradient_curves_validate_arguments(args):
    full = dict(m=1.0, x_min=-1.0, x_max=1.0, steps=11, d=16, var=1.0) | args
    with pytest.raises(ValueError):
        prenorm_gradient_curve(SOFTMAX, **full)
    if {"m", "steps", "x_min", "x_max"} >= args.keys():
        with pytest.raises(ValueError):
            gradient_curve(SOFTMAX, full["m"], full["x_min"], full["x_max"],
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
    z = row_normalize(seeded_rng(4).normal(2.0, 3.0, size=32))
    assert z.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.var() == pytest.approx(1.0, rel=1e-12)


def test_row_normalize_rejects_constant_rows():
    with pytest.raises(DegenerateRow):
        row_normalize(np.full(8, 3.5))


def test_row_normalize_jacobian_matches_closed_form():
    x = seeded_rng(6).normal(1.0, 2.0, size=7)
    np.testing.assert_allclose(row_normalize_jacobian(x),
                               ref_whiten_jacobian(x), rtol=0, atol=1e-15)


def test_row_normalize_jacobian_matches_finite_differences():
    x = seeded_rng(5).normal(size=6)
    a = row_normalize_jacobian(x)
    h = 1e-6
    for k in range(6):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        col = (row_normalize(xp) - row_normalize(xm)) / (2.0 * h)
        np.testing.assert_allclose(a[:, k], col, atol=1e-8)


def test_prenormed_scores_are_scale_and_shift_invariant():
    x = seeded_rng(6).normal(size=8)
    a = prenormed_scores(SOFTMAX, x)
    b = prenormed_scores(SOFTMAX, 10.0 * x + 3.0)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_prenormed_jacobian_matches_finite_differences():
    x = seeded_rng(7).normal(size=6)
    a = prenormed_jacobian(SIN_SOFTMAX, x)
    h = 1e-6
    for k in range(6):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        col = (prenormed_scores(SIN_SOFTMAX, xp)
               - prenormed_scores(SIN_SOFTMAX, xm)) / (2.0 * h)
        np.testing.assert_allclose(a[:, k], col, atol=1e-8)
