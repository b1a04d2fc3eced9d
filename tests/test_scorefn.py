"""Unit tests for the score-function kernels."""

import math
import warnings

import numpy as np
import pytest

from periscore import scorefn
from periscore.analysis import cosmax_extremum_interval
from periscore.scorefn import (
    ALL_KINDS,
    EPS_DEN,
    EPS_POLE,
    EPS_VAR,
    SIN2_MAX,
    SIN2_MAX_SHIFTED,
    SIN_MAX,
    SIN_MAX_CONSTANT,
    SIREN_MAX,
    SM_SOFTMAX,
    SOFTMAX,
    TAYLOR_SOFTMAX,
    DegenerateRow,
    DenominatorNearZero,
    NonFiniteDenominator,
    NonFiniteInput,
    PoleProximity,
    ScoreError,
    ScoreFunctionKind,
    ScoreRows,
    f_and_fp,
    finite_diff_jacobian,
    jacobian,
    pole_mask,
    scores,
    whiten_rows,
)

from score_reference import (
    EXTRA_KINDS,
    kind_id,
    ref_f,
    ref_fp,
    ref_jacobian,
    ref_terms,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# -- kind construction -------------------------------------------------


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        ScoreFunctionKind("warp-max")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ScoreFunctionKind("taylor-softmax", taylor_order=0)
    with pytest.raises(ValueError):
        ScoreFunctionKind("sm-softmax", margin=-0.5)


def test_taylor_order_is_checked_on_both_taylor_kinds_only():
    with pytest.raises(ValueError):
        ScoreFunctionKind("sm-taylor-softmax", taylor_order=0)
    for kind in ALL_KINDS:
        if kind.tag not in ("taylor-softmax", "sm-taylor-softmax"):
            ScoreFunctionKind(kind.tag, taylor_order=0)


@pytest.mark.parametrize("name, tag", [
    ("SOFTMAX", "softmax"),
    ("TAYLOR_SOFTMAX", "taylor-softmax"),
    ("SM_SOFTMAX", "sm-softmax"),
    ("SM_TAYLOR_SOFTMAX", "sm-taylor-softmax"),
    ("SIN_MAX_CONSTANT", "sin-max-constant"),
    ("SIN_MAX", "sin-max"),
    ("COS_MAX", "cos-max"),
    ("SIN2_MAX", "sin2-max"),
    ("SIN2_MAX_SHIFTED", "sin2-max-shifted"),
    ("SIN_SOFTMAX", "sin-softmax"),
    ("SIREN_MAX", "siren-max"),
])
def test_named_kind_is_the_all_kinds_entry_of_its_tag(name, tag):
    [kind] = [k for k in ALL_KINDS if k.tag == tag]
    assert getattr(scorefn, name) is kind
    assert kind == ScoreFunctionKind(tag)  # default parameters


# -- intermediate values -----------------------------------------------


def _f(kind, x):
    return f_and_fp(kind, np.float64(x))[0]


def _fp(kind, x):
    return f_and_fp(kind, np.float64(x))[1]()


def test_intermediate_known_points():
    assert _f(SOFTMAX, 1.0) == pytest.approx(math.e)
    assert _f(SIN_MAX_CONSTANT, 0.0) == pytest.approx(1.0)
    assert _f(SIREN_MAX, 0.0) == pytest.approx(0.5)
    assert _f(SIN2_MAX, math.pi / 2) == pytest.approx(1.0)
    # order-2 Taylor polynomial 1 + x + x^2/2 at x = 2
    assert _f(TAYLOR_SOFTMAX, 2.0) == pytest.approx(5.0)


def test_intermediate_derivative_known_points():
    assert _fp(SOFTMAX, 0.0) == pytest.approx(1.0)
    assert _fp(SIN_MAX, 0.0) == pytest.approx(1.0)
    # d/dx sin^2(x) = sin(2x)
    assert _fp(SIN2_MAX, 0.3) == pytest.approx(math.sin(0.6))


@pytest.mark.parametrize("kind", ALL_KINDS + tuple(EXTRA_KINDS.values()),
                         ids=kind_id)
def test_kind_table_is_bitwise_the_reference(kind):
    x = _rng(21).normal(0.0, 2.0, size=(60, 7))
    x = x[~pole_mask(kind, x).any(axis=1)]
    f, fp = f_and_fp(kind, x)
    assert np.array_equal(f, ref_f(kind, x))
    assert np.array_equal(fp(), ref_fp(kind, x))
    assert _f(kind, x[0, 0]) == ref_f(kind, x[0, 0])
    assert _fp(kind, x[0, 0]) == ref_fp(kind, x[0, 0])
    checked = 0
    for row in x:
        num, _, off, _, denom = ref_terms(kind, row)
        if np.any(np.abs(denom) < EPS_DEN):
            with pytest.raises(DenominatorNearZero):
                scores(kind, row)
            continue
        ev = scores(kind, row)
        assert np.array_equal(ev.intermediates, num)
        assert ev.sum == off.sum()
        assert np.array_equal(ev.scores, num / denom)
        assert np.array_equal(jacobian(kind, row).entries,
                              ref_jacobian(kind, row))
        checked += 1
    assert checked >= 40


def test_shifted_kind_is_plain_kind_at_shifted_argument():
    kind = ScoreFunctionKind("sin2-max-shifted", phase=0.7)
    assert _f(kind, 1.1) == _f(SIN2_MAX, 1.8)


# -- normalized scores -------------------------------------------------


def test_softmax_scores_match_direct_formula():
    x = np.array([0.1, -1.2, 2.0, 0.4])
    ev = scores(SOFTMAX, x)
    expected = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(ev.scores, expected, rtol=1e-14)
    assert ev.scores.shape == (4,)
    assert ev.sum == pytest.approx(np.exp(x).sum())


def test_scores_requires_a_row():
    with pytest.raises(ValueError):
        scores(SOFTMAX, np.array([1.0]))
    with pytest.raises(ValueError):
        scores(SOFTMAX, np.ones((2, 2)))


def test_margin_kind_with_zero_margin_matches_plain():
    x = _rng(0).normal(size=6)
    np.testing.assert_array_equal(scores(SM_SOFTMAX, x).scores,
                                  scores(SOFTMAX, x).scores)


def test_margin_kind_scores_each_element_against_unshifted_rest():
    kind = ScoreFunctionKind("sm-softmax", margin=1.5)
    x = _rng(1).normal(size=5)
    ev = scores(kind, x)
    e = np.exp(x)
    for j in range(5):
        num = math.exp(x[j] - 1.5)
        denom = e.sum() - e[j] + num
        assert ev.scores[j] == pytest.approx(num / denom, rel=1e-14)
    # The margin suppresses every element relative to the plain case.
    assert np.all(ev.scores < scores(SOFTMAX, x).scores)


# -- guards ------------------------------------------------------------


def test_non_finite_input_raises():
    with pytest.raises(NonFiniteInput):
        scores(SOFTMAX, np.array([0.0, np.nan]))
    with pytest.raises(NonFiniteInput):
        ScoreRows(SOFTMAX, np.array([[0.0, 1.0], [np.inf, 0.0]]))


def test_near_zero_denominator_raises():
    # sin(x) + sin(-x) = 0 exactly.
    with pytest.raises(DenominatorNearZero):
        scores(SIN_MAX, np.array([0.7, -0.7]))


@pytest.mark.parametrize("kind, x, bad", [
    (SOFTMAX, [800.0, 0.0], math.nan),
    (TAYLOR_SOFTMAX, [1e200, 0.0], math.nan),
    (SOFTMAX, [709.0, 709.0, 709.0], math.inf),
    (SOFTMAX, [460.0, 460.0], 2.0 * math.exp(460.0)),
], ids=["softmax-800", "taylor-softmax-1e200", "softmax-sum-overflows",
        "softmax-460-square-overflows"])
def test_overflowing_f_raises_non_finite_denominator(kind, x, bad):
    # Where f(x_0) overflows, denom[0] = inf - inf + inf is NaN; where only
    # the row sum overflows, every denominator is inf and every score 0.
    # At x = 460 the denominators are finite, but denom ** 2 in the
    # gradient overflows and the Jacobian would be NaN.  A plain
    # |denom| < EPS_DEN test fires on none of these.
    for fn in (scores, jacobian):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteDenominator) as exc:
            fn(kind, np.array(x))
        assert exc.value.index == 0
        assert np.array_equal(exc.value.value, bad, equal_nan=True)


def test_overflowing_f_raises_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDenominator):
            scores(SOFTMAX, [800.0, 0.0])


def test_siren_pole_raises_and_is_flagged():
    x = np.array([0.1, math.pi / 2])
    assert pole_mask(SIREN_MAX, x).tolist() == [False, True]
    with pytest.raises(PoleProximity):
        scores(SIREN_MAX, x)
    rows = np.array([[0.1, 0.2], [math.pi / 2, 0.0]])
    with pytest.raises(PoleProximity) as exc:
        ScoreRows(SIREN_MAX, rows)
    assert exc.value.index == 2 and exc.value.value == math.pi / 2
    # The training path evaluates through the pole instead.
    assert np.all(np.isfinite(ScoreRows(SIREN_MAX, rows,
                                        through_pole=True).scores()))
    # Just outside the guard window evaluation succeeds.
    edge = math.pi / 2 - math.sqrt(2.1 * EPS_POLE)
    assert not pole_mask(SIREN_MAX, np.array([edge]))[0]


def test_degenerate_row_is_a_score_error_at_the_first_flat_row():
    x = _rng(23).normal(size=(2, 3, 4))
    x[1, 1] = 0.25    # flat row 4
    x[1, 2, :2] = x[1, 2, 2:] = 1.5    # flat row 5, also degenerate
    with pytest.raises(ScoreError) as exc:
        whiten_rows(x)
    assert isinstance(exc.value, DegenerateRow)
    assert exc.value.index == 4
    assert 0.0 <= exc.value.value <= EPS_VAR


def test_guard_errors_carry_location():
    with pytest.raises(DenominatorNearZero) as exc:
        scores(SIN_MAX, np.array([0.7, -0.7]))
    assert exc.value.index == 0
    assert exc.value.value == pytest.approx(0.0, abs=1e-12)
    # Every site in scorefn and analysis that raises a ScoreError, one
    # trigger each: each error carries the value that tripped the guard.
    triggers = [
        (NonFiniteInput, lambda: scores(SOFTMAX, np.array([0.0, np.nan]))),
        (DenominatorNearZero, lambda: jacobian(SIN_MAX, [0.7, -0.7])),
        (NonFiniteDenominator, lambda: scores(SOFTMAX, [460.0, 460.0])),
        (PoleProximity, lambda: scores(SIREN_MAX, [0.1, math.pi / 2])),
        (DegenerateRow, lambda: whiten_rows(np.ones((2, 3)))),
        (PoleProximity, lambda: cosmax_extremum_interval(-1.0)),
    ]
    for cls, trigger in triggers:
        with pytest.raises(cls) as exc:
            trigger()
        assert exc.value.value is not None, cls.__name__
    assert ({cls for cls, _ in triggers}
            == set(ScoreError.__subclasses__()))


# -- Jacobians ---------------------------------------------------------


def test_softmax_jacobian_closed_form():
    x = np.array([0.3, -0.5, 1.1])
    s = scores(SOFTMAX, x).scores
    expected = np.diag(s) - np.outer(s, s)
    np.testing.assert_allclose(jacobian(SOFTMAX, x).entries, expected,
                               atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.tag)
def test_jacobian_matches_finite_differences(kind):
    rng = _rng(9)
    checked = 0
    while checked < 5:
        x = rng.normal(size=6)
        try:
            a = jacobian(kind, x).entries
        except (DenominatorNearZero, PoleProximity):
            continue
        f = finite_diff_jacobian(kind, x).entries
        scale = max(np.abs(f).max(), np.abs(a).max(), 1.0)
        assert np.abs(a - f).max() / scale < 1e-6
        checked += 1


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.tag)
def test_stacked_jacobians_are_bitwise_the_row_calls(kind):
    # For sin-max, 4 of these rows have max|S| > 1, so the stack mixes
    # finite-difference steps.
    xs = _rng(4).normal(size=(8, 6))
    for fn in (jacobian, finite_diff_jacobian):
        want = np.stack([fn(kind, x).entries for x in xs])
        assert np.array_equal(fn(kind, xs).entries, want)
        assert np.array_equal(fn(kind, xs.reshape(2, 4, 6)).entries,
                              want.reshape(2, 4, 6, 6))


def test_stacked_jacobian_guard_names_the_flat_index():
    # sin(0.7) + sin(-0.7) = 0 in the second row.
    xs = np.array([[0.3, 0.5], [0.7, -0.7]])
    for fn in (jacobian, finite_diff_jacobian):
        with pytest.raises(DenominatorNearZero) as exc:
            fn(SIN_MAX, xs)
        assert exc.value.index == 2
    with pytest.raises(ValueError):
        jacobian(SOFTMAX, np.ones((3, 1)))


def test_jacobian_with_margin_matches_finite_differences():
    kind = ScoreFunctionKind("sm-taylor-softmax", taylor_order=3, margin=0.8)
    x = _rng(2).normal(size=5)
    a = jacobian(kind, x).entries
    f = finite_diff_jacobian(kind, x).entries
    assert np.abs(a - f).max() < 1e-7


def test_periodic_kinds_are_periodic():
    x = _rng(3).normal(size=4)
    for kind in (SIN_MAX, SIN2_MAX, SIN2_MAX_SHIFTED, SIREN_MAX):
        a = scores(kind, x).scores
        b = scores(kind, x + 2.0 * math.pi).scores
        np.testing.assert_allclose(a, b, atol=1e-12)
