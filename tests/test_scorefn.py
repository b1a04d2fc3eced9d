"""Unit tests for the score-function kernels."""

import math

import numpy as np
import pytest

from periscore.scorefn import (
    ALL_KINDS,
    EPS_DEN,
    EPS_POLE,
    SIN2_MAX,
    SIN2_MAX_SHIFTED,
    SIN_MAX,
    SIN_MAX_CONSTANT,
    SIREN_MAX,
    SM_SOFTMAX,
    SOFTMAX,
    TAYLOR_SOFTMAX,
    DenominatorNearZero,
    NonFiniteInput,
    PoleProximity,
    ScoreFunctionKind,
    f_and_fp,
    finite_diff_jacobian,
    intermediate,
    intermediate_derivative,
    jacobian,
    pole_mask,
    scores,
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


# -- intermediate values -----------------------------------------------


def test_intermediate_known_points():
    assert intermediate(SOFTMAX, 1.0) == pytest.approx(math.e)
    assert intermediate(SIN_MAX_CONSTANT, 0.0) == pytest.approx(1.0)
    assert intermediate(SIREN_MAX, 0.0) == pytest.approx(0.5)
    assert intermediate(SIN2_MAX, math.pi / 2) == pytest.approx(1.0)
    # order-2 Taylor polynomial 1 + x + x^2/2 at x = 2
    assert intermediate(TAYLOR_SOFTMAX, 2.0) == pytest.approx(5.0)


def test_intermediate_derivative_known_points():
    assert intermediate_derivative(SOFTMAX, 0.0) == pytest.approx(1.0)
    assert intermediate_derivative(SIN_MAX, 0.0) == pytest.approx(1.0)
    # d/dx sin^2(x) = sin(2x)
    assert intermediate_derivative(SIN2_MAX, 0.3) == pytest.approx(
        math.sin(0.6))


@pytest.mark.parametrize("kind", ALL_KINDS + tuple(EXTRA_KINDS.values()),
                         ids=kind_id)
def test_kind_table_is_bitwise_the_reference(kind):
    x = _rng(21).normal(0.0, 2.0, size=(60, 7))
    x = x[~pole_mask(kind, x).any(axis=1)]
    f, fp = f_and_fp(kind, x)
    assert np.array_equal(f, ref_f(kind, x))
    assert np.array_equal(fp(), ref_fp(kind, x))
    assert intermediate(kind, x[0, 0]) == ref_f(kind, x[0, 0])
    assert intermediate_derivative(kind, x[0, 0]) == ref_fp(kind, x[0, 0])
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
    assert intermediate(kind, 1.1) == intermediate(SIN2_MAX, 1.8)


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
        intermediate(SOFTMAX, np.inf)


def test_near_zero_denominator_raises():
    # sin(x) + sin(-x) = 0 exactly.
    with pytest.raises(DenominatorNearZero):
        scores(SIN_MAX, np.array([0.7, -0.7]))


def test_siren_pole_raises_and_is_flagged():
    x = np.array([0.1, math.pi / 2])
    assert pole_mask(SIREN_MAX, x).tolist() == [False, True]
    with pytest.raises(PoleProximity):
        scores(SIREN_MAX, x)
    with pytest.raises(PoleProximity):
        intermediate(SIREN_MAX, math.pi / 2)
    # Just outside the guard window evaluation succeeds.
    edge = math.pi / 2 - math.sqrt(2.1 * EPS_POLE)
    assert not pole_mask(SIREN_MAX, np.array([edge]))[0]


def test_guard_errors_carry_location():
    try:
        scores(SIN_MAX, np.array([0.7, -0.7]))
    except DenominatorNearZero as err:
        assert err.index == 0
        assert err.value == pytest.approx(0.0, abs=1e-12)


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
