"""Score-function kernels.

A score function maps a real vector x to a probability-like vector via
S_j = f(x_j) / sum_i f(x_i).  Softmax is the special case f = exp; the
periodic kinds replace exp by bounded trigonometric maps so the input
never leaves the region where f' is useful.

Everything here is a pure function of its arguments, computed in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_DEN = 1e-8    # |denominator| below this raises DenominatorNearZero
EPS_POLE = 1e-6   # (1 - sin x) below this is a Siren-max pole

_TAGS = (
    "softmax",
    "taylor-softmax",
    "sm-softmax",
    "sm-taylor-softmax",
    "sin-max-constant",
    "sin-max",
    "cos-max",
    "sin2-max",
    "sin2-max-shifted",
    "sin-softmax",
    "siren-max",
)

# Kinds whose scores are invariant under x -> x + 2*pi.
PERIODIC_TAGS = frozenset(
    {"sin-max-constant", "sin-max", "cos-max", "sin2-max",
     "sin2-max-shifted", "sin-softmax", "siren-max"}
)


class ScoreError(ValueError):
    """Base class for guard failures inside score-function evaluation."""

    def __init__(self, message, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


class NonFiniteInput(ScoreError):
    pass


class DenominatorNearZero(ScoreError):
    pass


class PoleProximity(ScoreError):
    pass


@dataclass(frozen=True)
class ScoreFunctionKind:
    """Tagged choice of one of the eleven score functions.

    taylor_order applies to the Taylor kinds, margin to the soft-margin
    kinds, phase to sin2-max-shifted.  Unused parameters are ignored.
    """

    tag: str
    taylor_order: int = 2
    margin: float = 0.0
    phase: float = math.pi / 4

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown score-function tag {self.tag!r}")
        if self.tag in ("taylor-softmax", "sm-taylor-softmax"):
            if self.taylor_order < 1:
                raise ValueError("taylor_order must be a positive integer")
        if self.tag in ("sm-softmax", "sm-taylor-softmax"):
            if self.margin < 0:
                raise ValueError("margin must be >= 0")

    @property
    def name(self):
        return self.tag


SOFTMAX = ScoreFunctionKind("softmax")
TAYLOR_SOFTMAX = ScoreFunctionKind("taylor-softmax")
SM_SOFTMAX = ScoreFunctionKind("sm-softmax")
SM_TAYLOR_SOFTMAX = ScoreFunctionKind("sm-taylor-softmax")
SIN_MAX_CONSTANT = ScoreFunctionKind("sin-max-constant")
SIN_MAX = ScoreFunctionKind("sin-max")
COS_MAX = ScoreFunctionKind("cos-max")
SIN2_MAX = ScoreFunctionKind("sin2-max")
SIN2_MAX_SHIFTED = ScoreFunctionKind("sin2-max-shifted")
SIN_SOFTMAX = ScoreFunctionKind("sin-softmax")
SIREN_MAX = ScoreFunctionKind("siren-max")

ALL_KINDS = (
    SOFTMAX, TAYLOR_SOFTMAX, SM_SOFTMAX, SM_TAYLOR_SOFTMAX,
    SIN_MAX_CONSTANT, SIN_MAX, COS_MAX, SIN2_MAX, SIN2_MAX_SHIFTED,
    SIN_SOFTMAX, SIREN_MAX,
)


def kind_from_name(name, taylor_order=2, margin=0.0, phase=math.pi / 4):
    """Build a kind from its kebab-case CLI name."""
    return ScoreFunctionKind(name, taylor_order=taylor_order,
                             margin=margin, phase=phase)


@dataclass
class ScoreEval:
    """One row's evaluation: intermediates f(x_i), their sum, scores S_j."""

    intermediates: np.ndarray
    sum: float
    scores: np.ndarray
    dim: int


@dataclass
class JacobianMatrix:
    """Dense d x d matrix with entries[j, k] = dS_j/dx_k."""

    entries: np.ndarray
    dim: int


def _taylor_poly(x, n):
    out = np.ones_like(x)
    term = np.ones_like(x)
    for i in range(1, n + 1):
        term = term * x / i
        out = out + term
    return out


def _raw_f(kind, x):
    """Intermediate f(x), no guard checks.  Vectorized."""
    tag = kind.tag
    if tag == "softmax":
        return np.exp(x)
    if tag == "taylor-softmax":
        return _taylor_poly(x, kind.taylor_order)
    if tag == "sm-softmax":
        return np.exp(x - kind.margin)
    if tag == "sm-taylor-softmax":
        return _taylor_poly(x - kind.margin, kind.taylor_order)
    if tag == "sin-max-constant":
        return 1.0 + np.sin(x)
    if tag == "sin-max":
        return np.sin(x)
    if tag == "cos-max":
        return np.cos(x)
    if tag == "sin2-max":
        return np.sin(x) ** 2
    if tag == "sin2-max-shifted":
        return np.sin(x + kind.phase) ** 2
    if tag == "sin-softmax":
        return np.exp(np.sin(x))
    if tag == "siren-max":
        s = np.sin(x)
        return (1.0 + s) / (2.0 - 2.0 * s)
    raise AssertionError(tag)


def _raw_fp(kind, x):
    """Derivative f'(x), no guard checks.  Vectorized."""
    tag = kind.tag
    if tag == "softmax":
        return np.exp(x)
    if tag == "taylor-softmax":
        return _taylor_poly(x, kind.taylor_order - 1) if kind.taylor_order >= 1 \
            else np.zeros_like(x)
    if tag == "sm-softmax":
        return np.exp(x - kind.margin)
    if tag == "sm-taylor-softmax":
        n = kind.taylor_order
        z = x - kind.margin
        return _taylor_poly(z, n - 1) if n >= 1 else np.zeros_like(z)
    if tag == "sin-max-constant":
        return np.cos(x)
    if tag == "sin-max":
        return np.cos(x)
    if tag == "cos-max":
        return -np.sin(x)
    if tag == "sin2-max":
        return np.sin(2.0 * x)
    if tag == "sin2-max-shifted":
        return np.sin(2.0 * (x + kind.phase))
    if tag == "sin-softmax":
        return np.exp(np.sin(x)) * np.cos(x)
    if tag == "siren-max":
        s = np.sin(x)
        return np.cos(x) / (1.0 - s) ** 2
    raise AssertionError(tag)


def pole_mask(kind, x):
    """True where the intermediate itself is invalid (Siren-max pole)."""
    if kind.tag == "siren-max":
        return (1.0 - np.sin(x)) < EPS_POLE
    return np.zeros(np.shape(x), dtype=bool)


# The soft-margin kinds apply the margin only to the element being scored;
# the other elements of the row enter the denominator unshifted.
def _is_margin_kind(kind):
    return kind.tag in ("sm-softmax", "sm-taylor-softmax")


def _off_kind(kind):
    if kind.tag == "sm-softmax":
        return SOFTMAX
    if kind.tag == "sm-taylor-softmax":
        return ScoreFunctionKind("taylor-softmax", taylor_order=kind.taylor_order)
    return kind


def _check_finite(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        bad = int(np.argmax(~np.isfinite(np.ravel(x))))
        raise NonFiniteInput(f"non-finite input at flat index {bad}",
                             index=bad, value=float(np.ravel(x)[bad]))
    return x


def _check_pole(kind, x):
    mask = pole_mask(kind, x)
    if np.any(mask):
        bad = int(np.argmax(np.ravel(mask)))
        raise PoleProximity(
            f"siren-max pole: 1 - sin(x) < {EPS_POLE} at flat index {bad}",
            index=bad, value=float(np.ravel(x)[bad]))


def intermediate(kind, x):
    """f(x) for a scalar input, per the kind's definition."""
    x = _check_finite(x)
    _check_pole(kind, x)
    return float(_raw_f(kind, np.float64(x)))


def intermediate_derivative(kind, x):
    """f'(x) for a scalar input."""
    x = _check_finite(x)
    _check_pole(kind, x)
    return float(_raw_fp(kind, np.float64(x)))


def _row_pieces(kind, x):
    """Per-row numerator f, off-element f, and per-element denominators.

    For the shared-f kinds the denominator is the same for every j; for
    the soft-margin kinds element j is scored as f(x_j - m) against the
    unshifted sum of the others, so the denominator varies with j.
    """
    num = _raw_f(kind, x)
    if _is_margin_kind(kind):
        off = _raw_f(_off_kind(kind), x)
    else:
        off = num
    denom = off.sum() - off + num
    return num, off, denom


def scores(kind, x):
    """Normalized scores S_j = f(x_j) / sum_i f(x_i) for one row."""
    x = _check_finite(x)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("scores requires a 1-d input with dim >= 2")
    _check_pole(kind, x)
    num, off, denom = _row_pieces(kind, x)
    small = np.abs(denom) < EPS_DEN
    if np.any(small):
        bad = int(np.argmax(small))
        raise DenominatorNearZero(
            f"|sum f(x)| < {EPS_DEN} at index {bad}",
            index=bad, value=float(denom[bad]))
    return ScoreEval(intermediates=num, sum=float(off.sum()),
                     scores=num / denom, dim=x.size)


def jacobian(kind, x):
    """Analytic Jacobian dS_j/dx_k for one row.

    Diagonal: M_j * f'(x_j) / (M_j + f(x_j))^2 with M_j the off-sum;
    off-diagonal from the quotient rule.
    """
    x = _check_finite(x)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("jacobian requires a 1-d input with dim >= 2")
    _check_pole(kind, x)
    num, off, denom = _row_pieces(kind, x)
    small = np.abs(denom) < EPS_DEN
    if np.any(small):
        bad = int(np.argmax(small))
        raise DenominatorNearZero(
            f"|sum f(x)| < {EPS_DEN} at index {bad}",
            index=bad, value=float(denom[bad]))
    nump = _raw_fp(kind, x)
    if _is_margin_kind(kind):
        offp = _raw_fp(_off_kind(kind), x)
    else:
        offp = nump
    m = denom - num
    entries = -np.outer(num / denom ** 2, offp)
    entries[np.diag_indices_from(entries)] = m * nump / denom ** 2
    return JacobianMatrix(entries=entries, dim=x.size)


def finite_diff_jacobian(kind, x, h=1e-5):
    """Central-difference Jacobian, the independent oracle for jacobian().

    When the normalization is near-singular (scores far outside [0, 1],
    e.g. sin-max with a small denominator) the base step would leave
    visible truncation error, so the step shrinks with 1/max|S|.
    """
    x = _check_finite(x)
    d = x.size
    h = h / max(1.0, float(np.abs(scores(kind, x).scores).max()))
    entries = np.empty((d, d))
    for k in range(d):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        entries[:, k] = (scores(kind, xp).scores - scores(kind, xm).scores) / (2.0 * h)
    return JacobianMatrix(entries=entries, dim=d)
