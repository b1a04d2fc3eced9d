"""Score-function kernels, their guards, and row whitening.

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
# |denominator| at or above this raises NonFiniteDenominator: the
# gradients divide by denom ** 2, which would overflow.
DEN_MAX = math.sqrt(np.finfo(np.float64).max)
EPS_POLE = 1e-6   # (1 - sin x) below this is a Siren-max pole
EPS_VAR = 1e-12   # row variance at or below this raises DegenerateRow

# Smallest 1 - sin(x) treated as distinct from the pole itself.  The
# normalized siren-max score is a smooth rational function of sin(x)
# right through sin(x) = 1, so through_pole=True evaluates it directly; this
# floor only stops the literal 0-divide when sin(x) rounds to 1.0.  A
# nonzero 1 - sin(x) is at least 2**-53, so the floor changes no other
# value.
_SIREN_FLOOR = 1e-30

# Kinds whose scores are invariant under x -> x + 2*pi.
PERIODIC_TAGS = frozenset(
    {"sin-max-constant", "sin-max", "cos-max", "sin2-max",
     "sin2-max-shifted", "sin-softmax", "siren-max"}
)

# The soft-margin kinds score element j as f(x_j - margin) against the
# unshifted f of the other elements of its row.
_MARGIN_TAGS = frozenset({"sm-softmax", "sm-taylor-softmax"})


def _exp(kind, z):
    f = np.exp(z)
    return f, lambda: f


def _taylor(kind, z):
    """Partial sums of the exponential series at z to orders n and n - 1,
    which are f and f' of the order-n Taylor kinds."""
    out = term = np.ones_like(z)
    for i in range(1, kind.taylor_order + 1):
        fp = out
        term = term * z / i
        out = out + term
    return out, lambda: fp


def _sin_softmax(kind, x):
    f = np.exp(np.sin(x))
    return f, lambda: f * np.cos(x)


def _siren(kind, x):
    s = np.sin(x)
    return ((1.0 + s) / np.maximum(2.0 - 2.0 * s, 2.0 * _SIREN_FLOOR),
            lambda: np.cos(x) / np.maximum(1.0 - s, _SIREN_FLOOR) ** 2)


# tag -> (kind, z) |-> (f(z), thunk for f'(z)), elementwise and unguarded.
# The thunk reuses what f and f' share, so a backward pass that needs f'
# does not recompute it.
_F_FP = {
    "softmax": _exp,
    "taylor-softmax": _taylor,
    "sm-softmax": _exp,
    "sm-taylor-softmax": _taylor,
    "sin-max-constant": lambda k, x: (1.0 + np.sin(x), lambda: np.cos(x)),
    "sin-max": lambda k, x: (np.sin(x), lambda: np.cos(x)),
    "cos-max": lambda k, x: (np.cos(x), lambda: -np.sin(x)),
    "sin2-max": lambda k, x: (np.sin(x) ** 2, lambda: np.sin(2.0 * x)),
    "sin2-max-shifted": lambda k, x: (
        np.sin(x + k.phase) ** 2, lambda: np.sin(2.0 * (x + k.phase))),
    "sin-softmax": _sin_softmax,
    "siren-max": _siren,
}


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


class NonFiniteDenominator(ScoreError):
    pass


class DegenerateRow(ScoreError):
    """A row to be whitened has (near-)zero variance."""


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
        if self.tag not in _F_FP:
            raise ValueError(f"unknown score-function tag {self.tag!r}")
        if _F_FP[self.tag] is _taylor and self.taylor_order < 1:
            raise ValueError("taylor_order must be a positive integer")
        if self.tag in _MARGIN_TAGS and self.margin < 0:
            raise ValueError("margin must be >= 0")


ALL_KINDS = tuple(ScoreFunctionKind(tag) for tag in _F_FP)
(SOFTMAX, TAYLOR_SOFTMAX, SM_SOFTMAX, SM_TAYLOR_SOFTMAX, SIN_MAX_CONSTANT,
 SIN_MAX, COS_MAX, SIN2_MAX, SIN2_MAX_SHIFTED, SIN_SOFTMAX,
 SIREN_MAX) = ALL_KINDS


@dataclass
class ScoreEval:
    """One row's evaluation: intermediates f(x_i), their sum, scores S_j."""

    intermediates: np.ndarray
    sum: float
    scores: np.ndarray


@dataclass
class JacobianMatrix:
    """Dense d x d matrix with entries[j, k] = dS_j/dx_k."""

    entries: np.ndarray


def seeded_rng(seed):
    """Counter-based generator: one stream per seed on every platform."""
    return np.random.Generator(np.random.Philox(key=seed))


def f_and_fp(kind, x):
    """f(x) and a thunk for f'(x), elementwise, with no guard checks.

    For the soft-margin kinds this is the scored element's f(x - margin).
    """
    z = x - kind.margin if kind.tag in _MARGIN_TAGS else x
    return _F_FP[kind.tag](kind, z)


def pole_mask(kind, x):
    """True where the intermediate itself is invalid (Siren-max pole)."""
    if kind.tag == "siren-max":
        return (1.0 - np.sin(x)) < EPS_POLE
    return np.zeros(np.shape(x), dtype=bool)


def _check_finite(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        bad = int(np.argmax(~np.isfinite(np.ravel(x))))
        raise NonFiniteInput(f"non-finite input at flat index {bad}",
                             index=bad, value=float(np.ravel(x)[bad]))
    return x


def denom_ok(denom):
    """True where EPS_DEN <= |denom| < DEN_MAX (so NaN is rejected)."""
    a = np.abs(denom)
    return (a >= EPS_DEN) & (a < DEN_MAX)


def check_denominators(denom):
    """Raise at the first denominator denom_ok() rejects.  A NaN fails
    the min() test; the mask is built only when the guard fires."""
    a = np.abs(denom)
    if not (a.min() >= EPS_DEN and a.max() < DEN_MAX):
        bad = int(np.argmin(denom_ok(denom)))
        value = float(np.ravel(denom)[bad])
        cls = (DenominatorNearZero if abs(value) < EPS_DEN
               else NonFiniteDenominator)
        raise cls(f"denominator {value} at index {bad}: need "
                  f"{EPS_DEN} <= |denom| < {DEN_MAX}",
                  index=bad, value=value)


def _check_pole(kind, x):
    if kind.tag != "siren-max":
        return
    mask = pole_mask(kind, x)
    if np.any(mask):
        bad = int(np.argmax(np.ravel(mask)))
        raise PoleProximity(
            f"siren-max pole: 1 - sin(x) < {EPS_POLE} at flat index {bad}",
            index=bad, value=float(np.ravel(x)[bad]))


class ScoreRows:
    """Scores of one kind along the last axis of x, and their VJP.

    The row terms: num[j] = f(x_j) (at x_j - margin for the soft-margin
    kinds), off[j] the unshifted f(x_j) that element j adds to the other
    elements' denominators, total = sum_i off[i], and the per-element
    denominator denom[j] = total - off[j] + num[j] = M_j + num[j], where
    M_j is the off-sum of the other elements.

    Construction rejects non-finite inputs, and siren-max inputs within
    EPS_POLE of the pole unless through_pole, which evaluates them (see
    _SIREN_FLOOR) as the training path needs.  scores() runs
    check_denominators() on denom.
    """

    def __init__(self, kind, x, through_pole=False):
        x = _check_finite(x)
        if not through_pole:
            _check_pole(kind, x)
        # An f that overflows leaves an inf or NaN denominator, which
        # scores() and the callers of check_denominators() reject; numpy's
        # warnings on the way there would only repeat that.
        with np.errstate(over="ignore", invalid="ignore"):
            self.num, self._fp = f_and_fp(kind, x)
            if kind.tag in _MARGIN_TAGS:
                self.off, self._offp = _F_FP[kind.tag](kind, x)
            else:
                self.off, self._offp = self.num, None
            self.total = self.off.sum(axis=-1, keepdims=True)
            self.denom = self.total - self.off + self.num

    def scores(self):
        """S_j = num[j] / denom[j]."""
        check_denominators(self.denom)
        return self.num / self.denom

    def diag(self):
        """Diagonal gradient dS_j/dx_j = M_j f'(x_j) / (M_j + f(x_j))^2."""
        return (self.denom - self.num) * self._fp() / self.denom ** 2

    def vjp(self, g):
        """Gradient of sum(g * S) with respect to x; g broadcasts against
        the rows, so g = I gives the rows of a 1-d input's Jacobian."""
        num, denom = self.num, self.denom
        nump = self._fp()
        offp = nump if self._offp is None else self._offp()
        denom2 = denom ** 2
        gnum = g * num / denom2
        a = gnum.sum(axis=-1, keepdims=True)
        return g * nump * (denom - num) / denom2 - offp * (a - gnum)


def _row(x, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} requires a 1-d input with dim >= 2")
    return x


def _rows(x, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise ValueError(f"{name} requires rows of dim >= 2 along the "
                         f"last axis")
    return x


def scores(kind, x):
    """Normalized scores S_j = f(x_j) / sum_i f(x_i) for one row."""
    rows = ScoreRows(kind, _row(x, "scores"))
    return ScoreEval(intermediates=rows.num, sum=float(rows.total[0]),
                     scores=rows.scores())


def jacobian(kind, x):
    """Analytic Jacobian dS_j/dx_k of each row of x, as the VJP of each
    unit cotangent.

    x is one row of shape (d,) or a stack (..., d); entries has shape
    (..., d, d), the Jacobian of row x[i] at entries[i], and each row's
    Jacobian is bitwise the one its 1-d call gives.  A guard failure in
    any row raises, with a flat index into the stack.

    Diagonal: M_j * f'(x_j) / (M_j + f(x_j))^2 with M_j the off-sum;
    off-diagonal from the quotient rule.
    """
    x = _rows(x, "jacobian")
    rows = ScoreRows(kind, x[..., None, :])
    check_denominators(rows.denom)
    return JacobianMatrix(entries=rows.vjp(np.eye(x.shape[-1])))


def finite_diff_jacobian(kind, x, h=1e-5):
    """Central-difference Jacobian, the independent oracle for jacobian().

    x is one row (d,) or a stack (..., d), with entries of shape
    (..., d, d) as in jacobian().  When a row's normalization is
    near-singular (scores far outside [0, 1], e.g. sin-max with a small
    denominator) the base step would leave visible truncation error, so
    each row's step shrinks with 1/max|S| of that row.  The 2d perturbed
    rows of every row in the stack are scored as one batch, and the same
    guards apply to them as to x.
    """
    x = _rows(x, "finite_diff_jacobian")
    s = ScoreRows(kind, x).scores()
    h = h / np.maximum(1.0, np.abs(s).max(axis=-1))[..., None, None]
    d = x.shape[-1]
    steps = h * np.eye(d)
    x = x[..., None, :]
    s = ScoreRows(kind, np.concatenate([x + steps, x - steps], axis=-2)
                  ).scores()
    return JacobianMatrix(
        entries=(s[..., :d, :] - s[..., d:, :]).swapaxes(-1, -2) / (2.0 * h))


def whiten_rows(x):
    """(z, sigma): z = (x - mean) / sigma along the last axis, sigma the
    population std.  DegenerateRow at the first row (flat row index)
    whose variance is <= EPS_VAR, with that variance as its value."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    if np.any(var <= EPS_VAR):
        bad = int(np.argmax(np.ravel(var <= EPS_VAR)))
        value = float(np.ravel(var)[bad])
        raise DegenerateRow(f"row {bad} variance {value} <= {EPS_VAR}",
                            index=bad, value=value)
    sigma = np.sqrt(var)
    return (x - mu) / sigma, sigma


def whiten_vjp(z, sigma, g):
    """Gradient of sum(g * z) in x, for (z, sigma) = whiten_rows(x); g = I
    gives a row's Jacobian (I - 11^T/d - z z^T/d) / sigma."""
    return (g - g.mean(axis=-1, keepdims=True)
            - z * (g * z).mean(axis=-1, keepdims=True)) / sigma
