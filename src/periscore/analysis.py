"""Stability analysis of the score functions.

Closed-form extremum results, expected-value arguments for the
constant-term kinds, band-pass gain of the normalization quotient,
Monte-Carlo saturation measurement, row pre-normalization, and curve
emission for the figure-style plots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scorefn import (
    EPS_DEN,
    SIN_MAX_CONSTANT,
    DenominatorNearZero,
    JacobianMatrix,
    PoleProximity,
    ScoreFunctionKind,
    ScoreRows,
    f_and_fp,
    jacobian,
    pole_mask,
    scores,
)

EPS_VAR = 1e-12  # row variance below this is a degenerate (constant) row

GRID_STEP = 1e-4
GRID_RANGE = (-2.0 * math.pi, 2.0 * math.pi)


class DegenerateRow(ValueError):
    """Raised when a row to be normalized has (near-)zero variance."""


@dataclass
class ExtremumInterval:
    lower: float
    upper: float
    m_value: float

    @property
    def unbounded(self):
        return math.isinf(self.lower) or math.isinf(self.upper)


@dataclass
class CurveSeries:
    x_values: np.ndarray
    y_values: np.ndarray
    label: str
    params: dict = field(default_factory=dict)

    def to_csv(self, path):
        """Write `x,y` rows; NaN y becomes an empty field (a plot gap).

        Params land in a sibling `<path>.meta.json`.
        """
        path = str(path)
        with open(path, "w") as fh:
            fh.write("x,y\n")
            for x, y in zip(self.x_values, self.y_values):
                fh.write(f"{float(x)!r},"
                         f"{'' if math.isnan(y) else repr(float(y))}\n")
        meta = {"label": self.label,
                "params": {k: float(v) for k, v in self.params.items()}}
        with open(path + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)


@dataclass
class SaturationReport:
    kind: ScoreFunctionKind
    epsilon: float
    fraction_saturated: float
    sample_count: int
    input_scale: float
    skipped_rows: int = 0


def _rng(seed):
    # Counter-based generator: identical streams on every platform.
    return np.random.Generator(np.random.Philox(key=seed))


def diag_gradient_fixed_m(kind, m, x):
    """Diagonal gradient M*f'(x)/(M+f(x))^2 with the off-sum held at M.

    Vectorized; guard points (poles, near-zero denominators) come back
    as NaN so curves can carry gaps instead of raising.
    """
    x = np.asarray(x, dtype=np.float64)
    ok = ~pole_mask(kind, x)
    f, fp = f_and_fp(kind, np.where(ok, x, 0.0))
    denom = m + f
    ok &= np.abs(denom) >= EPS_DEN
    out = np.full(x.shape, np.nan)
    np.divide(m * fp(), denom ** 2, out=out, where=ok)
    return out


def _golden_refine(fun, lo, hi, tol=1e-10):
    """Golden-section maximization of a unimodal fun on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def extreme_diag_gradient(kind, m, mode="abs", x_range=GRID_RANGE,
                          step=GRID_STEP):
    """Numeric extremum of the fixed-M diagonal gradient over x_range.

    Coarse grid then golden-section refinement.  mode is 'max', 'min'
    or 'abs' (largest magnitude, sign preserved).  Returns NaN when the
    guards fire everywhere.
    """
    xs = np.arange(x_range[0], x_range[1] + step, step)
    ys = diag_gradient_fixed_m(kind, m, xs)
    if not np.any(np.isfinite(ys)):
        return float("nan")
    if mode == "abs":
        vmax = _refine_extremum(kind, m, xs, ys, 1.0)
        vmin = _refine_extremum(kind, m, xs, ys, -1.0)
        return vmax if abs(vmax) >= abs(vmin) else vmin
    sign = 1.0 if mode == "max" else -1.0
    return _refine_extremum(kind, m, xs, ys, sign)


def _refine_extremum(kind, m, xs, ys, sign):
    """Golden-section refinement of the grid's largest sign * ys."""

    def obj(x):
        y = float(diag_gradient_fixed_m(kind, m, np.array([x]))[0])
        return sign * y if math.isfinite(y) else -math.inf

    i = int(np.nanargmax(sign * ys))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    xstar = _golden_refine(obj, lo, hi)
    best = obj(xstar)
    coarse = sign * float(ys[i])
    return sign * max(best, coarse)


def softmax_extreme_gradient():
    """Largest diagonal gradient Softmax can produce: exactly 1/4."""
    return 0.25


def cosmax_extremum_interval(m):
    """Range of the Cos-max diagonal-gradient extremum for a fixed off-sum.

    The two branch values are M^2/(2M+-2) - M/2.  For |M| < 1 the
    denominator M + cos(x) crosses zero and the extremum set is
    unbounded; that case is flagged with infinite endpoints.
    """
    if not math.isfinite(m):
        raise ValueError("M must be finite")
    if abs(m - 1.0) < 1e-8 or abs(m + 1.0) < 1e-8:
        raise PoleProximity(f"cos-max extremum formula has a pole at M = {m}")
    if m == 0.0:
        return ExtremumInterval(0.0, 0.0, 0.0)
    if abs(m) < 1.0:
        return ExtremumInterval(-math.inf, math.inf, m)
    a = m * m / (2.0 * m + 2.0) - m / 2.0
    b = m * m / (2.0 * m - 2.0) - m / 2.0
    return ExtremumInterval(min(a, b), max(a, b), m)


def sin2max_extremum_location(m):
    """x in (0, pi/2) maximizing the Sin2-max diagonal gradient at off-sum M.

    Solves cos(2x) = -(2M+1 - sqrt(8 + (2M+1)^2)) / 2 (the branch whose
    argument stays in [-1, 1]).
    """
    if m <= 0:
        raise ValueError("M must be positive")
    t = 2.0 * m + 1.0
    arg = -0.5 * (t - math.sqrt(8.0 + t * t))
    if not -1.0 <= arg <= 1.0:
        raise ValueError(f"arccos argument {arg} outside [-1, 1]")
    return 0.5 * math.acos(arg)


def filter_gain(m, f_x):
    """Band-pass gain g(M) = M/(M + f(x_j))^2 coupling f' to dS_j/dx_j."""
    if abs(m + f_x) < 1e-12:
        raise DenominatorNearZero(f"M + f(x) = {m + f_x} too close to zero")
    return m / (m + f_x) ** 2


def sinmax_constant_expected_score(d, x_j):
    """E(S_j) = (1 + sin x_j)/d for standard-normal rows under Sin-max-constant."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return (1.0 + math.sin(x_j)) / d


def sinmax_constant_expected_gradient(d, x_j):
    """E(dS_j/dx_j) = (-sin x_j + d - 1) cos(x_j) / d^2; vanishes as d grows."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return (-math.sin(x_j) + d - 1.0) * math.cos(x_j) / (d * d)


def _diag_entries_rows(kind, rows):
    """Diagonal Jacobian entries of (n, d) rows, flat in row order;
    returns (entries, skipped_rows).

    Rows hitting a guard (a pole, a near-zero denominator) are dropped
    whole.
    """
    terms = ScoreRows(kind, rows[~pole_mask(kind, rows).any(axis=-1)])
    live = ~(np.abs(terms.denom) < EPS_DEN).any(axis=-1)
    return terms.diag()[live].ravel(), len(rows) - int(live.sum())


def saturation_fraction(kind, dim, trials, input_scale, epsilon, seed):
    """Fraction of diagonal gradients with |value| < epsilon on seeded draws."""
    if dim < 2 or trials < 1 or epsilon <= 0:
        raise ValueError("need dim >= 2, trials >= 1, epsilon > 0")
    rows = _rng(seed).normal(0.0, input_scale, size=(trials, dim))
    entries, skipped = _diag_entries_rows(kind, rows)
    frac = float(np.mean(np.abs(entries) < epsilon)) if entries.size else 0.0
    return SaturationReport(kind=kind, epsilon=epsilon,
                            fraction_saturated=frac,
                            sample_count=int(entries.size),
                            input_scale=input_scale,
                            skipped_rows=skipped)


def gradient_curve(kind, m, x_min, x_max, steps):
    """Fixed-M diagonal-gradient curve; guard points become NaN gaps."""
    if steps < 2 or not x_min < x_max:
        raise ValueError("need steps >= 2 and x_min < x_max")
    xs = np.linspace(x_min, x_max, steps)
    ys = diag_gradient_fixed_m(kind, m, xs)
    return CurveSeries(x_values=xs, y_values=ys,
                       label=f"{kind.tag} diagonal gradient",
                       params={"M": m, "nan_points": int(np.isnan(ys).sum())})


def prenorm_gradient_curve(kind, m, x_min, x_max, steps, d, var):
    """Fixed-M gradient of kind(norm(x)) with the whitening held at
    mean 0 and the given variance and row dimension."""
    xs = np.linspace(x_min, x_max, steps)
    sigma = math.sqrt(var)
    ys = diag_gradient_fixed_m(kind, m, xs / sigma) * (d - 1) / (d * sigma)
    return CurveSeries(x_values=xs, y_values=ys,
                       label=f"prenormalized {kind.tag} diagonal gradient",
                       params={"M": m, "d": d, "var": var,
                               "nan_points": int(np.isnan(ys).sum())})


def extremum_vs_m_curve(kind, m_values):
    """Numeric |gradient| extremum for each off-sum M; guard-only M flagged."""
    m_values = list(m_values)
    if not m_values:
        raise ValueError("m_values must be nonempty")
    ys = []
    skipped = 0
    for m in m_values:
        y = extreme_diag_gradient(kind, m, mode="abs")
        if math.isnan(y):
            skipped += 1
        ys.append(abs(y) if not math.isnan(y) else math.nan)
    return CurveSeries(x_values=np.asarray(m_values, dtype=np.float64),
                       y_values=np.asarray(ys),
                       label=f"{kind.tag} extremum vs M",
                       params={"skipped_m": skipped})


def row_normalize(x):
    """Whiten one row: subtract the mean, divide by the population std."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("row_normalize requires a 1-d input with dim >= 2")
    var = float(np.var(x))
    if var <= EPS_VAR:
        raise DegenerateRow(f"row variance {var} <= {EPS_VAR}")
    return (x - x.mean()) / math.sqrt(var)


def row_normalize_jacobian(x):
    """Analytic Jacobian of row_normalize: (I - 11^T/d - z z^T/d) / sigma."""
    x = np.asarray(x, dtype=np.float64)
    z = row_normalize(x)
    d = x.size
    sigma = math.sqrt(float(np.var(x)))
    entries = (np.eye(d) - np.ones((d, d)) / d - np.outer(z, z) / d) / sigma
    return JacobianMatrix(entries=entries)


def prenormed_scores(kind, x):
    """scores(kind, row_normalize(x))."""
    return scores(kind, row_normalize(x))


def prenormed_jacobian(kind, x):
    """Chain-rule Jacobian of the pre-normalized scores."""
    z = row_normalize(x)
    jn = row_normalize_jacobian(x)
    js = jacobian(kind, z)
    return JacobianMatrix(entries=js.entries @ jn.entries)


def submersion_curve(d_values, trials=1000, seed=7):
    """Mean max_j |S_j - 1/d| under Sin-max-constant for growing d.

    Quantifies how the constant term drowns inter-element differences.
    """
    ys = []
    for d in d_values:
        rows = _rng(seed).normal(0.0, 1.0, size=(trials, d))
        devs = []
        for row in rows:
            ev = scores(SIN_MAX_CONSTANT, row)
            devs.append(float(np.max(np.abs(ev.scores - 1.0 / d))))
        ys.append(float(np.mean(devs)))
    return CurveSeries(x_values=np.asarray(d_values, dtype=np.float64),
                       y_values=np.asarray(ys),
                       label="sin-max-constant information submersion",
                       params={"trials": trials, "seed": seed})
