"""Stability analysis of the score functions.

Closed-form extremum results, expected-value arguments for the
constant-term kinds, band-pass gain of the normalization quotient,
Monte-Carlo saturation measurement, the pre-normalized gradient curve,
and curve emission for the figure-style plots.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scorefn import (
    SIN_MAX_CONSTANT,
    PoleProximity,
    ScoreFunctionKind,
    ScoreRows,
    check_denominators,
    denom_ok,
    denoms_all_ok,
    f_and_fp,
    pole_mask,
    seeded_rng,
)
# Not called here: perfbench/spans.py times these through this module.
from .scorefn import jacobian, scores  # noqa: F401

GRID_STEP = 1e-4
GRID_RANGE = (-2.0 * math.pi, 2.0 * math.pi)

# submersion_curve and the gradcheck command score blocks of at most this
# many elements per kernel call, so their temporaries stay near 128 KiB.
# A block is at least one row of d elements in submersion_curve and one
# trial of 2 * dim**2 elements in gradcheck, so a single gradcheck trial
# exceeds the bound once dim >= 91.
BLOCK_ELEMENTS = 16384
# The extremum grid pass bounds each block of this many grid points and
# scores only the blocks whose bound can reach a known grid value.
BOUND_WIDTH = 1024


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


def diag_gradient_fixed_m(kind, m, x):
    """Diagonal gradient M*f'(x)/(M+f(x))^2 with the off-sum held at M.

    Vectorized, with m broadcasting against x; guard points (poles,
    near-zero or non-finite denominators, non-finite x) come back as NaN,
    without a numpy warning, so curves can carry gaps instead of raising.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        f, fp = f_and_fp(kind, x)
        denom, ys = _fixed_m_quotient(m, f, fp())
        ok = np.isfinite(x) & ~pole_mask(kind, x) & denom_ok(denom)
        return np.where(ok, ys, np.nan)


def _fixed_m_quotient(m, f, fp):
    """(M + f, M*fp/(M+f)^2), unguarded; call it under np.errstate."""
    denom = m + f
    return denom, m * fp / np.square(denom)


def _read_only_trig(xs):
    """(xs, sin(xs), cos(xs)), all three marked read-only, for a memo."""
    trig = xs, np.sin(xs), np.cos(xs)
    for a in trig:
        a.flags.writeable = False
    return trig


@functools.lru_cache(maxsize=1)
def _grid(lo, hi, step):
    """The extremum grid over [lo, hi], its sin and its cos, read-only."""
    return _read_only_trig(np.arange(lo, hi + step, step))


def _golden_refine(kind, ms, signs, lo, hi, tol=1e-10):
    """Golden-section maximization of sign * diag_gradient_fixed_m(kind,
    M, x) on [lo, hi], one search per element of the arrays, advanced in
    lockstep; a non-finite gradient counts as -inf.  Each search takes
    the steps it would take alone.  Returns each objective at the
    midpoint of its final interval."""

    def obj(i, x):
        y = diag_gradient_fixed_m(kind, ms[i], x)
        return np.where(np.isfinite(y), signs[i] * y, -np.inf)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    every = np.arange(a.size)
    fc, fd = obj(every, c), obj(every, d)
    while (live := np.flatnonzero(b - a > tol)).size:
        left = fc[live] >= fd[live]
        i, j = live[left], live[~left]
        b[i], d[i], fd[i] = d[i], c[i], fc[i]
        c[i] = b[i] - invphi * (b[i] - a[i])
        a[j], c[j], fc[j] = c[j], d[j], fd[j]
        d[j] = a[j] + invphi * (b[j] - a[j])
        y = obj(live, np.where(left, c[live], d[live]))
        fc[i], fd[j] = y[left], y[~left]
    return obj(every, 0.5 * (a + b))


def _needed_blocks(ms, signs, f, fp, ok):
    """(M, block) mask of the BOUND_WIDTH-point grid blocks that may hold
    a largest sign * gradient for some sign; f, fp and ok are the grid's.

    The live values at the blocks' first points are grid values, so their
    largest, met, is a lower bound on the grid maximum.  Add, multiply and
    divide round monotonically, so the quotient of a block's extreme
    M + f and sign * M * f' bounds every value computed in it from above;
    a block is dropped only when that bound is below met.  Where M + f
    may cross zero, or a bound is NaN, the block is kept.
    """
    starts = np.arange(0, f.size, BOUND_WIDTH)
    with np.errstate(all="ignore"):
        denom, ys = _fixed_m_quotient(ms[:, None], f[starts], fp[starts])
        live = ok[starts] & denom_ok(denom)
        met = np.where(live, signs[:, None, None] * ys, -np.inf).max(axis=-1)
        lo = ms[:, None] + np.minimum.reduceat(f, starts)
        hi = ms[:, None] + np.maximum.reduceat(f, starts)
        sm = signs[:, None, None] * ms[:, None]
        top = np.maximum(sm * np.minimum.reduceat(fp, starts),
                         sm * np.maximum.reduceat(fp, starts))
        pos = lo > 0
        near, far = np.where(pos, lo, hi), np.where(pos, hi, lo)
        bound = np.where(top > 0, top / np.square(near), top / np.square(far))
    return ~(pos | (hi < 0)) | ~(bound < met[..., None]).all(axis=0)


def _extrema(kind, m_values, mode):
    """extreme_diag_gradient for each M, as an array.

    For each M, each run of adjacent grid blocks that _needed_blocks
    keeps is scored whole, in x order, keeping each sign's first largest
    sign * gradient, guard points counting as -inf, as nanargmax would;
    the guard mask is built only for a run that has a guard point.  A
    dropped block holds only values below one the scan sees, so this is
    bitwise the scan of the whole grid.  One lockstep golden-section
    search then refines them all.
    """
    xs, sin, cos = _grid(*GRID_RANGE, GRID_STEP)
    ok = ~pole_mask(kind, xs, sin)
    f, fp = f_and_fp(kind, xs, sin, cos)
    fp = fp()
    ms = np.asarray(m_values, dtype=np.float64)
    signs = np.array([1.0, -1.0] if mode == "abs"
                     else [1.0 if mode == "max" else -1.0])
    peak = np.full((ms.size, signs.size), -np.inf)
    at = np.zeros(peak.shape, dtype=np.intp)
    for r, need in enumerate(_needed_blocks(ms, signs, f, fp, ok)):
        runs = np.flatnonzero(np.diff(need, prepend=False, append=False))
        for lo, hi in runs.reshape(-1, 2) * BOUND_WIDTH:
            with np.errstate(all="ignore"):
                denom, ys = _fixed_m_quotient(ms[r], f[lo:hi], fp[lo:hi])
            dead = (None if ok[lo:hi].all() and denoms_all_ok(denom)
                    else ~(ok[lo:hi] & denom_ok(denom)))
            for s, sign in enumerate(signs):
                if dead is not None:
                    np.copyto(ys, -sign * np.inf, where=dead)
                j = ys.argmax() if sign > 0 else ys.argmin()
                if sign * ys[j] > peak[r, s]:
                    peak[r, s], at[r, s] = sign * ys[j], lo + j
    k, s = np.nonzero(peak > -np.inf)
    i = at[k, s]
    best = _golden_refine(kind, ms[k], signs[s],
                          xs[np.maximum(i - 1, 0)],
                          xs[np.minimum(i + 1, xs.size - 1)])
    # The grid value wins only when strictly larger, so a tie keeps the
    # refined value (and the sign of a zero) that the scalar search kept.
    grid, peak = peak[k, s], np.full(peak.shape, np.nan)
    peak[k, s] = signs[s] * np.where(grid > best, grid, best)
    if mode != "abs":
        return peak[:, 0]
    vmax, vmin = peak.T
    return np.where(np.abs(vmax) >= np.abs(vmin), vmax, vmin)


def extreme_diag_gradient(kind, m, mode="abs"):
    """Numeric extremum of the fixed-M diagonal gradient over GRID_RANGE.

    Coarse grid, scored only in the blocks whose bound can reach a grid
    value (bitwise the full scan), then golden-section refinement.  mode
    is 'max', 'min' or 'abs' (largest magnitude, sign preserved).
    Returns NaN when the guards fire everywhere.
    """
    return float(_extrema(kind, [m], mode)[0])


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
        raise PoleProximity(f"cos-max extremum formula has a pole at M = {m}",
                            value=m)
    if m == 0.0:
        return ExtremumInterval(0.0, 0.0, 0.0)
    if abs(m) < 1.0:
        return ExtremumInterval(-math.inf, math.inf, m)
    a = m * m / (2.0 * m + 2.0) - m / 2.0
    b = m * m / (2.0 * m - 2.0) - m / 2.0
    return ExtremumInterval(min(a, b), max(a, b), m)


def sin2max_extremum_location(m):
    """x in (0, pi/2) maximizing the Sin2-max diagonal gradient at off-sum M.

    Solves cos(2x) = (sqrt(8 + t^2) - t)/2 with t = 2M+1, written as
    4/(t + sqrt(8 + t^2)), which does not cancel as M grows and lies in
    (0, 1] for every M > 0.
    """
    if not 0 < m < math.inf:
        raise ValueError("M must be positive and finite")
    t = 2.0 * m + 1.0
    return 0.5 * math.acos(4.0 / (t + math.sqrt(8.0 + t * t)))


def filter_gain(m, f_x):
    """Band-pass gain g(M) = M/(M + f(x_j))^2 coupling f' to dS_j/dx_j."""
    check_denominators(m + f_x)
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


def _diag_entries_rows(kind, rows, sin=None, cos=None):
    """Diagonal Jacobian entries of (n, d) rows, flat in row order;
    returns (entries, skipped_rows).

    Every row is scored through the pole, without a numpy warning; then
    one mask drops the rows hitting a guard (a pole, a near-zero or
    non-finite denominator) whole.  sin and cos, if given, must be
    np.sin(rows) and np.cos(rows), used in place of the kernel's own.
    Nothing is copied for a guard that no row hits.
    """
    pole = pole_mask(kind, rows, sin).any(axis=-1)
    terms = ScoreRows(kind, rows, through_pole=True, sin=sin, cos=cos)
    with np.errstate(all="ignore"):
        diag = terms.diag()
    if len(rows) and not pole.any() and denoms_all_ok(terms.denom):
        return diag.ravel(), 0
    keep = ~pole & denom_ok(terms.denom).all(axis=-1)
    return diag[keep].ravel(), len(rows) - int(keep.sum())


@functools.lru_cache(maxsize=1)
def _draws(seed, trials, dim, input_scale):
    """saturation_fraction's seeded (trials, dim) normal rows, their sin
    and their cos, read-only.  A sweep over the kinds with one argument
    set draws and takes the trig once."""
    return _read_only_trig(
        seeded_rng(seed).normal(0.0, input_scale, size=(trials, dim)))


def saturation_fraction(kind, dim, trials, input_scale, epsilon, seed):
    """Fraction of diagonal gradients with |value| < epsilon on seeded draws.

    The draws of the last (seed, trials, dim, input_scale), with their
    sin and cos, are kept for the life of the process (see _draws), so
    the other kinds of a sweep reuse them.
    """
    if not (dim >= 2 and trials >= 1 and epsilon > 0
            and 0 <= input_scale < math.inf):
        raise ValueError("need dim >= 2, trials >= 1, epsilon > 0 and "
                         "0 <= input_scale < inf")
    entries, skipped = _diag_entries_rows(
        kind, *_draws(seed, trials, dim, input_scale))
    frac = float(np.mean(np.abs(entries) < epsilon)) if entries.size else 0.0
    return SaturationReport(kind=kind, epsilon=epsilon,
                            fraction_saturated=frac,
                            sample_count=int(entries.size),
                            input_scale=input_scale,
                            skipped_rows=skipped)


def _curve_xs(m, x_min, x_max, steps):
    """The x values of a curve, after checking its arguments."""
    if not (steps >= 2 and math.isfinite(m)
            and -math.inf < x_min < x_max < math.inf):
        raise ValueError("need steps >= 2, finite m and finite x_min < x_max")
    return np.linspace(x_min, x_max, steps)


def gradient_curve(kind, m, x_min, x_max, steps):
    """Fixed-M diagonal-gradient curve; guard points become NaN gaps."""
    xs = _curve_xs(m, x_min, x_max, steps)
    ys = diag_gradient_fixed_m(kind, m, xs)
    return CurveSeries(x_values=xs, y_values=ys,
                       label=f"{kind.tag} diagonal gradient",
                       params={"M": m, "nan_points": int(np.isnan(ys).sum())})


def prenorm_gradient_curve(kind, m, x_min, x_max, steps, d, var):
    """Fixed-M gradient of kind(norm(x)) with the whitening held at
    mean 0 and the given variance and row dimension."""
    if d < 2 or not 0 < var < math.inf:
        raise ValueError("need d >= 2 and 0 < var < inf")
    xs = _curve_xs(m, x_min, x_max, steps)
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
    ys = np.abs(_extrema(kind, m_values, "abs"))
    return CurveSeries(x_values=np.asarray(m_values, dtype=np.float64),
                       y_values=ys,
                       label=f"{kind.tag} extremum vs M",
                       params={"skipped_m": int(np.isnan(ys).sum())})


def submersion_curve(d_values, trials=1000, seed=7):
    """Mean max_j |S_j - 1/d| under Sin-max-constant for growing d.

    Quantifies how the constant term drowns inter-element differences.
    Each d's rows are the first trials * d normals of one seeded draw of
    trials * max(d) normals, which is bitwise a fresh draw of shape
    (trials, d), so one draw and one np.sin of it serve every width.
    That costs two arrays of trials * max(d) floats for the call (4 MB
    at the report's 1000 x 256).  Rows are scored in blocks of at most
    BLOCK_ELEMENTS elements.
    """
    if trials < 1:
        raise ValueError("submersion_curve requires trials >= 1")
    for d in d_values:
        if d < 2:
            raise ValueError(f"submersion_curve requires d >= 2, got {d}")
    flat = seeded_rng(seed).normal(0.0, 1.0,
                                   size=trials * max(d_values, default=0))
    flat_sin = np.sin(flat)
    ys = []
    for d in d_values:
        rows = flat[:trials * d].reshape(trials, d)
        sin_rows = flat_sin[:trials * d].reshape(trials, d)
        step = max(1, BLOCK_ELEMENTS // d)
        devs = np.empty(trials)
        for i in range(0, trials, step):
            s = ScoreRows(SIN_MAX_CONSTANT, rows[i:i + step],
                          sin=sin_rows[i:i + step]).scores()
            devs[i:i + step] = np.abs(s - 1.0 / d).max(axis=-1)
        ys.append(float(np.mean(devs)))
    return CurveSeries(x_values=np.asarray(d_values, dtype=np.float64),
                       y_values=np.asarray(ys),
                       label="sin-max-constant information submersion",
                       params={"trials": trials, "seed": seed})
