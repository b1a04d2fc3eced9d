"""From-scratch score-function and row-whitening math, the reference the
kernel tests compare against.

Each kind's f and f' is written out on its own here, one branch per tag,
with no sharing of intermediate values; the soft-margin kinds score
element j at x_j - margin against the unshifted f of the rest of the row.
Siren-max uses the plain formula, so inputs must stay off its pole.

The extremum search, the submersion curve and the gradcheck command are
kept here in their one-search-at-a-time, one-row-at-a-time form.
row_normalize and the prenormed helpers are one-row wrappers of the
library's whitening kernel, which the tests check against the closed
form and finite differences.
"""

import math

import numpy as np

from periscore.analysis import GRID_RANGE, GRID_STEP
from periscore.scorefn import (
    EPS_DEN,
    EPS_POLE,
    SIN_MAX_CONSTANT,
    ScoreError,
    ScoreFunctionKind,
    finite_diff_jacobian,
    jacobian,
    scores,
    seeded_rng,
    whiten_rows,
    whiten_vjp,
)

# Non-default parameters, next to the eleven default kinds.
EXTRA_KINDS = {
    "sm-softmax-margin1.5": ScoreFunctionKind("sm-softmax", margin=1.5),
    "taylor-softmax-order1": ScoreFunctionKind("taylor-softmax",
                                               taylor_order=1),
    "taylor-softmax-order4": ScoreFunctionKind("taylor-softmax",
                                               taylor_order=4),
    "sin2-max-shifted-phase0.3": ScoreFunctionKind("sin2-max-shifted",
                                                   phase=0.3),
}


def kind_id(kind):
    """Test id: the tag, or the EXTRA_KINDS key of a non-default kind."""
    for name, extra in EXTRA_KINDS.items():
        if kind == extra:
            return name
    return kind.tag


def _taylor_poly(x, n):
    out = np.ones_like(x)
    term = np.ones_like(x)
    for i in range(1, n + 1):
        term = term * x / i
        out = out + term
    return out


def ref_f(kind, x):
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


def ref_fp(kind, x):
    tag = kind.tag
    if tag == "softmax":
        return np.exp(x)
    if tag == "taylor-softmax":
        return _taylor_poly(x, kind.taylor_order - 1)
    if tag == "sm-softmax":
        return np.exp(x - kind.margin)
    if tag == "sm-taylor-softmax":
        return _taylor_poly(x - kind.margin, kind.taylor_order - 1)
    if tag in ("sin-max-constant", "sin-max"):
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
        return np.cos(x) / (1.0 - np.sin(x)) ** 2
    raise AssertionError(tag)


def _off_kind(kind):
    if kind.tag == "sm-softmax":
        return ScoreFunctionKind("softmax")
    if kind.tag == "sm-taylor-softmax":
        return ScoreFunctionKind("taylor-softmax",
                                 taylor_order=kind.taylor_order)
    return kind


def ref_terms(kind, x):
    """(num, num', off, off', denom) along the last axis."""
    off_kind = _off_kind(kind)
    num, nump = ref_f(kind, x), ref_fp(kind, x)
    off, offp = ref_f(off_kind, x), ref_fp(off_kind, x)
    denom = off.sum(axis=-1, keepdims=True) - off + num
    return num, nump, off, offp, denom


def ref_jacobian(kind, x):
    """dS_j/dx_k of one row: the quotient rule, entry by entry."""
    num, nump, _, offp, denom = ref_terms(kind, x)
    entries = -np.outer(num / denom ** 2, offp)
    entries[np.diag_indices_from(entries)] = (denom - num) * nump / denom ** 2
    return entries


def ref_vjp(kind, x, g):
    """Gradient of sum(g * S) with respect to x, along the last axis."""
    num, nump, _, offp, denom = ref_terms(kind, x)
    a = (g * num / denom ** 2).sum(axis=-1, keepdims=True)
    return g * nump * (denom - num) / denom ** 2 \
        - offp * (a - g * num / denom ** 2)


def ref_whiten(x, g):
    """Whitened rows z of x and the gradient of sum(g * z), along the
    last axis, in the operation order of the training path."""
    mu = x.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(x.var(axis=-1, keepdims=True))
    z = (x - mu) / sigma
    gz = (g - g.mean(axis=-1, keepdims=True)
          - z * (g * z).mean(axis=-1, keepdims=True)) / sigma
    return z, gz


def ref_whiten_jacobian(x):
    """Jacobian of one whitened row in closed form:
    (I - 11^T/d - z z^T/d) / sigma."""
    d = x.size
    sigma = np.sqrt(np.var(x))
    z = (x - x.mean()) / sigma
    return (np.eye(d) - np.ones((d, d)) / d - np.outer(z, z) / d) / sigma


def row_normalize(x):
    """Whiten one row: subtract the mean, divide by the population std."""
    return whiten_rows(np.asarray(x, dtype=np.float64))[0]


def row_normalize_jacobian(x):
    """Jacobian of row_normalize: whiten_vjp of each unit cotangent."""
    z, sigma = whiten_rows(np.asarray(x, dtype=np.float64))
    return whiten_vjp(z, sigma, np.eye(z.size))


def prenormed_scores(kind, x):
    """scores(kind, row_normalize(x))."""
    return scores(kind, row_normalize(x))


def prenormed_jacobian(kind, x):
    """Chain-rule Jacobian of the pre-normalized scores."""
    return jacobian(kind, row_normalize(x)).entries @ row_normalize_jacobian(x)


def ref_diag_gradient_fixed_m(kind, m, x):
    """M f'(x) / (M + f(x))^2, NaN at a siren-max pole or where
    |M + f(x)| < EPS_DEN."""
    with np.errstate(all="ignore"):
        f, fp = ref_f(kind, x), ref_fp(kind, x)
        ok = np.abs(m + f) >= EPS_DEN
        if kind.tag == "siren-max":
            ok &= (1.0 - np.sin(x)) >= EPS_POLE
        return np.where(ok, m * fp / (m + f) ** 2, np.nan)


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


def _refine_extremum(kind, m, xs, ys, sign):
    """Golden-section refinement of the grid's largest sign * ys."""

    def obj(x):
        y = float(ref_diag_gradient_fixed_m(kind, m, np.array([x]))[0])
        return sign * y if math.isfinite(y) else -math.inf

    i = int(np.nanargmax(sign * ys))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    xstar = _golden_refine(obj, lo, hi)
    best = obj(xstar)
    coarse = sign * float(ys[i])
    return sign * max(best, coarse)


def ref_extreme_diag_gradient(kind, m, mode="abs"):
    """Extremum of the fixed-M diagonal gradient: a grid over GRID_RANGE,
    then one scalar golden-section search per sign."""
    xs = np.arange(GRID_RANGE[0], GRID_RANGE[1] + GRID_STEP, GRID_STEP)
    ys = ref_diag_gradient_fixed_m(kind, m, xs)
    if not np.any(np.isfinite(ys)):
        return float("nan")
    if mode == "abs":
        vmax = _refine_extremum(kind, m, xs, ys, 1.0)
        vmin = _refine_extremum(kind, m, xs, ys, -1.0)
        return vmax if abs(vmax) >= abs(vmin) else vmin
    sign = 1.0 if mode == "max" else -1.0
    return _refine_extremum(kind, m, xs, ys, sign)


def ref_submersion(d, trials, seed):
    """Mean max_j |S_j - 1/d| under Sin-max-constant, row by row."""
    devs = []
    for row in seeded_rng(seed).normal(0.0, 1.0, size=(trials, d)):
        num, _, _, _, denom = ref_terms(SIN_MAX_CONSTANT, row)
        devs.append(float(np.max(np.abs(num / denom - 1.0 / d))))
    return float(np.mean(devs))


def ref_gradcheck(names, dim, trials, seed, tol=1e-6):
    """The lines `periscore gradcheck` prints for default kinds, one trial
    at a time: a 1-d jacobian and finite_diff_jacobian call per trial, and
    a trial skipped when either raises a guard error.  max() would drop a
    NaN error; the kernels give none on these inputs."""
    rng = seeded_rng(seed)
    lines = []
    for name in names:
        kind = ScoreFunctionKind(name)
        worst = 0.0
        skipped = 0
        for _ in range(trials):
            x = rng.normal(0.0, 1.0, size=dim)
            try:
                a = jacobian(kind, x).entries
                f = finite_diff_jacobian(kind, x).entries
            except ScoreError:
                skipped += 1
                continue
            scale = max(np.abs(f).max(), np.abs(a).max(), 1.0)
            worst = max(worst, float(np.abs(a - f).max() / scale))
        ok = worst <= tol and skipped < trials
        lines.append(f"{name:20s} max rel err {worst:.3e}  skipped "
                     f"{skipped:3d}  {'PASS' if ok else 'FAIL'}")
    return lines
