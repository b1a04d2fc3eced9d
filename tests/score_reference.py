"""From-scratch score-function math, the reference the kernel tests
compare against bitwise.

Each kind's f and f' is written out on its own here, one branch per tag,
with no sharing of intermediate values; the soft-margin kinds score
element j at x_j - margin against the unshifted f of the rest of the row.
Siren-max uses the plain formula, so inputs must stay off its pole.
"""

import numpy as np

from periscore.scorefn import ScoreFunctionKind

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
