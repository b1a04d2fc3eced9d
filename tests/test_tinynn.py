"""Unit tests for the autodiff engine and the attention demo model."""

import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest

from periscore import model as tinynn
from periscore.autodiff import (Tensor, cross_entropy, linear, no_grad,
                                parameter)
from periscore.model import (
    AttentionBlock,
    AttentionConfig,
    BreakdownSignal,
    DemoConfig,
    build_demo,
    normalize_rows,
    score_rows,
)
from periscore.harness import TAP_BINS, TAP_RANGE, _bin_tap
from periscore.scorefn import (
    ALL_KINDS,
    EPS_VAR,
    SIN_MAX,
    SIN_SOFTMAX,
    SIREN_MAX,
    SOFTMAX,
    DegenerateRow,
    DenominatorNearZero,
    ScoreError,
    ScoreRows,
    jacobian,
    seeded_rng,
)

from score_reference import (
    EXTRA_KINDS,
    kind_id,
    ref_vjp,
    ref_whiten,
    ref_whiten_jacobian,
)


# -- autodiff engine ---------------------------------------------------


def _fd_grad(fun, x, h=1e-6):
    g = np.empty_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fun()
        flat[i] = keep - h
        down = fun()
        flat[i] = keep
        gf[i] = (up - down) / (2.0 * h)
    return g


def test_add_mul_chain_gradients():
    a = parameter(np.array([1.0, -2.0, 3.0]))
    b = parameter(np.array([0.5, 0.5, 0.5]))
    loss = ((a * b + a) * a).sum()
    loss.backward()
    # d/da (a^2 b + a^2) = 2a(b + 1), d/db = a^2
    np.testing.assert_allclose(a.grad, 2 * a.data * (b.data + 1))
    np.testing.assert_allclose(b.grad, a.data ** 2)


def test_broadcast_add_accumulates_bias_gradient():
    w = parameter(seeded_rng(0).normal(size=(4, 3)))
    b = parameter(np.zeros(3))
    loss = (Tensor(np.ones((4, 3))) * (w + b)).sum()
    loss.backward()
    np.testing.assert_allclose(b.grad, np.full(3, 4.0))


def test_broadcast_along_a_size_one_axis_sums_its_gradient():
    w = parameter(seeded_rng(24).normal(size=(4, 3)))
    col = parameter(np.zeros((4, 1)))
    row = parameter(np.zeros((1, 3)))
    g = seeded_rng(25).normal(size=(4, 3))
    ((w + col + row) * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(col.grad, g.sum(axis=1, keepdims=True))
    np.testing.assert_array_equal(row.grad, g.sum(axis=0, keepdims=True))
    np.testing.assert_array_equal(w.grad, g)


def test_neg_and_sub_gradients():
    a = parameter(np.array([1.0, -2.0, 3.0]))
    b = parameter(np.array([0.5, 4.0, -1.5]))
    ((a - b) * a - a).sum().backward()
    # d/da (a^2 - ab - a) = 2a - b - 1, d/db = -a
    np.testing.assert_allclose(a.grad, 2 * a.data - b.data - 1.0)
    np.testing.assert_array_equal(b.grad, -a.data)
    c = parameter(np.array([2.0, -3.0]))
    (-c).sum().backward()
    np.testing.assert_array_equal(c.grad, [-1.0, -1.0])


def test_matmul_gradients_match_finite_differences():
    a = parameter(seeded_rng(1).normal(size=(2, 3, 4)))
    b = parameter(seeded_rng(2).normal(size=(4, 5)))

    def run():
        return float(((a @ b) * (a @ b)).sum().data)

    loss = ((a @ b) * (a @ b)).sum()
    loss.backward()
    np.testing.assert_allclose(a.grad, _fd_grad(run, a.data), atol=1e-6)
    np.testing.assert_allclose(b.grad, _fd_grad(run, b.data), atol=1e-6)


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 6, 4)],
                         ids=["2d-head", "3d-tokens"])
def test_linear_is_bitwise_matmul_plus_bias(x_shape):
    rng = seeded_rng(4)
    x0 = rng.normal(size=x_shape)
    w0 = rng.normal(size=(4, 7))
    b0 = rng.normal(size=7)
    c = rng.normal(size=x_shape[:-1] + (7,))
    runs = []
    for op in (lambda x, w, b: linear(x, w, b),
               lambda x, w, b: x @ w + b):
        x, w, b = parameter(x0), parameter(w0), parameter(b0)
        y = op(x, w, b)
        (y * c).sum().backward()
        runs.append((y.data, x.grad, w.grad, b.grad))
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_gelu_and_log_softmax_gradients():
    x = parameter(seeded_rng(3).normal(size=(3, 5)))

    def run():
        return float(x.gelu().log_softmax().sum().data)

    loss = x.gelu().log_softmax().sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, _fd_grad(run, x.data), atol=1e-6)


def test_cross_entropy_matches_manual_value_and_gradient():
    logits = parameter(np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]]))
    labels = np.array([0, 2])
    loss = cross_entropy(logits, labels)
    p = np.exp(logits.data)
    p /= p.sum(axis=1, keepdims=True)
    want = -(math.log(p[0, 0]) + math.log(p[1, 2])) / 2
    assert float(loss.data) == pytest.approx(want, rel=1e-12)
    loss.backward()
    onehot = np.zeros_like(p)
    onehot[[0, 1], labels] = 1.0
    np.testing.assert_allclose(logits.grad, (p - onehot) / 2, atol=1e-12)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        parameter(np.ones(3)).backward()


def test_gradient_accumulates_across_backward_calls():
    a = parameter(np.array([2.0]))
    (a * a).sum().backward()
    first = a.grad.copy()
    (a * a).sum().backward()
    np.testing.assert_allclose(a.grad, 2 * first)


def test_backward_through_a_deep_chain():
    x = parameter(np.array([1.5, -2.0]))
    y = x
    for _ in range(5000):
        y = y * 1.0
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


@pytest.fixture
def gc_off():
    """Only reference counting frees objects while the test runs."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_backward_releases_the_graph_as_it_goes(monkeypatch, gc_off):
    built = []

    class Recorded(ScoreRows):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(tinynn, "ScoreRows", Recorded)
    t = parameter(seeded_rng(7).normal(size=(2, 3, 5)))
    out = score_rows(t, SIN_SOFTMAX)
    loss = (out * Tensor(seeded_rng(8).normal(size=t.shape))).sum()
    [rows] = built
    assert rows() is not None
    loss.backward()
    # The caller still holds out and loss, but not the graph behind them.
    assert rows() is None
    assert out._parents == () and loss._parents == ()


def test_second_backward_on_one_root_raises():
    a = parameter(np.array([2.0, -1.0]))
    loss = (a * a).sum()
    loss.backward()
    first = a.grad.copy()
    with pytest.raises(RuntimeError, match="back-propagated once"):
        loss.backward()
    assert np.array_equal(a.grad, first)


def test_backward_through_a_released_intermediate_raises():
    a = parameter(np.array([2.0, -1.0]))
    h = a * a
    h.sum().backward()
    first = a.grad.copy()
    with pytest.raises(RuntimeError, match="back-propagated once"):
        (h * 3.0).sum().backward()
    assert np.array_equal(a.grad, first)


@pytest.mark.parametrize("axis", [None, 1])
def test_mean_is_one_node_bitwise_sum_then_scale(axis):
    x0 = seeded_rng(9).normal(size=(3, 7, 2))
    g = seeded_rng(10).normal(size=x0.mean(axis=axis).shape)
    n = x0.size if axis is None else x0.shape[axis]
    runs = []
    for reduce in (lambda x: x.mean(axis=axis),
                   lambda x: x.sum(axis=axis) * (1.0 / n)):
        x = parameter(x0)
        out = reduce(x)
        runs.append((out, x, out._parents))
        (out * Tensor(g)).sum().backward()
    (mean, xm, parents), (ref, xr, _) = runs
    assert len(parents) == 1 and parents[0] is xm
    assert np.array_equal(mean.data, ref.data)
    assert np.array_equal(xm.grad, xr.grad)


def test_no_grad_records_no_graph():
    model = build_demo(_demo_config(kind=SIN_SOFTMAX, prenorm=True), seed=2)
    images = seeded_rng(16).normal(size=(2, 8, 8, 1))
    with no_grad():
        logits = model.forward(images)
        loss = cross_entropy(logits, np.array([0, 1]))
    assert logits._parents == () and logits._backward is None
    assert loss._parents == () and loss._backward is None
    tracked = model.forward(images)
    assert tracked._parents
    np.testing.assert_array_equal(logits.data, tracked.data)


# -- differentiable row ops --------------------------------------------


def test_score_rows_forward_matches_kernel():
    from periscore.scorefn import scores
    x = seeded_rng(4).normal(size=(2, 5))
    out = score_rows(Tensor(x), SIN_SOFTMAX)
    for i in range(2):
        np.testing.assert_allclose(out.data[i],
                                   scores(SIN_SOFTMAX, x[i]),
                                   rtol=1e-14)


@pytest.mark.parametrize("kind", [SOFTMAX, SIN_MAX, SIN_SOFTMAX],
                         ids=lambda k: k.tag)
def test_score_rows_backward_matches_jacobian(kind):
    x = seeded_rng(5).normal(size=(2, 4))
    t = parameter(x)
    g = seeded_rng(6).normal(size=(2, 4))
    out = score_rows(t, kind)
    (out * Tensor(g)).sum().backward()
    for i in range(2):
        want = g[i] @ jacobian(kind, x[i]).entries
        np.testing.assert_allclose(t.grad[i], want, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS + tuple(EXTRA_KINDS.values()),
                         ids=kind_id)
def test_score_rows_backward_is_bitwise_the_reference(kind):
    # Inputs in (0.1, 1.2) keep sin and cos positive, so no guard fires.
    x = seeded_rng(17).uniform(0.1, 1.2, size=(2, 3, 6))
    g = seeded_rng(18).normal(size=x.shape)
    tapped = []
    t = parameter(x)
    out = score_rows(t, kind, tap_sink=lambda xs, gs: tapped.append((xs, gs)))
    (out * Tensor(g)).sum().backward()
    want = ref_vjp(kind, x, g)
    assert np.array_equal(t.grad, want)
    [(xs, gs)] = tapped
    assert np.array_equal(xs, x)
    assert np.array_equal(gs, want)


def test_score_rows_siren_survives_the_pole():
    # The training path evaluates the normalized siren score straight
    # through sin(x) = 1; values and gradients stay finite.
    x = np.array([[0.2, math.pi / 2, -0.4, 1.0]])
    t = parameter(x)
    out = score_rows(t, SIREN_MAX)
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 1] == pytest.approx(1.0)  # pole element dominates
    out.sum().backward()
    assert np.all(np.isfinite(t.grad))


def _siren_pole_jacobians(delta):
    """The through-pole VJP of I at pi/2 + delta, and central differences
    (h = 1e-6) of the through-pole scores."""
    x = np.array([0.2, math.pi / 2 + delta, -0.4, 1.0])
    J = ScoreRows(SIREN_MAX, x, through_pole=True).vjp(np.eye(4))
    h = 1e-6
    steps = h * np.eye(4)
    up = ScoreRows(SIREN_MAX, x + steps, through_pole=True).scores()
    down = ScoreRows(SIREN_MAX, x - steps, through_pole=True).scores()
    return J, ((up - down) / (2 * h)).T


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, -1e-7, 0.0])
def test_score_rows_siren_gradient_through_the_pole_is_central_differences(
        delta):
    # By gradcheck's measure.  Below |delta| of about 1e-8, 1 - sin x is
    # under one ulp of 1 and the floor takes over.
    J, F = _siren_pole_jacobians(delta)
    scale = max(np.abs(J).max(), np.abs(F).max(), 1.0)
    assert np.abs(J - F).max() / scale < 1e-6


@pytest.mark.parametrize("delta", [1e-8, -1e-8])
def test_score_rows_siren_gradient_within_1e_8_of_the_pole_is_wrong(delta):
    # Pins the limit that the ScoreRows docstring (src/periscore/scorefn.py)
    # and the README's siren-max paragraph state: within about 1e-8 of
    # pi/2, sin x rounds to 1, f and f' come from _SIREN_FLOOR, and the
    # VJP is off by about its largest entry.  A fix to _siren that makes
    # this fail must update both texts.  Measured against the largest
    # entry with no floor: gradcheck's floor of 1.0 hides a gap of 7e-8.
    J, F = _siren_pole_jacobians(delta)
    assert np.abs(J - F).max() > 0.5 * max(np.abs(J).max(), np.abs(F).max())


def test_score_rows_denominator_guard_carries_location():
    # sin(0.7) + sin(-0.7) = 0 exactly: the second row's denominators.
    x = np.array([[0.3, 0.5], [0.7, -0.7]])
    with pytest.raises(DenominatorNearZero) as exc:
        score_rows(Tensor(x), SIN_MAX)
    assert exc.value.index == 2
    assert exc.value.value == pytest.approx(0.0, abs=1e-12)


def test_normalize_rows_backward_matches_jacobian():
    x = seeded_rng(7).normal(size=(3, 5))
    t = parameter(x)
    g = seeded_rng(8).normal(size=(3, 5))
    (normalize_rows(t) * Tensor(g)).sum().backward()
    for i in range(3):
        want = g[i] @ ref_whiten_jacobian(x[i])
        np.testing.assert_allclose(t.grad[i], want, atol=1e-10)


@pytest.mark.parametrize("shape", [(2, 6), (3, 1, 5), (16, 4, 16, 16)],
                         ids=lambda s: "x".join(map(str, s)))
def test_normalize_rows_is_bitwise_the_reference(shape):
    x = seeded_rng(19).normal(0.5, 2.0, size=shape)
    g = seeded_rng(20).normal(size=shape)
    t = parameter(x)
    out = normalize_rows(t)
    (out * Tensor(g)).sum().backward()
    z, gz = ref_whiten(x, g)
    assert np.array_equal(out.data, z)
    assert np.array_equal(t.grad, gz)


def test_normalize_rows_rejects_a_constant_row():
    x = seeded_rng(21).normal(size=(3, 4))
    x[1] = 2.5
    with pytest.raises(DegenerateRow):
        normalize_rows(parameter(x))


# -- demo model --------------------------------------------------------


def _demo_config(kind=SOFTMAX, depth=1, prenorm=False):
    attn = AttentionConfig(embed_dim=16, num_heads=2, score_kind=kind,
                           prenormalize=prenorm)
    return DemoConfig(depth=depth, attention=attn, patch_size=2,
                      input_shape=(8, 8, 1), num_classes=4)


def test_config_validation():
    with pytest.raises(ValueError):
        AttentionConfig(embed_dim=10, num_heads=4, score_kind=SOFTMAX)
    with pytest.raises(ValueError):
        AttentionConfig(embed_dim=8, num_heads=2, score_kind=SOFTMAX,
                        score_scale="fixed")
    with pytest.raises(ValueError):
        DemoConfig(depth=1,
                   attention=AttentionConfig(8, 2, SOFTMAX),
                   patch_size=3, input_shape=(8, 8, 1))


def test_forward_shapes_and_determinism():
    model = build_demo(_demo_config(depth=2), seed=1)
    images = seeded_rng(9).normal(size=(3, 8, 8, 1))
    logits = model.forward(images)
    assert logits.shape == (3, 4)
    again = build_demo(_demo_config(depth=2), seed=1).forward(images)
    np.testing.assert_array_equal(logits.data, again.data)


def test_patchify_is_nonoverlapping():
    model = build_demo(_demo_config(), seed=0)
    images = np.arange(64.0).reshape(1, 8, 8, 1)
    patches = model.patchify(images)
    assert patches.shape == (1, 16, 4)
    np.testing.assert_array_equal(patches[0, 0], [0, 1, 8, 9])


def test_attention_forward_scores_are_rows_of_probabilities(monkeypatch):
    # A spy on model.score_rows keeps the scores that the block used.
    seen = []

    def spy(*args, **kwargs):
        seen.append(score_rows(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(tinynn, "score_rows", spy)
    cfg = AttentionConfig(embed_dim=8, num_heads=2, score_kind=SOFTMAX)
    block = AttentionBlock(cfg, seeded_rng(2), layer_index=0)
    out = block.forward(Tensor(seeded_rng(10).normal(size=(1, 5, 8))))
    assert out.shape == (1, 5, 8)
    [s] = seen
    assert s.shape == (1, 2, 5, 5)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def _generic_attention(block, x):
    """AttentionBlock.forward written with the generic Tensor ops."""
    cfg = block.cfg
    d, h = cfg.embed_dim, cfg.num_heads
    b, n, _ = x.shape

    def split(t):
        return t.reshape(b, n, h, d // h).transpose((0, 2, 1, 3))

    q = split(x @ block.wq + block.bq)
    k = split(x @ block.wk + block.bk)
    v = split(x @ block.wv + block.bv)
    scale = 1.0 / d if cfg.score_scale == "inv_dmodel" else 1.0 / math.sqrt(d)
    raw = (q @ k.transpose((0, 1, 3, 2))) * scale
    if cfg.prenormalize:
        raw = normalize_rows(raw)
    s = score_rows(raw, cfg.score_kind)
    out = (s @ v).transpose((0, 2, 1, 3)).reshape(b, n, d)
    return out @ block.wo + block.bo


@pytest.mark.parametrize("prenorm", [False, True], ids=["raw", "prenorm"])
@pytest.mark.parametrize("scale", ["inv_dmodel", "inv_sqrt_dmodel"])
def test_attention_forward_is_bitwise_the_generic_ops(scale, prenorm):
    cfg = AttentionConfig(embed_dim=8, num_heads=2, score_kind=SIN_SOFTMAX,
                          score_scale=scale, prenormalize=prenorm)
    block = AttentionBlock(cfg, seeded_rng(5), layer_index=0)
    x0 = seeded_rng(13).normal(size=(2, 5, 8))
    c = seeded_rng(14).normal(size=(2, 5, 8))
    runs = []
    for forward in (block.forward, partial(_generic_attention, block)):
        for p in block.parameters():
            p.grad = None
        x = parameter(x0)
        out = forward(x)
        (out * c).sum().backward()
        runs.append([out.data, x.grad] + [p.grad for p in block.parameters()])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("prenorm", [False, True], ids=["raw", "prenorm"])
@pytest.mark.parametrize("depth", [1, 3])
def test_loss_graph_size(monkeypatch, depth, prenorm):
    # Per block: 12 attention nodes (+1 with prenorm) and 4 MLP nodes.
    # Outside the blocks: the patch constant, the embedding, the pooling
    # mean, the head, and cross-entropy's two nodes.
    model = build_demo(_demo_config(SIN_SOFTMAX, depth, prenorm), seed=2)
    images = seeded_rng(12).normal(size=(3, 8, 8, 1))
    created = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    loss = cross_entropy(model.forward(images), np.array([0, 1, 2]))
    assert loss._parents
    assert len(created) == (16 + prenorm) * depth + 6


def test_non_finite_input_becomes_breakdown_signal():
    model = build_demo(_demo_config(), seed=4)
    bad = np.full((1, 8, 8, 1), np.nan)
    with pytest.raises(BreakdownSignal) as exc:
        model.forward(bad, step=7)
    assert exc.value.layer_index == 0
    assert exc.value.step == 7


def test_degenerate_prenorm_row_breakdown_carries_its_location():
    # A uniform image makes every token equal, so every raw score row is
    # constant and pre-normalization has nothing to whiten.
    model = build_demo(_demo_config(prenorm=True), seed=4)
    with pytest.raises(BreakdownSignal) as exc:
        model.forward(np.full((1, 8, 8, 1), 0.5), step=3)
    cause = exc.value.cause
    assert isinstance(cause, DegenerateRow) and isinstance(cause, ScoreError)
    assert exc.value.layer_index == 0 and exc.value.step == 3
    assert cause.index == 0 and cause.value <= EPS_VAR


# -- gradient taps -----------------------------------------------------


def _tapped_backward(tap, step, depth=2, seed=6):
    model = build_demo(_demo_config(depth=depth), seed=seed)
    model.tap = tap
    images = seeded_rng(13).normal(size=(2, 8, 8, 1))
    loss = cross_entropy(model.forward(images, step=step), np.array([0, 1]))
    loss.backward()
    return model


def test_taps_record_scores_inputs_and_gradients():
    # The harness's tap bins every element that a plain hook receives
    # on the same seed and step, as np.histogram does with x clamped
    # into the range.
    hists, calls = [], []
    _tapped_backward(partial(_bin_tap, hists, 3), step=3)
    _tapped_backward(lambda layer, xs, gs: calls.append((layer, xs, gs)),
                     step=3)
    assert [(h.step, h.layer_index) for h in hists] == [(3, 1), (3, 0)]
    for h, (layer, xs, gs) in zip(hists, calls):
        assert h.layer_index == layer
        x = np.clip(xs.ravel(), *TAP_RANGE)
        count, edges = np.histogram(x, bins=TAP_BINS, range=TAP_RANGE)
        total, _ = np.histogram(x, bins=TAP_BINS, range=TAP_RANGE,
                                weights=np.abs(gs.ravel()))
        assert [b["count"] for b in h.bins] == count.tolist()
        assert count.sum() == 2 * 2 * 16 * 16  # batch * heads * n * n
        mean = np.divide(total, count, out=np.zeros(TAP_BINS),
                         where=count > 0)
        np.testing.assert_allclose([b["mean_abs_grad"] for b in h.bins],
                                   mean, rtol=1e-12)
        np.testing.assert_allclose([b["x_center"] for b in h.bins],
                                   (edges[:-1] + edges[1:]) / 2, atol=1e-12)


def test_taps_are_deterministic_given_seed():
    a, b = [], []
    _tapped_backward(partial(_bin_tap, a, 1), step=1, depth=1, seed=41)
    _tapped_backward(partial(_bin_tap, b, 1), step=1, depth=1, seed=41)
    assert len(a) == 1 and a == b


def test_disabled_taps_record_nothing():
    hists = []
    model = build_demo(_demo_config(), seed=6)
    model.tap = partial(_bin_tap, hists, 1)
    model.tap = None
    images = seeded_rng(15).normal(size=(1, 8, 8, 1))
    cross_entropy(model.forward(images), np.array([0])).backward()
    assert hists == []


def test_tap_hook_receives_each_blocks_score_inputs_and_gradients():
    # Backward reaches the last block first; every score input of a
    # block arrives once, row-shaped, with its gradient.
    model = build_demo(_demo_config(depth=2), seed=6)
    calls = []
    model.tap = lambda layer, xs, gs: calls.append((layer, xs, gs))
    images = seeded_rng(16).normal(size=(2, 8, 8, 1))
    cross_entropy(model.forward(images), np.array([0, 1])).backward()
    assert [layer for layer, _, _ in calls] == [1, 0]
    for _, xs, gs in calls:
        assert xs.shape == gs.shape == (2, 2, 16, 16)
        assert np.all(np.isfinite(gs)) and np.any(gs != 0.0)
