"""Unit tests for the autodiff engine and the attention demo model."""

import math

import numpy as np
import pytest

from periscore.autodiff import Tensor, cross_entropy, no_grad, parameter
from periscore.model import (
    AttentionBlock,
    AttentionConfig,
    BreakdownSignal,
    DemoConfig,
    build_demo,
    export_attention,
    normalize_rows,
    score_rows,
)
from periscore.analysis import DegenerateRow
from periscore.harness import SyntheticSpec, TrainConfig, _tap_sampler
from periscore.scorefn import (
    ALL_KINDS,
    SIN_MAX,
    SIN_SOFTMAX,
    SIREN_MAX,
    SOFTMAX,
    DenominatorNearZero,
    jacobian,
)

from score_reference import (
    EXTRA_KINDS,
    kind_id,
    ref_vjp,
    ref_whiten,
    ref_whiten_jacobian,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


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
    w = parameter(_rng(0).normal(size=(4, 3)))
    b = parameter(np.zeros(3))
    loss = (Tensor(np.ones((4, 3))) * (w + b)).sum()
    loss.backward()
    np.testing.assert_allclose(b.grad, np.full(3, 4.0))


def test_matmul_gradients_match_finite_differences():
    a = parameter(_rng(1).normal(size=(2, 3, 4)))
    b = parameter(_rng(2).normal(size=(4, 5)))

    def run():
        return float(((a @ b) * (a @ b)).sum().data)

    loss = ((a @ b) * (a @ b)).sum()
    loss.backward()
    np.testing.assert_allclose(a.grad, _fd_grad(run, a.data), atol=1e-6)
    np.testing.assert_allclose(b.grad, _fd_grad(run, b.data), atol=1e-6)


def test_gelu_and_log_softmax_gradients():
    x = parameter(_rng(3).normal(size=(3, 5)))

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


def test_no_grad_records_no_graph():
    model = build_demo(_demo_config(kind=SIN_SOFTMAX, prenorm=True), seed=2)
    images = _rng(16).normal(size=(2, 8, 8, 1))
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
    x = _rng(4).normal(size=(2, 5))
    out = score_rows(Tensor(x), SIN_SOFTMAX)
    for i in range(2):
        np.testing.assert_allclose(out.data[i],
                                   scores(SIN_SOFTMAX, x[i]).scores,
                                   rtol=1e-14)


@pytest.mark.parametrize("kind", [SOFTMAX, SIN_MAX, SIN_SOFTMAX],
                         ids=lambda k: k.tag)
def test_score_rows_backward_matches_jacobian(kind):
    x = _rng(5).normal(size=(2, 4))
    t = parameter(x)
    g = _rng(6).normal(size=(2, 4))
    out = score_rows(t, kind)
    (out * Tensor(g)).sum().backward()
    for i in range(2):
        want = g[i] @ jacobian(kind, x[i]).entries
        np.testing.assert_allclose(t.grad[i], want, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS + tuple(EXTRA_KINDS.values()),
                         ids=kind_id)
def test_score_rows_backward_is_bitwise_the_reference(kind):
    # Inputs in (0.1, 1.2) keep sin and cos positive, so no guard fires.
    x = _rng(17).uniform(0.1, 1.2, size=(2, 3, 6))
    g = _rng(18).normal(size=x.shape)
    tapped = []
    t = parameter(x)
    out = score_rows(t, kind, tap_sink=lambda xs, gs: tapped.append((xs, gs)))
    (out * Tensor(g)).sum().backward()
    want = ref_vjp(kind, x, g)
    assert np.array_equal(t.grad, want)
    [(xs, gs)] = tapped
    assert np.array_equal(xs, x.ravel())
    assert np.array_equal(gs, want.ravel())


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


def test_score_rows_denominator_guard_carries_location():
    # sin(0.7) + sin(-0.7) = 0 exactly: the second row's denominators.
    x = np.array([[0.3, 0.5], [0.7, -0.7]])
    with pytest.raises(DenominatorNearZero) as exc:
        score_rows(Tensor(x), SIN_MAX)
    assert exc.value.index == 2
    assert exc.value.value == pytest.approx(0.0, abs=1e-12)


def test_normalize_rows_backward_matches_jacobian():
    x = _rng(7).normal(size=(3, 5))
    t = parameter(x)
    g = _rng(8).normal(size=(3, 5))
    (normalize_rows(t) * Tensor(g)).sum().backward()
    for i in range(3):
        want = g[i] @ ref_whiten_jacobian(x[i])
        np.testing.assert_allclose(t.grad[i], want, atol=1e-10)


@pytest.mark.parametrize("shape", [(2, 6), (3, 1, 5), (16, 4, 16, 16)],
                         ids=lambda s: "x".join(map(str, s)))
def test_normalize_rows_is_bitwise_the_reference(shape):
    x = _rng(19).normal(0.5, 2.0, size=shape)
    g = _rng(20).normal(size=shape)
    t = parameter(x)
    out = normalize_rows(t)
    (out * Tensor(g)).sum().backward()
    z, gz = ref_whiten(x, g)
    assert np.array_equal(out.data, z)
    assert np.array_equal(t.grad, gz)


def test_normalize_rows_rejects_a_constant_row():
    x = _rng(21).normal(size=(3, 4))
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
    images = _rng(9).normal(size=(3, 8, 8, 1))
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


def test_attention_forward_scores_are_rows_of_probabilities():
    cfg = AttentionConfig(embed_dim=8, num_heads=2, score_kind=SOFTMAX)
    block = AttentionBlock(cfg, _rng(2), layer_index=0)
    out = block.forward(Tensor(_rng(10).normal(size=(1, 5, 8))))
    assert out.shape == (1, 5, 8)
    assert block.last_scores.shape == (1, 2, 5, 5)
    np.testing.assert_allclose(block.last_scores.sum(axis=-1), 1.0,
                               atol=1e-12)


def test_export_attention_shapes():
    model = build_demo(_demo_config(depth=2), seed=3)
    maps = export_attention(model, _rng(11).normal(size=(8, 8, 1)))
    assert len(maps) == 2
    assert all(m.shape == (16, 16) for m in maps)


def test_non_finite_input_becomes_breakdown_signal():
    model = build_demo(_demo_config(), seed=4)
    bad = np.full((1, 8, 8, 1), np.nan)
    with pytest.raises(BreakdownSignal) as exc:
        model.forward(bad, step=7)
    assert exc.value.layer_index == 0
    assert exc.value.step == 7


# -- gradient taps -----------------------------------------------------


def _sampler(cap, seed, step, records):
    # The harness's per-step tap: at most `cap` samples per block, drawn
    # from seeded_rng(seed + step).
    cfg = TrainConfig(demo=_demo_config(), dataset=SyntheticSpec(),
                      seed=seed, tap_every=1, tap_cap=cap)
    return _tap_sampler(cfg, step, records)


def test_taps_record_scores_inputs_and_gradients():
    model = build_demo(_demo_config(depth=2), seed=6)
    records = []
    model.tap = _sampler(cap=10, seed=0, step=3, records=records)
    images = _rng(13).normal(size=(2, 8, 8, 1))
    loss = cross_entropy(model.forward(images, step=3), np.array([0, 1]))
    loss.backward()
    assert len(records) == 2  # one per attention block
    assert {r.layer_index for r in records} == {0, 1}
    for rec in records:
        assert rec.step == 3
        assert len(rec.samples) == 10  # cap < 2*16*16 available entries
        assert all(np.isfinite(v) for pair in rec.samples for v in pair)
    model.tap = None
    cross_entropy(model.forward(images), np.array([0, 1])).backward()
    assert len(records) == 2


def test_taps_are_deterministic_given_seed():
    def run():
        model = build_demo(_demo_config(), seed=6)
        records = []
        model.tap = _sampler(cap=5, seed=41, step=1, records=records)
        images = _rng(14).normal(size=(1, 8, 8, 1))
        cross_entropy(model.forward(images, step=1),
                      np.array([2])).backward()
        return records

    a, b = run(), run()
    assert [r.samples for r in a] == [r.samples for r in b]


def test_disabled_taps_record_nothing():
    model = build_demo(_demo_config(), seed=6)
    records = []
    model.tap = _sampler(cap=5, seed=0, step=1, records=records)
    model.tap = None
    images = _rng(15).normal(size=(1, 8, 8, 1))
    cross_entropy(model.forward(images), np.array([0])).backward()
    assert records == []


def test_tap_hook_receives_each_blocks_score_inputs_and_gradients():
    # Backward reaches the last block first; every score input of a
    # block arrives once, flat, with its gradient.
    model = build_demo(_demo_config(depth=2), seed=6)
    calls = []
    model.tap = lambda layer, xs, gs: calls.append((layer, xs, gs))
    images = _rng(16).normal(size=(2, 8, 8, 1))
    cross_entropy(model.forward(images), np.array([0, 1])).backward()
    assert [layer for layer, _, _ in calls] == [1, 0]
    for _, xs, gs in calls:
        assert xs.shape == gs.shape == (2 * 2 * 16 * 16,)
        assert np.all(np.isfinite(gs)) and np.any(gs != 0.0)
