"""Unit tests for datasets, the training loop, and serialization."""

import warnings

import numpy as np
import pytest

from periscore import harness
from periscore.autodiff import Tensor, parameter
from periscore.harness import (
    TAP_BINS,
    Adam,
    AdamSpec,
    Breakdown,
    Cifar100Spec,
    CifarFormatError,
    Dataset,
    GradientHistogram,
    Sgd,
    SgdSpec,
    StepRecord,
    SyntheticSpec,
    TrainConfig,
    TrainRunLog,
    _bin_tap,
    _eval_accuracy,
    build_dataset,
    load_cifar100,
    make_synthetic,
    read_run_log,
    train,
    write_histograms,
    write_run_log,
)
from periscore.model import (
    AttentionConfig,
    BreakdownSignal,
    DemoConfig,
    DemoModel,
)
from periscore.scorefn import SIN_MAX, SOFTMAX, NonFiniteDenominator


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# -- synthetic dataset -------------------------------------------------


def test_synthetic_shapes_and_split():
    data = make_synthetic(num_classes=5, samples_per_class=20,
                          noise_sd=0.1, seed=7)
    assert data.images.shape == (100, 8, 8, 1)
    assert data.labels.shape == (100,)
    assert data.train_idx.size == 80
    assert data.eval_idx.size == 20
    assert not np.intersect1d(data.train_idx, data.eval_idx).size
    # Every class appears in both splits.
    assert set(data.labels[data.train_idx]) == set(range(5))
    assert set(data.labels[data.eval_idx]) == set(range(5))


def test_synthetic_is_seed_deterministic():
    a = make_synthetic(3, 10, 0.1, seed=1)
    b = make_synthetic(3, 10, 0.1, seed=1)
    c = make_synthetic(3, 10, 0.1, seed=2)
    np.testing.assert_array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_rejects_single_class():
    with pytest.raises(ValueError):
        make_synthetic(1, 10, 0.1, seed=0)


# -- CIFAR-100 binary loader -------------------------------------------


def _write_cifar(path, n, seed=0):
    rng = _rng(seed)
    fine = rng.integers(0, 100, size=n, dtype=np.uint8)
    pixels = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    blob = bytearray()
    for i in range(n):
        blob.append(int(rng.integers(0, 20)))
        blob.append(int(fine[i]))
        blob.extend(pixels[i].tobytes())
    path.write_bytes(bytes(blob))
    return fine, pixels


def test_cifar_loader_parses_records(tmp_path):
    path = tmp_path / "train.bin"
    fine, pixels = _write_cifar(path, 6)
    data = load_cifar100(str(path), subset_size=5)
    assert data.images.shape == (5, 32, 32, 3)
    assert data.images.min() >= 0.0 and data.images.max() <= 1.0
    np.testing.assert_array_equal(data.labels, fine[:5])
    np.testing.assert_array_equal(
        data.images, pixels[:5].transpose(0, 2, 3, 1) / 255.0)


def test_cifar_loader_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(CifarFormatError):
        load_cifar100(str(path), subset_size=1)


def test_cifar_loader_rejects_bad_labels(tmp_path):
    path = tmp_path / "bad.bin"
    rec = bytearray(3074)
    rec[1] = 200  # fine label out of range
    path.write_bytes(bytes(rec))
    with pytest.raises(CifarFormatError):
        load_cifar100(str(path), subset_size=1)


def test_build_dataset_dispatch(tmp_path):
    assert build_dataset(SyntheticSpec(num_classes=2, samples_per_class=5),
                         seed=0).images.shape == (10, 8, 8, 1)
    path = tmp_path / "c.bin"
    _write_cifar(path, 2)
    spec = Cifar100Spec(path=str(path), subset_size=2)
    assert build_dataset(spec, seed=0).images.shape == (2, 32, 32, 3)


# -- optimizers --------------------------------------------------------


def _reference_adam(datas, grads_per_step, spec):
    """Adam one parameter at a time, as a list of separate arrays."""
    m = [np.zeros_like(d) for d in datas]
    v = [np.zeros_like(d) for d in datas]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            g = g if g is not None else np.zeros_like(datas[i])
            m[i] = spec.beta1 * m[i] + (1 - spec.beta1) * g
            v[i] = spec.beta2 * v[i] + (1 - spec.beta2) * g * g
            mhat = m[i] / (1 - spec.beta1 ** t)
            vhat = v[i] / (1 - spec.beta2 ** t)
            datas[i] = datas[i] - spec.lr * mhat / (np.sqrt(vhat) + 1e-8)
    return datas


def _reference_sgd(datas, grads_per_step, spec):
    buf = [np.zeros_like(d) for d in datas]
    for grads in grads_per_step:
        for i, g in enumerate(grads):
            g = g if g is not None else np.zeros_like(datas[i])
            buf[i] = spec.momentum * buf[i] + g
            datas[i] = datas[i] - spec.lr * buf[i]
    return datas


@pytest.mark.parametrize("opt_cls, spec, reference", [
    (Adam, AdamSpec(lr=1e-2), _reference_adam),
    (Sgd, SgdSpec(lr=1e-2, momentum=0.9), _reference_sgd),
], ids=["adam", "sgd"])
def test_flat_optimizer_matches_per_parameter_reference(opt_cls, spec,
                                                        reference):
    rng = _rng(20)
    shapes = [(4, 3), (3,), (2, 5), (5,)]
    # Small parameters next to lr-sized updates, so the last bits of each
    # update reach the parameters instead of rounding away.
    inits = [1e-3 * rng.normal(size=s) for s in shapes]
    params = [parameter(d.copy()) for d in inits]
    # The third parameter never gets a gradient, as when a graph does
    # not reach it.
    grads_per_step = [[rng.normal(size=s) if i != 2 else None
                       for i, s in enumerate(shapes)] for _ in range(4)]
    opt = opt_cls(params, spec)
    for grads in grads_per_step:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
    want = reference([d.copy() for d in inits], grads_per_step, spec)
    for p, w, d in zip(params, want, inits):
        assert p.data.shape == d.shape
        assert np.array_equal(p.data, w)
    # A zero gradient leaves its parameter where it started.
    assert np.array_equal(params[2].data, inits[2])


# -- evaluation --------------------------------------------------------


def _tracking_on():
    return bool((parameter(np.ones(2)) * Tensor(np.ones(2)))._parents)


def test_eval_accuracy_restores_tracking():
    cfg = _config()
    model = DemoModel(cfg.demo, seed=1)
    data = build_dataset(cfg.dataset, seed=1)
    acc = _eval_accuracy(model, data, data.eval_idx)
    assert 0.0 <= acc <= 1.0
    assert _tracking_on()

    bad = Dataset(images=np.full((4, 8, 8, 1), np.nan),
                  labels=np.zeros(4, dtype=np.int64),
                  train_idx=np.arange(2), eval_idx=np.arange(2, 4))
    with pytest.raises(BreakdownSignal):
        _eval_accuracy(model, bad, bad.eval_idx)
    assert _tracking_on()


# -- training loop -----------------------------------------------------


def _config(kind=SOFTMAX, steps=20, depth=1, optimizer=None, **kwargs):
    attn = AttentionConfig(embed_dim=16, num_heads=2, score_kind=kind)
    demo = DemoConfig(depth=depth, attention=attn, patch_size=2,
                      input_shape=(8, 8, 1), num_classes=3)
    dataset = SyntheticSpec(num_classes=3, samples_per_class=20)
    return TrainConfig(demo=demo, dataset=dataset, steps=steps,
                       batch_size=8, seed=5,
                       optimizer=optimizer or AdamSpec(), **kwargs)


def test_train_records_every_step_and_evaluates():
    log = train(_config(steps=15))
    assert len(log.records) == 15
    assert log.breakdown is None
    assert 0.0 <= log.final_eval_accuracy <= 1.0
    assert log.records[0].step == 1 and log.records[-1].step == 15
    assert all(np.isfinite(r.loss) for r in log.records)
    # Adam on an easy 3-class task should make clear progress.
    assert log.records[-1].loss < log.records[0].loss


def test_train_is_deterministic():
    a = train(_config(steps=10))
    b = train(_config(steps=10))
    assert [r.loss for r in a.records] == [r.loss for r in b.records]
    assert a.final_eval_accuracy == b.final_eval_accuracy


def test_train_with_sgd():
    log = train(_config(steps=5, optimizer=SgdSpec(lr=1e-3)))
    assert len(log.records) == 5


def test_train_breakdown_is_a_result_not_an_exception():
    # Depth-2 sin-max reliably hits sustained gradient-norm runaway.
    attn = AttentionConfig(embed_dim=32, num_heads=2, score_kind=SIN_MAX)
    demo = DemoConfig(depth=2, attention=attn, patch_size=2,
                      input_shape=(8, 8, 1), num_classes=10)
    cfg = TrainConfig(demo=demo, dataset=SyntheticSpec(), steps=60, seed=7)
    log = train(cfg)
    assert log.breakdown is not None
    assert log.breakdown.cause in ("NonFiniteLoss", "ScoreError",
                                   "GradNormRunaway")
    assert log.final_eval_accuracy is None
    assert len(log.records) < 60


def test_non_finite_gradient_with_finite_loss_is_non_finite_grad(
        monkeypatch):
    # Cross-entropy's backward hands back NaN while its value stays finite.
    real = harness.cross_entropy

    def nan_backward(logits, labels):
        loss = real(logits, labels)
        back = loss._backward
        loss._backward = lambda g: tuple((t, np.full_like(pg, np.nan))
                                         for t, pg in back(g))
        return loss

    monkeypatch.setattr(harness, "cross_entropy", nan_backward)
    log = train(_config(steps=5))
    assert log.breakdown == Breakdown(step=1, cause="NonFiniteGrad")
    assert log.records == []


def test_non_finite_loss_is_a_breakdown(monkeypatch):
    # A head this large overflows the logits to inf after the attention
    # blocks have scored their rows, so the loss is NaN, not a ScoreError.
    real_build = harness.tinynn.build_demo

    def huge_head_build(demo, seed):
        built = real_build(demo, seed)
        built.w_head.data *= 1e308
        return built

    monkeypatch.setattr(harness.tinynn, "build_demo", huge_head_build)
    with np.errstate(over="ignore", invalid="ignore"):
        log = train(_config(steps=5))
    assert log.breakdown == Breakdown(step=1, cause="NonFiniteLoss")
    assert log.records == []
    assert log.final_eval_accuracy is None


def _blow_up_attention(model, factor=1e3):
    # Raw scores of order 1e5 overflow softmax's unshifted exp.
    for attn, _ in model.blocks:
        attn.wq.data *= factor
        attn.wk.data *= factor


def test_softmax_overflow_in_training_is_a_score_error(monkeypatch):
    cfg = _config(steps=5)
    model = harness.tinynn.build_demo(cfg.demo, cfg.seed)
    _blow_up_attention(model)
    data = build_dataset(cfg.dataset, cfg.seed)
    with pytest.raises(BreakdownSignal) as err:
        model.forward(data.images[:8], step=1)
    assert isinstance(err.value.cause, NonFiniteDenominator)

    real_build = harness.tinynn.build_demo

    def blown_up_build(demo, seed):
        built = real_build(demo, seed)
        _blow_up_attention(built)
        return built

    monkeypatch.setattr(harness.tinynn, "build_demo", blown_up_build)
    log = train(cfg)
    assert log.breakdown == Breakdown(step=1, cause="ScoreError")
    assert log.records == []
    assert log.final_eval_accuracy is None


def test_score_error_in_final_eval_is_a_breakdown(monkeypatch):
    # The last optimizer step leaves weights the eval forward cannot score.
    built = []
    real_build = harness.tinynn.build_demo
    real_step = harness.Adam.step

    def build(demo, seed):
        built.append(real_build(demo, seed))
        return built[-1]

    def step_then_blow_up(self):
        real_step(self)
        _blow_up_attention(built[0])

    monkeypatch.setattr(harness.tinynn, "build_demo", build)
    monkeypatch.setattr(harness.Adam, "step", step_then_blow_up)
    log = train(_config(steps=1))
    assert [r.step for r in log.records] == [1]
    assert log.breakdown == Breakdown(step=1, cause="ScoreError")
    assert log.final_eval_accuracy is None


def test_train_taps_fire_on_schedule():
    log = train(_config(steps=6, tap_every=3))
    assert [h.step for h in log.taps] == [3, 6]
    # Every score input is binned: batch 8 * 2 heads * 16 * 16 tokens.
    for h in log.taps:
        assert len(h.bins) == TAP_BINS
        assert sum(b["count"] for b in h.bins) == 8 * 2 * 16 * 16


def test_train_taps_run_in_backward_order():
    # Backward reaches the last block first, so each tapped step lists
    # layer 1 before layer 0.
    log = train(_config(depth=2, steps=4, tap_every=2))
    assert [(h.step, h.layer_index) for h in log.taps] == [
        (2, 1), (2, 0), (4, 1), (4, 0)]


def test_train_taps_are_deterministic():
    a = train(_config(depth=2, steps=4, tap_every=2))
    b = train(_config(depth=2, steps=4, tap_every=2))
    assert a.taps == b.taps
    assert len(a.taps) == 4


def test_config_validation():
    with pytest.raises(ValueError):
        _config(steps=0)
    with pytest.raises(ValueError, match="tap_every"):
        _config(tap_every=-1)
    with pytest.raises(ValueError):
        cfg = _config()
        cfg.batch_size = 1
        cfg.__post_init__()


# -- tap binning -------------------------------------------------------


def test_bin_tap_bins_and_clamps():
    # x is clipped in float before the cast to a bin index, so +-1e20
    # land in the edge bins without an invalid-cast warning.
    hists = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _bin_tap(hists, 2, 1, np.array([[-1e20, 0.1], [0.2, 1e20]]),
                 np.array([[2.0, -1.0], [3.0, -5.0]]))
    [h] = hists
    assert (h.step, h.layer_index) == (2, 1)
    first, middle, last = h.bins[0], h.bins[TAP_BINS // 2], h.bins[-1]
    assert (first["x_center"], first["count"], first["mean_abs_grad"]) == (
        -9.75, 1, 2.0)
    assert (middle["x_center"], middle["count"], middle["mean_abs_grad"]) == (
        0.25, 2, 2.0)
    assert (last["x_center"], last["count"], last["mean_abs_grad"]) == (
        9.75, 1, 5.0)
    assert sum(b["count"] for b in h.bins) == 4


# -- serialization -----------------------------------------------------


def test_run_log_roundtrip_completed(tmp_path):
    log = TrainRunLog(records=[StepRecord(1, 0.5, 0.25, 2.0),
                               StepRecord(2, 0.4, 0.5, 1.5)],
                      final_eval_accuracy=0.75)
    path = tmp_path / "run.jsonl"
    write_run_log(log, path)
    back = read_run_log(path)
    assert back.final_eval_accuracy == 0.75
    assert back.breakdown is None
    assert [(r.step, r.loss, r.train_accuracy, r.grad_norm)
            for r in back.records] == [(1, 0.5, 0.25, 2.0), (2, 0.4, 0.5, 1.5)]


def test_run_log_roundtrip_breakdown(tmp_path):
    log = TrainRunLog(records=[StepRecord(1, 0.5, 0.25, 2.0)],
                      breakdown=Breakdown(step=2, cause="GradNormRunaway"))
    path = tmp_path / "run.jsonl"
    write_run_log(log, path)
    back = read_run_log(path)
    assert back.breakdown.step == 2
    assert back.breakdown.cause == "GradNormRunaway"
    assert back.final_eval_accuracy is None


@pytest.mark.parametrize("line, error", [
    ('{"step": 2, "loss": 0.4, "grad_norm": 1.5}', "KeyError"),
    ("[2, 0.4, 0.5, 1.5]", "TypeError"),
], ids=["missing-acc", "json-list"])
def test_read_run_log_rejects_malformed_line(tmp_path, line, error):
    path = tmp_path / "run.jsonl"
    path.write_text('{"step": 1, "loss": 0.5, "acc": 0.25, "grad_norm": 2.0}'
                    "\n" + line + "\n")
    with pytest.raises(ValueError) as exc:
        read_run_log(path)
    assert str(exc.value).startswith(
        f"{path} line 2: not a run-log record ({error}")


def test_write_histograms_csv(tmp_path):
    # Rows come out by step, then layer, whatever order the taps ran in.
    hists = [GradientHistogram(step=step, layer_index=layer, bins=[
        {"x_center": -0.5, "mean_abs_grad": 1.25, "count": 3}])
        for step, layer in [(2, 1), (2, 0), (1, 0)]]
    path = tmp_path / "hist.csv"
    write_histograms(hists, path)
    lines = path.read_text().splitlines()
    assert lines == ["step,layer,x_center,mean_abs_grad,count",
                     "1,0,-0.5,1.25,3", "2,0,-0.5,1.25,3", "2,1,-0.5,1.25,3"]
