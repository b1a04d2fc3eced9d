"""Unit tests for datasets, the training loop, and serialization."""

import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from periscore import harness
from periscore.autodiff import Tensor, no_grad, parameter
from periscore.harness import (
    TAP_BINS,
    Adam,
    AdamSpec,
    Breakdown,
    Cifar100Spec,
    CifarFormatError,
    Dataset,
    GradientHistogram,
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
    write_run_log,
)
from periscore.model import (
    AttentionConfig,
    BreakdownSignal,
    DemoConfig,
    DemoModel,
)
from periscore.scorefn import (
    SIN_MAX,
    SIN_SOFTMAX,
    SOFTMAX,
    NonFiniteDenominator,
    seeded_rng,
)

from ensemble import desk_config, train_all


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
    rng = seeded_rng(seed)
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


def test_cifar_loader_rejects_subset_larger_than_the_file(tmp_path):
    path = tmp_path / "train.bin"
    _write_cifar(path, 20)
    with pytest.raises(CifarFormatError, match="subset_size 1000 .* 20 "):
        load_cifar100(str(path), subset_size=1000)


@pytest.mark.parametrize("subset_size", [0, -1])
def test_cifar_loader_rejects_subset_below_one(tmp_path, subset_size):
    # Unchecked, records[:-1] would drop the last record and [:0] keep none.
    path = tmp_path / "train.bin"
    _write_cifar(path, 10)
    for p in (path, tmp_path / "missing.bin"):  # checked before the read
        with pytest.raises(ValueError, match="subset_size must be >= 1"):
            load_cifar100(str(p), subset_size=subset_size)


def test_cifar_loader_rejects_bad_labels(tmp_path):
    path = tmp_path / "bad.bin"
    rec = bytearray(harness.CIFAR_RECORD_BYTES)
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


@pytest.mark.parametrize("opt_cls, spec, reference", [
    (Adam, AdamSpec(lr=1e-2), _reference_adam),
], ids=["adam"])
def test_flat_optimizer_matches_per_parameter_reference(opt_cls, spec,
                                                        reference):
    rng = seeded_rng(20)
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
    return (parameter(np.ones(2)) * Tensor(np.ones(2)))._backward is not None


def test_eval_accuracy_restores_tracking():
    cfg = _config()
    model = DemoModel(cfg.demo, seed=1)
    data = build_dataset(cfg.dataset, seed=1)
    acc = _eval_accuracy(model, data, data.eval_idx, cfg.batch_size)
    assert 0.0 <= acc <= 1.0
    assert _tracking_on()

    bad = Dataset(images=np.full((4, 8, 8, 1), np.nan),
                  labels=np.zeros(4, dtype=np.int64),
                  train_idx=np.arange(2), eval_idx=np.arange(2, 4))
    with pytest.raises(BreakdownSignal):
        _eval_accuracy(model, bad, bad.eval_idx, cfg.batch_size)
    assert _tracking_on()


def test_eval_accuracy_is_the_same_for_every_batch_split():
    cfg = _config()
    model = DemoModel(cfg.demo, seed=1)
    data = build_dataset(cfg.dataset, seed=1)
    idx = data.eval_idx
    with no_grad():
        logits = model.forward(data.images[idx]).data
    want = float(np.mean(logits.argmax(axis=1) == data.labels[idx]))
    assert 0.0 < want < 1.0
    for batch in range(1, idx.size + 2):
        assert _eval_accuracy(model, data, idx, batch) == want, batch


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


def test_train_frees_each_steps_graph_before_the_next(monkeypatch):
    # Every ScoreRows a forward pass builds (one per block) must be gone
    # when a later forward pass, a training step or the final eval,
    # builds its own, so a step never holds an earlier step's graph.
    depth, built, alive = 2, [], []

    class Recorded(harness.tinynn.ScoreRows):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            earlier = built[:len(built) - len(built) % depth]
            alive.append(sum(r() is not None for r in earlier))
            built.append(weakref.ref(self))

    monkeypatch.setattr(harness.tinynn, "ScoreRows", Recorded)
    gc.disable()
    try:
        log = train(_config(steps=3, depth=depth))
    finally:
        gc.enable()
    assert log.breakdown is None
    assert len(built) > 3 * depth  # the eval built its own too
    assert alive == [0] * len(built)


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
    log = train(_config(steps=5))
    assert log.breakdown == Breakdown(step=1, cause="NonFiniteLoss")
    assert log.records == []
    assert log.final_eval_accuracy is None


def test_finite_gradients_whose_squares_overflow_are_a_runaway(monkeypatch):
    # A head of 1e306 gives finite gradients near 1e290, whose squares
    # overflow: the norm is finite, about 1e291, and the run breaks down
    # by GradNormRunaway, with no numpy warning on the way.
    real_build = harness.tinynn.build_demo

    def huge_head_build(demo, seed):
        built = real_build(demo, seed)
        built.w_head.data[...] = 1e306
        return built

    monkeypatch.setattr(harness.tinynn, "build_demo", huge_head_build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = train(_config(kind=SIN_SOFTMAX, steps=20))
    assert log.breakdown == Breakdown(step=10, cause="GradNormRunaway")
    norms = [r.grad_norm for r in log.records]
    assert len(norms) == 10
    assert all(1e290 < n < 1e292 for n in norms)


def test_runaway_streak_resets_on_a_step_below_the_norm(monkeypatch):
    # Nine steps past GRAD_RUNAWAY_NORM, one under it, then ten past it:
    # the streak starts again at step 11 and reaches 10 at step 20.
    norms = iter([2e6] * 9 + [1.0])
    monkeypatch.setattr(harness, "_grad_norm", lambda grads: next(norms, 2e6))
    log = train(_config(steps=30))
    assert log.breakdown == Breakdown(step=20, cause="GradNormRunaway")
    assert len(log.records) == 20


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


def test_train_all_is_serial_train_in_declared_order():
    # Each log must equal serial train's, so train is also deterministic.
    cfgs = [_config(depth=2, steps=4, tap_every=2),
            desk_config(SIN_MAX, 2, False, steps=60, seed=7, tap_every=5)]
    tapped, broke = train_all(cfgs)
    assert [tapped, broke] == [train(cfg) for cfg in cfgs]
    assert len(tapped.taps) == len(broke.taps) == 4
    # Depth-2 sin-max runs away: a breakdown is a result, not an exception.
    assert broke.breakdown.cause in ("NonFiniteLoss", "ScoreError",
                                     "GradNormRunaway")
    assert broke.final_eval_accuracy is None and len(broke.records) < 60


def test_a_runtime_warning_in_a_worker_fails_the_caller(monkeypatch):
    # A forked worker inherits the patch and pytest's warning filters.
    monkeypatch.setattr(harness, "build_dataset", lambda spec, seed:
                        warnings.warn("warned in a worker", RuntimeWarning))
    with pytest.raises(RuntimeWarning, match="warned in a worker"):
        train_all([_config(steps=1)])


def test_config_validation():
    with pytest.raises(ValueError):
        _config(steps=0)
    with pytest.raises(ValueError, match="tap_every"):
        _config(tap_every=-1)
    with pytest.raises(TypeError):
        _config(optimizer=object())
    with pytest.raises(ValueError):
        cfg = _config()
        cfg.batch_size = 1
        cfg.__post_init__()


@pytest.mark.parametrize("field, value, match", [
    ("num_classes", 2, r"labels up to 2 .* num_classes 2$"),
    ("input_shape", (16, 16, 1),
     r"shape \(8, 8, 1\) .* input_shape \(16, 16, 1\) "),
], ids=["label-past-num-classes", "image-shape"])
def test_train_rejects_a_demo_that_does_not_fit_its_dataset(field, value,
                                                             match):
    cfg = _config()
    cfg.demo = replace(cfg.demo, **{field: value})
    with pytest.raises(ValueError, match=match):
        train(cfg)


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
    with open(path, "w") as fh:
        write_run_log(log, fh)
    back = read_run_log(path)
    assert back.final_eval_accuracy == 0.75
    assert back.breakdown is None
    assert [(r.step, r.loss, r.acc, r.grad_norm)
            for r in back.records] == [(1, 0.5, 0.25, 2.0), (2, 0.4, 0.5, 1.5)]


def test_run_log_roundtrip_breakdown(tmp_path):
    log = TrainRunLog(records=[StepRecord(1, 0.5, 0.25, 2.0)],
                      breakdown=Breakdown(step=2, cause="GradNormRunaway"))
    path = tmp_path / "run.jsonl"
    with open(path, "w") as fh:
        write_run_log(log, fh)
    back = read_run_log(path)
    assert back.breakdown.step == 2
    assert back.breakdown.cause == "GradNormRunaway"
    assert back.final_eval_accuracy is None


def test_run_log_roundtrip_of_a_tapped_run(tmp_path):
    log = train(_config(depth=2, steps=4, tap_every=2))
    assert len(log.taps) == 4 and log.final_eval_accuracy is not None
    path = tmp_path / "run.jsonl"
    with open(path, "w") as fh:
        write_run_log(log, fh)
    assert read_run_log(path) == log


@pytest.mark.parametrize("line, error", [
    ('{"step": 2, "loss": 0.4, "grad_norm": 1.5}', "TypeError"),
    ('{"step": 2, "loss": 0.4, "acc": 0.5, "grad_norm": 1.5, "lr": 0.1}',
     "TypeError"),
    ("[2, 0.4, 0.5, 1.5]", "TypeError"),
    ('{"tap": {"step": 2}}', "TypeError"),
], ids=["missing-acc", "extra-key", "json-list", "tap-missing-fields"])
def test_read_run_log_rejects_malformed_line(tmp_path, line, error):
    path = tmp_path / "run.jsonl"
    path.write_text('{"step": 1, "loss": 0.5, "acc": 0.25, "grad_norm": 2.0}'
                    "\n" + line + "\n")
    with pytest.raises(ValueError) as exc:
        read_run_log(path)
    assert str(exc.value).startswith(
        f"{path} line 2: not a run-log record ({error}")


def test_run_log_tap_records(tmp_path):
    # Tap records come after the steps and before the terminal line, in
    # the order the taps ran, and a non-finite mean |grad| reads back.
    hists = [GradientHistogram(step=step, layer_index=layer, bins=[
        {"x_center": -0.5, "mean_abs_grad": mean, "count": 3}])
        for step, layer, mean in [(2, 1, 1.25), (2, 0, float("inf")),
                                  (1, 0, float("nan"))]]
    log = TrainRunLog(records=[StepRecord(1, 0.5, 0.25, 2.0)],
                      final_eval_accuracy=0.75, taps=hists)
    path = tmp_path / "run.jsonl"
    with open(path, "w") as fh:
        write_run_log(log, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == '{"step": 1, "loss": 0.5, "acc": 0.25, "grad_norm": 2.0}'
    assert lines[1:4] == [
        '{"tap": {"step": 2, "layer_index": 1, "bins": [{"x_center": -0.5, '
        '"mean_abs_grad": 1.25, "count": 3}]}}',
        '{"tap": {"step": 2, "layer_index": 0, "bins": [{"x_center": -0.5, '
        '"mean_abs_grad": Infinity, "count": 3}]}}',
        '{"tap": {"step": 1, "layer_index": 0, "bins": [{"x_center": -0.5, '
        '"mean_abs_grad": NaN, "count": 3}]}}']
    assert lines[-1] == '{"final_eval_accuracy": 0.75}'
    back = read_run_log(path)
    assert back.records == log.records and back.final_eval_accuracy == 0.75
    assert [(h.step, h.layer_index) for h in back.taps] == [
        (2, 1), (2, 0), (1, 0)]
    means = [h.bins[0]["mean_abs_grad"] for h in back.taps]
    assert means[:2] == [1.25, float("inf")] and math.isnan(means[2])
