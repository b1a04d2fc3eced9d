"""Training harness: datasets, the loop, breakdown detection, gradient
tap histograms.

Breakdowns (non-finite loss, non-finite gradient, a score-function
guard firing inside a block, or sustained gradient-norm runaway) end the
run early and are recorded as results, not raised as failures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import model as tinynn
from .autodiff import cross_entropy, no_grad
from .model import BreakdownSignal, DemoConfig
from .scorefn import seeded_rng

GRAD_RUNAWAY_NORM = 1e6
GRAD_RUNAWAY_STEPS = 10

CIFAR_RECORD_BYTES = 3074  # coarse byte + fine byte + 3*32*32 pixels

TAP_BINS = 40
TAP_RANGE = (-10.0, 10.0)


@dataclass
class Dataset:
    images: np.ndarray   # (N, H, W, C), float64 in [0, 1]-ish range
    labels: np.ndarray   # (N,) integer class ids
    train_idx: np.ndarray
    eval_idx: np.ndarray


@dataclass
class SyntheticSpec:
    num_classes: int = 10
    samples_per_class: int = 100
    noise_sd: float = 0.1


@dataclass
class Cifar100Spec:
    path: str
    subset_size: int = 512


@dataclass
class AdamSpec:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999


@dataclass
class SgdSpec:
    lr: float = 1e-2
    momentum: float = 0.9


@dataclass
class TrainConfig:
    demo: DemoConfig
    dataset: object           # SyntheticSpec or Cifar100Spec
    optimizer: object = field(default_factory=AdamSpec)
    steps: int = 500
    batch_size: int = 16
    seed: int = 7
    tap_every: int = 0        # 0 = taps off

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.tap_every < 0:
            raise ValueError("tap_every must be >= 0")


@dataclass
class StepRecord:
    step: int
    loss: float
    train_accuracy: float
    grad_norm: float


@dataclass
class Breakdown:
    step: int
    # NonFiniteLoss | NonFiniteGrad | ScoreError | GradNormRunaway
    cause: str


@dataclass
class TrainRunLog:
    records: list
    breakdown: Breakdown | None = None
    final_eval_accuracy: float | None = None
    taps: list = field(default_factory=list)  # of GradientHistogram


@dataclass
class GradientHistogram:
    step: int
    layer_index: int
    bins: list  # of dicts {x_center, mean_abs_grad, count}


# -- datasets ----------------------------------------------------------


def _split_indices(n):
    # Deterministic 80/20 split: every fifth index goes to eval.
    idx = np.arange(n)
    eval_mask = (idx % 5) == 4
    return idx[~eval_mask], idx[eval_mask]


def make_synthetic(num_classes, samples_per_class, noise_sd, seed):
    """8x8x1 images: seeded class templates plus pixel noise."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    rng = seeded_rng(seed)
    templates = rng.normal(0.0, 1.0, size=(num_classes, 8, 8, 1))
    n = num_classes * samples_per_class
    # Contiguous class blocks so the index-based eval split stays
    # class-balanced.
    labels = np.arange(n) // samples_per_class
    images = templates[labels] + rng.normal(0.0, noise_sd, size=(n, 8, 8, 1))
    train_idx, eval_idx = _split_indices(n)
    return Dataset(images=images, labels=labels,
                   train_idx=train_idx, eval_idx=eval_idx)


class CifarFormatError(ValueError):
    pass


def load_cifar100(path, subset_size):
    """Parse CIFAR-100 binary records (coarse byte, fine byte, CHW pixels).

    Pixels are scaled to [0, 1] and reshaped to HWC; the first
    subset_size records are taken in file order.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise CifarFormatError(
            f"file length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    records = records[:subset_size]
    fine = records[:, 1].astype(np.int64)
    if np.any(fine >= 100):
        bad = int(np.argmax(fine >= 100))
        raise CifarFormatError(f"fine label {fine[bad]} >= 100 in record {bad}")
    pixels = records[:, 2:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    images = pixels.astype(np.float64) / 255.0
    train_idx, eval_idx = _split_indices(len(records))
    return Dataset(images=images, labels=fine,
                   train_idx=train_idx, eval_idx=eval_idx)


def build_dataset(spec, seed):
    if isinstance(spec, SyntheticSpec):
        return make_synthetic(spec.num_classes, spec.samples_per_class,
                              spec.noise_sd, seed)
    if isinstance(spec, Cifar100Spec):
        return load_cifar100(spec.path, spec.subset_size)
    raise TypeError(f"unknown dataset spec {type(spec).__name__}")


# -- optimizers --------------------------------------------------------


class _FlatParams:
    """All parameters in one float64 buffer, so an optimizer step is a few
    whole-buffer numpy calls instead of several per parameter.

    Construction copies each parameter into `flat` and rebinds its `data`
    to a view of it; the step then updates `flat` in place.  The
    elementwise arithmetic is the same as per parameter, so results are
    bitwise equal.
    """

    def __init__(self, params):
        self.params = params
        self.flat = np.empty(sum(p.data.size for p in params))
        self.grad = np.empty_like(self.flat)
        self.tmp = np.empty_like(self.flat)
        self._grad_views = []
        off = 0
        for p in params:
            n = p.data.size
            view = self.flat[off:off + n].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._grad_views.append(self.grad[off:off + n].reshape(view.shape))
            off += n

    def gather_grads(self):
        """Copy every p.grad into `grad` (zeros where it is None)."""
        for p, view in zip(self.params, self._grad_views):
            if p.grad is None:
                view.fill(0.0)
            else:
                view[...] = p.grad
        return self.grad


class Adam(_FlatParams):
    def __init__(self, params, spec):
        super().__init__(params)
        self.spec = spec
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.vhat = np.empty_like(self.flat)
        self.t = 0

    def step(self):
        s = self.spec
        self.t += 1
        g = self.gather_grads()
        m, v, mhat, vhat = self.m, self.v, self.tmp, self.vhat
        # m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        m *= s.beta1
        np.multiply(1 - s.beta1, g, out=mhat)
        m += mhat
        v *= s.beta2
        np.multiply(1 - s.beta2, g, out=vhat)
        vhat *= g
        v += vhat
        # p -= lr * mhat / (sqrt(vhat) + 1e-8)
        np.divide(m, 1 - s.beta1 ** self.t, out=mhat)
        np.divide(v, 1 - s.beta2 ** self.t, out=vhat)
        np.sqrt(vhat, out=vhat)
        vhat += 1e-8
        mhat *= s.lr
        mhat /= vhat
        self.flat -= mhat


class Sgd(_FlatParams):
    def __init__(self, params, spec):
        super().__init__(params)
        self.spec = spec
        self.buf = np.zeros_like(self.flat)

    def step(self):
        # buf = momentum*buf + g;  p -= lr*buf
        self.buf *= self.spec.momentum
        self.buf += self.gather_grads()
        np.multiply(self.spec.lr, self.buf, out=self.tmp)
        self.flat -= self.tmp


def _make_optimizer(params, spec):
    if isinstance(spec, AdamSpec):
        return Adam(params, spec)
    if isinstance(spec, SgdSpec):
        return Sgd(params, spec)
    raise TypeError(f"unknown optimizer spec {type(spec).__name__}")


# -- training ----------------------------------------------------------


def _eval_accuracy(model, data, idx, batch=64):
    correct = 0
    with no_grad():
        for start in range(0, idx.size, batch):
            sel = idx[start:start + batch]
            logits = model.forward(data.images[sel]).data
            correct += int((logits.argmax(axis=1) == data.labels[sel]).sum())
    return correct / idx.size if idx.size else float("nan")


def _bin_tap(histograms, step, layer_index, xs, gs):
    """A DemoModel.tap: bin every (x, |grad|) pair of one block's score
    inputs into TAP_BINS uniform bins over TAP_RANGE, x outside the range
    counting in the edge bins, and append the GradientHistogram."""
    lo, hi = TAP_RANGE
    width = (hi - lo) / TAP_BINS
    # Clip in float, then cast: casting a huge x first is undefined.
    which = np.clip((xs.ravel() - lo) / width, 0, TAP_BINS - 1).astype(int)
    count = np.bincount(which, minlength=TAP_BINS)
    total = np.bincount(which, weights=np.abs(gs.ravel()),
                        minlength=TAP_BINS)
    mean = np.divide(total, count, out=np.zeros(TAP_BINS), where=count > 0)
    centers = lo + (np.arange(TAP_BINS) + 0.5) * width
    histograms.append(GradientHistogram(
        step=step, layer_index=layer_index,
        bins=[{"x_center": float(c), "mean_abs_grad": float(m),
               "count": int(n)} for c, m, n in zip(centers, mean, count)]))


def train(cfg):
    """Run the loop; failures become breakdown entries in the log."""
    data = build_dataset(cfg.dataset, cfg.seed)
    model = tinynn.build_demo(cfg.demo, cfg.seed)
    opt = _make_optimizer(model.parameters(), cfg.optimizer)
    batch_rng = seeded_rng(cfg.seed + 1)
    log = TrainRunLog(records=[])
    runaway_streak = 0

    for step in range(1, cfg.steps + 1):
        sel = batch_rng.choice(data.train_idx, size=cfg.batch_size,
                               replace=False)
        tapping = cfg.tap_every > 0 and step % cfg.tap_every == 0
        model.tap = partial(_bin_tap, log.taps, step) if tapping else None
        model.zero_grad()
        try:
            logits = model.forward(data.images[sel], step=step)
            loss = cross_entropy(logits, data.labels[sel])
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                log.breakdown = Breakdown(step=step, cause="NonFiniteLoss")
                return log
            loss.backward()
        except BreakdownSignal:
            log.breakdown = Breakdown(step=step, cause="ScoreError")
            return log
        grad_sq = 0.0
        for p in model.parameters():
            if p.grad is not None:
                grad_sq += float((p.grad * p.grad).sum())
        grad_norm = math.sqrt(grad_sq)
        if not math.isfinite(grad_norm):
            log.breakdown = Breakdown(step=step, cause="NonFiniteGrad")
            return log
        acc = float((logits.data.argmax(axis=1) == data.labels[sel]).mean())
        log.records.append(StepRecord(step=step, loss=loss_val,
                                      train_accuracy=acc,
                                      grad_norm=grad_norm))
        if grad_norm > GRAD_RUNAWAY_NORM:
            runaway_streak += 1
            if runaway_streak >= GRAD_RUNAWAY_STEPS:
                log.breakdown = Breakdown(step=step, cause="GradNormRunaway")
                return log
        else:
            runaway_streak = 0
        opt.step()

    try:
        log.final_eval_accuracy = _eval_accuracy(model, data, data.eval_idx)
    except BreakdownSignal:
        log.breakdown = Breakdown(step=cfg.steps, cause="ScoreError")
    return log


# -- serialization -----------------------------------------------------


def write_run_log(log, path):
    """JSON Lines: one object per step, then the terminal object."""
    with open(path, "w") as fh:
        for r in log.records:
            fh.write(json.dumps({"step": r.step, "loss": r.loss,
                                 "acc": r.train_accuracy,
                                 "grad_norm": r.grad_norm}) + "\n")
        if log.breakdown is not None:
            fh.write(json.dumps({"breakdown": vars(log.breakdown)}) + "\n")
        else:
            fh.write(json.dumps(
                {"final_eval_accuracy": log.final_eval_accuracy}) + "\n")


def read_run_log(path):
    """Parse a run log; a malformed line raises ValueError naming the
    file and line."""
    log = TrainRunLog(records=[])
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
                if "breakdown" in obj:
                    log.breakdown = Breakdown(**obj["breakdown"])
                elif "final_eval_accuracy" in obj:
                    log.final_eval_accuracy = obj["final_eval_accuracy"]
                else:
                    log.records.append(StepRecord(
                        step=obj["step"], loss=obj["loss"],
                        train_accuracy=obj["acc"],
                        grad_norm=obj["grad_norm"]))
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{path} line {n}: not a run-log record "
                                 f"({type(err).__name__}: {err})") from None
    return log


def write_histograms(histograms, path):
    """CSV, one row per bin, ordered by step, then layer."""
    with open(path, "w") as fh:
        fh.write("step,layer,x_center,mean_abs_grad,count\n")
        for h in sorted(histograms, key=lambda h: (h.step, h.layer_index)):
            for b in h.bins:
                fh.write(f"{h.step},{h.layer_index},{b['x_center']!r},"
                         f"{b['mean_abs_grad']!r},{b['count']}\n")
