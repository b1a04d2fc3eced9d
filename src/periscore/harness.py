"""Training harness: datasets, the loop, breakdown detection, gradient
tap histograms, and the JSON Lines run log that holds all of them.

Breakdowns (non-finite loss, non-finite gradient, a score-function
guard firing inside a block, or sustained gradient-norm runaway) end the
run early and are recorded as results, not raised as failures, by the
one handler in `train` that builds a Breakdown.
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
    input_shape = (8, 8, 1)  # a class attribute, not a field
    num_classes: int = 10
    samples_per_class: int = 100
    noise_sd: float = 0.1


@dataclass
class Cifar100Spec:
    input_shape, num_classes = (32, 32, 3), 100  # not fields
    path: str
    subset_size: int = 512

    def __post_init__(self):
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")


# Two label bytes (coarse, fine), then the pixels.
CIFAR_RECORD_BYTES = 2 + math.prod(Cifar100Spec.input_shape)


@dataclass
class AdamSpec:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999


@dataclass
class TrainConfig:
    demo: DemoConfig
    dataset: object           # SyntheticSpec or Cifar100Spec
    optimizer: AdamSpec = field(default_factory=AdamSpec)
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
        if not isinstance(self.optimizer, AdamSpec):
            raise TypeError(
                f"unknown optimizer spec {type(self.optimizer).__name__}")


@dataclass
class StepRecord:
    step: int
    loss: float
    acc: float  # train accuracy on the step's batch
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
    """SyntheticSpec.input_shape images: class templates plus noise."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    rng, shape = seeded_rng(seed), SyntheticSpec.input_shape
    templates = rng.normal(0.0, 1.0, size=(num_classes, *shape))
    n = num_classes * samples_per_class
    # Contiguous class blocks so the index-based eval split stays
    # class-balanced.
    labels = np.arange(n) // samples_per_class
    images = templates[labels] + rng.normal(0.0, noise_sd, size=(n, *shape))
    train_idx, eval_idx = _split_indices(n)
    return Dataset(images=images, labels=labels,
                   train_idx=train_idx, eval_idx=eval_idx)


class CifarFormatError(ValueError):
    pass


def load_cifar100(path, subset_size):
    """Parse CIFAR-100 binary records (coarse byte, fine byte, CHW pixels).

    Pixels are scaled to [0, 1] and reshaped to HWC; the first
    subset_size (>= 1) records are taken in file order, and a file holding
    fewer raises CifarFormatError.
    """
    if subset_size < 1:
        raise ValueError("subset_size must be >= 1")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise CifarFormatError(
            f"file length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    if subset_size > len(records):
        raise CifarFormatError(f"subset_size {subset_size} exceeds the "
                               f"{len(records)} records in the file")
    records = records[:subset_size]
    fine, top = records[:, 1].astype(np.int64), Cifar100Spec.num_classes
    if np.any(fine >= top):
        bad = int(np.argmax(fine >= top))
        raise CifarFormatError(
            f"fine label {fine[bad]} >= {top} in record {bad}")
    h, w, c = Cifar100Spec.input_shape
    pixels = records[:, 2:].reshape(-1, c, h, w).transpose(0, 2, 3, 1)
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


# -- optimizer ---------------------------------------------------------


class Adam:
    """Adam over all parameters in one float64 buffer, so a step is a few
    whole-buffer numpy calls instead of several per parameter.

    Construction copies each parameter into `flat` and rebinds its `data`
    to a view of it; the step then updates `flat` in place.  The
    elementwise arithmetic is the same as per parameter, so results are
    bitwise equal.
    """

    def __init__(self, params, spec):
        self.params = params
        self.spec = spec
        self.flat = np.empty(sum(p.data.size for p in params))
        self.grad = np.empty_like(self.flat)
        self._grad_views = []
        off = 0
        for p in params:
            n = p.data.size
            view = self.flat[off:off + n].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._grad_views.append(self.grad[off:off + n].reshape(view.shape))
            off += n
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.mhat = np.empty_like(self.flat)
        self.vhat = np.empty_like(self.flat)
        self.t = 0

    def step(self):
        s = self.spec
        self.t += 1
        # Gather every p.grad into `grad` (zeros where it is None).
        for p, view in zip(self.params, self._grad_views):
            if p.grad is None:
                view.fill(0.0)
            else:
                view[...] = p.grad
        g, m, v, mhat, vhat = self.grad, self.m, self.v, self.mhat, self.vhat
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


# -- training ----------------------------------------------------------


def _eval_accuracy(model, data, idx, batch):
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


def _grad_norm(grads):
    """Global L2 norm of grads.  When the plain sum of squares overflows
    but every gradient is finite, the norm is taken again scaled by the
    largest |grad|.  So the norm is non-finite only for a non-finite
    gradient or a norm past the float maximum."""
    grad_sq = 0.0
    for g in grads:
        grad_sq += float((g * g).sum())
    norm = math.sqrt(grad_sq)
    if math.isinf(norm) and all(np.isfinite(g).all() for g in grads):
        top = max(float(np.abs(g).max()) for g in grads)
        norm = top * math.sqrt(sum(float(((g / top) ** 2).sum())
                                   for g in grads))
    return norm


class _Halt(Exception):
    """A breakdown found by train's own checks; args[0] is its cause."""


def train(cfg):
    """Run the loop.  Its own checks raise _Halt and a block's score guard
    BreakdownSignal; the one handler below records either as log.breakdown
    at the current step (cfg.steps for a guard firing in the final eval)."""
    data = build_dataset(cfg.dataset, cfg.seed)
    if data.train_idx.size < cfg.batch_size:
        raise ValueError(f"{data.train_idx.size} training images cannot "
                         f"fill a batch of {cfg.batch_size}")
    demo, shape, top = cfg.demo, data.images.shape[1:], data.labels.max()
    if shape != demo.input_shape or top >= demo.num_classes:
        raise ValueError(f"images of shape {shape} with labels up to {top} "
                         f"do not fit a demo of input_shape {demo.input_shape}"
                         f" and num_classes {demo.num_classes}")
    model = tinynn.build_demo(demo, cfg.seed)
    opt = Adam(model.parameters(), cfg.optimizer)
    batch_rng = seeded_rng(cfg.seed + 1)
    log = TrainRunLog(records=[])
    streak = 0  # consecutive steps with grad_norm > GRAD_RUNAWAY_NORM
    try:
        # Overflow in a step ends as a logged breakdown, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, cfg.steps + 1):
                sel = batch_rng.choice(data.train_idx, size=cfg.batch_size,
                                       replace=False)
                tapping = cfg.tap_every > 0 and step % cfg.tap_every == 0
                model.tap = (partial(_bin_tap, log.taps, step) if tapping
                             else None)
                model.zero_grad()
                logits = model.forward(data.images[sel], step=step)
                loss = cross_entropy(logits, data.labels[sel])
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    raise _Halt("NonFiniteLoss")
                loss.backward()
                grads = [p.grad for p in model.parameters()
                         if p.grad is not None]
                grad_norm = _grad_norm(grads)
                if not math.isfinite(grad_norm):
                    raise _Halt("NonFiniteGrad")
                hits = logits.data.argmax(axis=1) == data.labels[sel]
                log.records.append(StepRecord(step, loss_val,
                                              float(hits.mean()), grad_norm))
                streak = streak + 1 if grad_norm > GRAD_RUNAWAY_NORM else 0
                if streak >= GRAD_RUNAWAY_STEPS:
                    raise _Halt("GradNormRunaway")
                opt.step()
        log.final_eval_accuracy = _eval_accuracy(model, data, data.eval_idx,
                                                 cfg.batch_size)
    except (_Halt, BreakdownSignal) as err:
        cause = err.args[0] if isinstance(err, _Halt) else "ScoreError"
        log.breakdown = Breakdown(step=step, cause=cause)
    return log


# -- serialization -----------------------------------------------------


def write_run_log(log, fh):
    """JSON Lines to the open text file fh: the step objects, then the tap
    histograms in log.taps order, then the terminal object."""
    objs = [vars(r) for r in log.records]
    objs += [{"tap": vars(h)} for h in log.taps]
    objs.append({"final_eval_accuracy": log.final_eval_accuracy}
                if log.breakdown is None
                else {"breakdown": vars(log.breakdown)})
    fh.writelines(json.dumps(obj) + "\n" for obj in objs)


def read_run_log(path):
    """Parse a run log; a malformed line, such as a step line with a
    missing or unknown key, raises ValueError naming the file and line."""
    log = TrainRunLog(records=[])
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
                if "tap" in obj:
                    log.taps.append(GradientHistogram(**obj["tap"]))
                elif "breakdown" in obj:
                    log.breakdown = Breakdown(**obj["breakdown"])
                elif "final_eval_accuracy" in obj:
                    log.final_eval_accuracy = obj["final_eval_accuracy"]
                else:
                    log.records.append(StepRecord(**obj))
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path} line {n}: not a run-log record "
                                 f"({type(err).__name__}: {err})") from None
    return log
