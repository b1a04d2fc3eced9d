"""In-process span tracer for the benchmark's traced run.

`installed(tracer, ps)` swaps the public functions of each periscore
module (and the harness's evaluation helper) for wrappers that record
spans, and puts the originals back on exit.  Nothing under `src/` is
edited and nothing outside the calling process is touched; an untraced
run never enters `installed`, so it calls the original functions.

A span is `[name, start_ns, end_ns, parent, step, region]`: `parent` is
the index of the enclosing span (-1 at top level), `step` the training
step whose forward pass was running (None outside training steps), and
`region` the part of the demo model the work belongs to (patch_embed,
qkv, normalize_rows, score_rows, attn_sv, mlp, head), or None.
Backward closures carry the region of the forward op that created them.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT, STEP, REGION = range(6)
FIELDS = ("name", "start_ns", "end_ns", "parent", "step", "region")

# Spans whose self time is job glue rather than one layer's work: the
# benchmark's own operation, the training loop, and the CLI.  Their self
# time is what trace.coverage counts as unattributed.
OP = "bench.op"
GLUE = (OP, "harness.train", "cli")

MODEL_REGIONS = ("patch_embed", "qkv", "normalize_rows", "score_rows",
                 "attn_sv", "mlp", "head")


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.step = None
        self.region = None
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.step, self.region])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# -- wrappers ------------------------------------------------------------


def _spanned(tracer, name, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _timed_backward(tracer, name, back, region):
    def wrapper(g):
        saved = tracer.region
        tracer.region = region
        idx = tracer.open(name)
        try:
            return back(g)
        finally:
            tracer.close(idx)
            tracer.region = saved
    return wrapper


def _graph_op(tracer, name, fn, region=None, exit_region=None, count=None):
    """Span `name.fwd` around an op that returns a Tensor, and span
    `name.bwd` around the backward closure it attaches.

    `region`, when given, is the model region while the op runs;
    `exit_region` the region that follows it (default: the one before).
    `count`, when given, names a counter that adds the element count of
    the op's first argument during training steps.
    """
    fwd, bwd = name + ".fwd", name + ".bwd"

    def wrapper(*args, **kwargs):
        saved = tracer.region
        if region is not None:
            tracer.region = region
        if count is not None and tracer.step is not None:
            tracer.counts[count] += args[0].data.size
        idx = tracer.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.region = saved if exit_region is None else exit_region
        if out._backward is not None:
            out._backward = _timed_backward(tracer, bwd, out._backward,
                                            region or saved)
        return out
    return wrapper


def _in_region(tracer, name, fn, region, exit_region=None):
    """Span `name` with the model region set to `region` while it runs."""
    def wrapper(*args, **kwargs):
        saved = tracer.region
        tracer.region = region
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.region = saved if exit_region is None else exit_region
    return wrapper


def _model_forward(tracer, fn):
    # DemoModel.forward is called with step=<n> by the training loop and
    # without a step by evaluation; later spans inherit that step id.
    inner = _in_region(tracer, "model.forward", fn, "patch_embed")

    def wrapper(self, images, step=None):
        tracer.step = step
        return inner(self, images, step=step)
    return wrapper


def _outside_steps(tracer, name, fn):
    """Span `name` for work the training loop does outside its steps."""
    inner = _spanned(tracer, name, fn)

    def wrapper(*args, **kwargs):
        tracer.step = None
        return inner(*args, **kwargs)
    return wrapper


def _tensor_init(tracer, fn):
    def wrapper(self, *args, **kwargs):
        if tracer.step is not None:
            tracer.counts["autodiff.graph_nodes"] += 1
        fn(self, *args, **kwargs)
    return wrapper


def _diag_gradient(tracer, fn):
    inner = _spanned(tracer, "analysis.diag_gradient_fixed_m", fn)

    def wrapper(kind, m, x):
        tracer.counts["analysis.diag_gradient_fixed_m.points"] += \
            getattr(x, "size", 1)
        return inner(kind, m, x)
    return wrapper


def _patches(tracer, ps):
    """(owner, attribute, wrapper) for every function the trace wraps."""
    ad, md, hs = ps.autodiff, ps.model, ps.harness
    sf, an, cl = ps.scorefn, ps.analysis, ps.cli
    T = ad.Tensor
    o = vars(T)
    elementwise = _graph_op(tracer, "autodiff.elementwise", o["__add__"])
    multiply = _graph_op(tracer, "autodiff.elementwise", o["__mul__"])
    xent = _graph_op(tracer, "autodiff.cross_entropy", ad.cross_entropy)
    scores = _spanned(tracer, "scorefn.scores", sf.scores)
    jacobian = _spanned(tracer, "scorefn.jacobian", sf.jacobian)
    return [
        (T, "__init__", _tensor_init(tracer, o["__init__"])),
        (T, "__add__", elementwise),
        (T, "__radd__", elementwise),
        (T, "__mul__", multiply),
        (T, "__rmul__", multiply),
        (T, "__neg__", _graph_op(tracer, "autodiff.elementwise",
                                 o["__neg__"])),
        # __sub__ and mean are built from the ops above, which time
        # their own backward closures.
        (T, "__sub__", _spanned(tracer, "autodiff.elementwise.fwd",
                                o["__sub__"])),
        (T, "__matmul__", _graph_op(tracer, "autodiff.matmul",
                                    o["__matmul__"])),
        (T, "reshape", _graph_op(tracer, "autodiff.shape", o["reshape"])),
        (T, "transpose", _graph_op(tracer, "autodiff.shape",
                                   o["transpose"])),
        (T, "sum", _graph_op(tracer, "autodiff.shape", o["sum"])),
        (T, "mean", _spanned(tracer, "autodiff.shape.fwd", o["mean"])),
        (T, "gelu", _graph_op(tracer, "autodiff.gelu", o["gelu"])),
        (T, "log_softmax", _graph_op(tracer, "autodiff.cross_entropy",
                                     o["log_softmax"])),
        (T, "backward", _spanned(tracer, "autodiff.backward",
                                 o["backward"])),
        (ad, "cross_entropy", xent),
        (hs, "cross_entropy", xent),
        (md, "score_rows", _graph_op(tracer, "model.score_rows",
                                     md.score_rows, region="score_rows",
                                     exit_region="attn_sv",
                                     count="model.score_rows.elements")),
        (md, "normalize_rows", _graph_op(tracer, "model.normalize_rows",
                                         md.normalize_rows,
                                         region="normalize_rows")),
        (md.DemoModel, "forward", _model_forward(
            tracer, vars(md.DemoModel)["forward"])),
        (md.DemoModel, "patchify", _spanned(
            tracer, "model.patchify", vars(md.DemoModel)["patchify"])),
        (md.AttentionBlock, "forward", _in_region(
            tracer, "model.attention", vars(md.AttentionBlock)["forward"],
            "qkv", exit_region="head")),
        (md.MlpBlock, "forward", _in_region(
            tracer, "model.mlp_block", vars(md.MlpBlock)["forward"],
            "mlp", exit_region="head")),
        (md, "build_demo", _spanned(tracer, "model.build_demo",
                                    md.build_demo)),
        (hs, "train", _outside_steps(tracer, "harness.train", hs.train)),
        (hs, "build_dataset", _spanned(tracer, "harness.build_dataset",
                                       hs.build_dataset)),
        (hs, "_eval_accuracy", _outside_steps(tracer, "harness.eval",
                                              hs._eval_accuracy)),
        (hs.Adam, "step", _spanned(tracer, "harness.optimizer",
                                   vars(hs.Adam)["step"])),
        (sf, "scores", scores),
        (an, "scores", scores),
        (sf, "jacobian", jacobian),
        (an, "jacobian", jacobian),
        (sf, "finite_diff_jacobian", _spanned(
            tracer, "scorefn.finite_diff_jacobian", sf.finite_diff_jacobian)),
        (an, "saturation_fraction", _spanned(
            tracer, "analysis.saturation_fraction", an.saturation_fraction)),
        (an, "extremum_vs_m_curve", _spanned(
            tracer, "analysis.extremum_vs_m_curve", an.extremum_vs_m_curve)),
        (an, "extreme_diag_gradient", _spanned(
            tracer, "analysis.extreme_diag_gradient",
            an.extreme_diag_gradient)),
        (an, "diag_gradient_fixed_m", _diag_gradient(
            tracer, an.diag_gradient_fixed_m)),
        (an, "submersion_curve", _spanned(
            tracer, "analysis.submersion_curve", an.submersion_curve)),
        (cl, "main", _spanned(tracer, "cli", cl.main)),
    ]


@contextmanager
def installed(tracer, ps):
    """Wrap periscore's public functions for the duration of the block.

    `ps` is a namespace holding the periscore modules (autodiff, model,
    harness, scorefn, analysis, cli).
    """
    patches = _patches(tracer, ps)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------

# (metric, spans): self time summed over the spans.  Container spans
# such as model.attention are reported by call count only; their self
# time reaches the report through the model region metrics.
_TIMED = (
    ("autodiff.gelu.fwd_ms", ("autodiff.gelu.fwd",)),
    ("autodiff.gelu.bwd_ms", ("autodiff.gelu.bwd",)),
    ("autodiff.matmul.fwd_ms", ("autodiff.matmul.fwd",)),
    ("autodiff.matmul.bwd_ms", ("autodiff.matmul.bwd",)),
    ("autodiff.elementwise.fwd_ms", ("autodiff.elementwise.fwd",)),
    ("autodiff.elementwise.bwd_ms", ("autodiff.elementwise.bwd",)),
    ("autodiff.shape.fwd_ms", ("autodiff.shape.fwd",)),
    ("autodiff.shape.bwd_ms", ("autodiff.shape.bwd",)),
    ("autodiff.cross_entropy.ms", ("autodiff.cross_entropy.fwd",
                                   "autodiff.cross_entropy.bwd")),
    ("autodiff.backward.self_ms", ("autodiff.backward",)),
    ("model.score_rows.fwd_ms", ("model.score_rows.fwd",)),
    ("model.score_rows.bwd_ms", ("model.score_rows.bwd",)),
    ("model.normalize_rows.fwd_ms", ("model.normalize_rows.fwd",)),
    ("model.normalize_rows.bwd_ms", ("model.normalize_rows.bwd",)),
    ("harness.optimizer.ms", ("harness.optimizer",)),
    ("harness.train.self_ms", ("harness.train",)),
    ("scorefn.scores.self_s", ("scorefn.scores",)),
    ("scorefn.jacobian.self_s", ("scorefn.jacobian",)),
    ("scorefn.finite_diff_jacobian.self_s",
     ("scorefn.finite_diff_jacobian",)),
    ("analysis.saturation_fraction.self_s",
     ("analysis.saturation_fraction",)),
    ("analysis.diag_gradient_fixed_m.self_s",
     ("analysis.diag_gradient_fixed_m",)),
    ("analysis.submersion_curve.self_s",
     ("analysis.submersion_curve",)),
    ("cli.self_s", ("cli",)),
)

# Per-call inclusive times, reported in seconds per call.
_PER_CALL = (
    ("harness.eval_s", "harness.eval"),
    ("harness.build_dataset_s", "harness.build_dataset"),
)

SPAN_NAMES = (
    "autodiff.gelu.fwd", "autodiff.gelu.bwd",
    "autodiff.matmul.fwd", "autodiff.matmul.bwd",
    "autodiff.elementwise.fwd", "autodiff.elementwise.bwd",
    "autodiff.shape.fwd", "autodiff.shape.bwd",
    "autodiff.cross_entropy.fwd", "autodiff.cross_entropy.bwd",
    "autodiff.backward",
    "model.forward", "model.patchify", "model.attention", "model.mlp_block",
    "model.score_rows.fwd", "model.score_rows.bwd",
    "model.normalize_rows.fwd", "model.normalize_rows.bwd",
    "model.build_demo",
    "harness.train", "harness.build_dataset", "harness.eval",
    "harness.optimizer",
    "scorefn.scores", "scorefn.jacobian", "scorefn.finite_diff_jacobian",
    "analysis.saturation_fraction", "analysis.extremum_vs_m_curve",
    "analysis.extreme_diag_gradient", "analysis.diag_gradient_fixed_m",
    "analysis.submersion_curve",
    "cli",
)

COUNTERS = ("autodiff.graph_nodes", "model.score_rows.elements",
            "analysis.diag_gradient_fixed_m.points")


def metric_units():
    """{metric: unit} for every per-layer metric, in report order."""
    units = {}
    for metric, _ in _TIMED:
        units[metric] = "s" if metric.endswith("_s") else "ms"
    for metric in (f"model.{r}.ms" for r in MODEL_REGIONS):
        units[metric] = "ms"
    for metric, _ in _PER_CALL:
        units[metric] = "s"
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


def layer_metrics(tracer, per_step, traced_op_s, untraced_op_s):
    """Per-layer metrics from the spans of the traced operations.

    per_step: for the training workloads, ms metrics are per optimizer
    step and only spans inside a step count, plus the training loop's
    own self time.  Otherwise every metric is per operation; `_ms`
    metrics are then milliseconds per operation.
    traced_op_s / untraced_op_s: wall times of the alternating traced and
    untraced operations, for trace.overhead_frac.
    """
    spans = tracer.spans
    own = self_times(spans)
    n_ops = sum(1 for s in spans if s[NAME] == OP)
    if per_step:
        denom = sum(1 for s in spans
                    if s[NAME] == "model.forward" and s[STEP] is not None)
    else:
        denom = n_ops
    denom = max(denom, 1)

    calls = Counter()      # spans inside a step (or any, per operation)
    outside = Counter()    # per-step mode: spans outside every step
    self_ns = Counter()
    total_ns = Counter()
    region_ns = Counter()
    glue_ns = 0
    for s, t in zip(spans, own):
        name = s[NAME]
        total_ns[name] += s[END] - s[START]
        if name in GLUE:
            glue_ns += t
        if per_step and s[STEP] is None:
            outside[name] += 1
            if name == "harness.train":
                self_ns[name] += t
            continue
        calls[name] += 1
        self_ns[name] += t
        if s[REGION] is not None:
            region_ns[s[REGION]] += t

    out = {}
    for metric, names in _TIMED:
        ns = sum(self_ns[n] for n in names)
        out[metric] = ns / denom / (1e9 if metric.endswith("_s") else 1e6)
    for r in MODEL_REGIONS:
        out[f"model.{r}.ms"] = region_ns[r] / denom / 1e6
    for metric, name in _PER_CALL:
        n = calls[name] + outside[name]
        out[metric] = total_ns[name] / max(n, 1) / 1e9
    for name in SPAN_NAMES:
        # Spans that never run inside a step (evaluation, set-up inside
        # harness.train) are counted per operation instead.
        out[name + ".calls"] = (calls[name] / denom if calls[name]
                                else outside[name] / max(n_ops, 1))
    for name in COUNTERS:
        out[name] = tracer.counts[name] / denom
    out["trace.overhead_frac"] = (statistics.median(traced_op_s)
                                  / statistics.median(untraced_op_s) - 1.0)
    op_ns = total_ns[OP]
    out["trace.coverage"] = 1.0 - glue_ns / op_ns if op_ns else 0.0
    return out

