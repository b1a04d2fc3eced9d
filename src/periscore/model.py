"""Attention demo with pluggable score functions.

A small LeViT-flavoured stack: linear patch embedding, `depth` blocks of
[multi-head attention + GELU MLP, both residual], mean pooling, linear
head.  The attention scores go through any of the eleven score-function
kinds, optionally pre-normalized row-wise.  DemoModel.tap, when set, is
handed each block's (score input, gradient) arrays during backprop; the
harness bins them into the run log's tap records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Tensor, linear, node, parameter
from .scorefn import (ScoreError, ScoreFunctionKind, ScoreRows, seeded_rng,
                      whiten_rows, whiten_vjp)

MLP_RATIO = 2.0  # MLP hidden width per embedding dimension


class BreakdownSignal(RuntimeError):
    """A ScoreError (any guard failure) inside an attention block."""

    def __init__(self, cause, layer_index, step=None):
        super().__init__(f"layer {layer_index}, step {step}: {cause}")
        self.cause = cause
        self.layer_index = layer_index
        self.step = step


@dataclass
class AttentionConfig:
    embed_dim: int
    num_heads: int
    score_kind: ScoreFunctionKind
    score_scale: str = "inv_dmodel"  # or "inv_sqrt_dmodel"
    prenormalize: bool = False

    def __post_init__(self):
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if self.score_scale not in ("inv_dmodel", "inv_sqrt_dmodel"):
            raise ValueError(f"unknown score_scale {self.score_scale!r}")


@dataclass
class DemoConfig:
    depth: int
    attention: AttentionConfig
    patch_size: int
    input_shape: tuple  # (H, W, C)
    num_classes: int = 10

    def __post_init__(self):
        h, w, _ = self.input_shape
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if h % self.patch_size or w % self.patch_size:
            raise ValueError("input height/width must be divisible by patch_size")


# -- differentiable row ops -------------------------------------------


def score_rows(t, kind, tap_sink=None):
    """Apply scores(kind, .) along the last axis of a Tensor.

    Guard violations raise the usual ScoreError subclasses at forward
    time.  Unlike scores() and jacobian(), siren-max is evaluated through
    its pole (ScoreRows with through_pole=True): the normalized score and
    its gradient stay finite and smooth there, so training need not abort.
    tap_sink, when given, is called during backward with the row-shaped
    (inputs, gradients) arrays of this call site.
    """
    x = t.data
    rows = ScoreRows(kind, x, through_pole=True)

    def back(g):
        gx = rows.vjp(g)
        if tap_sink is not None:
            tap_sink(x, gx)
        return ((t, gx),)

    return node(rows.scores(), (t,), back)


def normalize_rows(t):
    """Whiten the last axis of a Tensor (population variance)."""
    z, sigma = whiten_rows(t.data)
    return node(z, (t,), lambda g: ((t, whiten_vjp(z, sigma, g)),))


# Attention's reshapes and q.kT, each one node that makes the same numpy
# calls, in the same order, as the chain of generic ops it stands for.


def _split_heads(t, heads):
    """(B, n, d) -> (B, heads, n, d / heads)."""
    b, n, d = t.shape
    out = np.transpose(t.data.reshape(b, n, heads, d // heads), (0, 2, 1, 3))
    return node(out, (t,), lambda g: (
        (t, np.transpose(g, (0, 2, 1, 3)).reshape(t.shape)),))


def _merge_heads(t):
    """(B, heads, n, dh) -> (B, n, heads * dh), the inverse of _split_heads."""
    b, h, n, dh = t.shape
    out = np.transpose(t.data, (0, 2, 1, 3)).reshape(b, n, h * dh)
    return node(out, (t,), lambda g: (
        (t, np.transpose(g.reshape(b, n, h, dh), (0, 2, 1, 3))),))


def _scaled_logits(q, k, scale):
    """(q @ kT) * scale for a constant float scale."""
    kt = np.transpose(k.data, (0, 1, 3, 2))

    def back(g):
        gs = g * scale
        return ((q, gs @ np.swapaxes(kt, -1, -2)),
                (k, np.transpose(np.swapaxes(q.data, -1, -2) @ gs,
                                 (0, 1, 3, 2))))

    return node((q.data @ kt) * scale, (q, k), back)


# -- layers ------------------------------------------------------------


def _linear_init(rng, fan_in, fan_out):
    """A linear layer's (weight, bias): weights drawn from rng with
    sd 1/sqrt(fan_in), and a zero bias."""
    return (parameter(rng.normal(0.0, 1.0 / math.sqrt(fan_in),
                                 size=(fan_in, fan_out))),
            parameter(np.zeros(fan_out)))


class AttentionBlock:
    def __init__(self, cfg, rng, layer_index):
        d = cfg.embed_dim
        self.cfg = cfg
        self.layer_index = layer_index
        self.wq, self.bq = _linear_init(rng, d, d)
        self.wk, self.bk = _linear_init(rng, d, d)
        self.wv, self.bv = _linear_init(rng, d, d)
        self.wo, self.bo = _linear_init(rng, d, d)

    def parameters(self):
        return [self.wq, self.bq, self.wk, self.bk,
                self.wv, self.bv, self.wo, self.bo]

    def forward(self, x, step=None, tap=None):
        cfg = self.cfg
        d, h = cfg.embed_dim, cfg.num_heads
        q = _split_heads(linear(x, self.wq, self.bq), h)
        k = _split_heads(linear(x, self.wk, self.bk), h)
        scale = 1.0 / d if cfg.score_scale == "inv_dmodel" else 1.0 / math.sqrt(d)
        raw = _scaled_logits(q, k, scale)
        sink = None if tap is None else partial(tap, self.layer_index)
        try:
            if cfg.prenormalize:
                raw = normalize_rows(raw)
            s = score_rows(raw, cfg.score_kind, tap_sink=sink)
        except ScoreError as err:
            raise BreakdownSignal(err, self.layer_index, step) from err
        # Last, so reverse-creation backward ends v before the score VJP peak.
        v = _split_heads(linear(x, self.wv, self.bv), h)
        return linear(_merge_heads(s @ v), self.wo, self.bo)


class MlpBlock:
    def __init__(self, dim, rng):
        hidden = int(round(dim * MLP_RATIO))
        self.w1, self.b1 = _linear_init(rng, dim, hidden)
        self.w2, self.b2 = _linear_init(rng, hidden, dim)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, x):
        return linear(linear(x, self.w1, self.b1).gelu(), self.w2, self.b2)


class DemoModel:
    """Patch embed -> depth x [attention, MLP] (residual) -> pool -> head."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        rng = seeded_rng(seed)
        h, w, c = cfg.input_shape
        p = cfg.patch_size
        self.n_tokens = (h // p) * (w // p)
        patch_dim = p * p * c
        d = cfg.attention.embed_dim
        self.w_embed, self.b_embed = _linear_init(rng, patch_dim, d)
        self.blocks = [(AttentionBlock(cfg.attention, rng, i),
                        MlpBlock(d, rng)) for i in range(cfg.depth)]
        self.w_head, self.b_head = _linear_init(rng, d, cfg.num_classes)
        # None, or tap(layer_index, xs, gs): called during backward with
        # each block's score inputs and their gradients, row-shaped.
        self.tap = None

    def parameters(self):
        params = [self.w_embed, self.b_embed]
        for attn, mlp in self.blocks:
            params.extend(attn.parameters())
            params.extend(mlp.parameters())
        params.extend([self.w_head, self.b_head])
        return params

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def patchify(self, images):
        """(B, H, W, C) -> (B, n_tokens, patch_dim), non-overlapping patches."""
        images = np.asarray(images, dtype=np.float64)
        b, h, w, c = images.shape
        p = self.cfg.patch_size
        x = images.reshape(b, h // p, p, w // p, p, c)
        x = x.transpose(0, 1, 3, 2, 4, 5)
        return x.reshape(b, self.n_tokens, p * p * c)

    def forward(self, images, step=None):
        x = linear(Tensor(self.patchify(images)), self.w_embed, self.b_embed)
        for attn, mlp in self.blocks:
            x = x + attn.forward(x, step=step, tap=self.tap)
            x = x + mlp.forward(x)
        pooled = x.mean(axis=1)
        return linear(pooled, self.w_head, self.b_head)


def build_demo(cfg, seed):
    return DemoModel(cfg, seed)
