"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tape-free graph style: each Tensor remembers its parents and a closure
that routes its output adjoint back to them.  backward() topologically
sorts the graph reachable from a scalar loss and runs the closures in
reverse.  Everything is float64 and single-threaded per graph.
Inside `no_grad()` ops record no graph, for forward passes that are
never differentiated.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Run ops without recording parents or backward closures."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def values(self):
        """Flat row-major view of the data."""
        return self.data.ravel()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    def _track(self, *parents):
        return _grad_enabled and any(p.requires_grad or p._parents
                                     for p in parents)

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Depth-first post-order over the parents, with an explicit stack
        # so deep graphs do not hit the recursion limit.
        order = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                order.append(t)
        grads = {id(self): np.ones_like(self.data)}
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g
            if t._backward is None:
                continue
            for parent, pg in t._backward(g):
                if parent.requires_grad or parent._parents:
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg

    def zero_grad(self):
        self.grad = None

    # -- elementwise ---------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data)
        if self._track(self, other):
            out._parents = (self, other)
            out._backward = lambda g: (
                (self, _unbroadcast(g, self.shape)),
                (other, _unbroadcast(g, other.shape)),
            )
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data)
        if self._track(self):
            out._parents = (self,)
            out._backward = lambda g: ((self, -g),)
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data)
        if self._track(self, other):
            out._parents = (self, other)
            out._backward = lambda g: (
                (self, _unbroadcast(g * other.data, self.shape)),
                (other, _unbroadcast(g * self.data, other.shape)),
            )
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data @ other.data)
        if self._track(self, other):
            out._parents = (self, other)

            def back(g):
                ga = _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
                gb = _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
                return ((self, ga), (other, gb))

            out._backward = back
        return out

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape))
        if self._track(self):
            out._parents = (self,)
            out._backward = lambda g: ((self, g.reshape(self.shape)),)
        return out

    def transpose(self, axes):
        out = Tensor(np.transpose(self.data, axes))
        inv = np.argsort(axes)
        if self._track(self):
            out._parents = (self,)
            out._backward = lambda g: ((self, np.transpose(g, inv)),)
        return out

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis))
        if self._track(self):
            out._parents = (self,)

            def back(g):
                if axis is None:
                    return ((self, np.broadcast_to(g, self.shape).copy()),)
                ge = np.expand_dims(g, axis)
                return ((self, np.broadcast_to(ge, self.shape).copy()),)

            out._backward = back
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    # -- nonlinearities ------------------------------------------------

    def gelu(self):
        """tanh-approximation GELU."""
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        x2 = x * x
        inner = c * (x + 0.044715 * (x2 * x))
        t = np.tanh(inner)
        out = Tensor(0.5 * x * (1.0 + t))
        if self._track(self):
            out._parents = (self,)

            def back(g):
                dinner = c * (1.0 + 3.0 * 0.044715 * x2)
                d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
                return ((self, g * d),)

            out._backward = back
        return out

    def log_softmax(self):
        """Numerically stable log-softmax over the last axis."""
        x = self.data
        shifted = x - x.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        logp = shifted - lse
        out = Tensor(logp)
        if self._track(self):
            out._parents = (self,)
            p = np.exp(logp)
            out._backward = lambda g: (
                (self, g - p * g.sum(axis=-1, keepdims=True)),)
        return out


def parameter(data):
    return Tensor(data, requires_grad=True)


def cross_entropy(logits, labels):
    """Mean cross-entropy of logits (B, K) against integer labels (B,)."""
    labels = np.asarray(labels)
    logp = logits.log_softmax()
    b = labels.shape[0]
    picked_data = logp.data[np.arange(b), labels]
    out = Tensor(-picked_data.mean())
    if logp._track(logp):
        out._parents = (logp,)

        def back(g):
            gl = np.zeros_like(logp.data)
            gl[np.arange(b), labels] = -g / b
            return ((logp, gl),)

        out._backward = back
    return out
