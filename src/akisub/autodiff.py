"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Tensors are immutable value wrappers around numpy arrays. Operations executed
while a Tape is active are recorded in forward order, each as one
`(inputs, output, backward_fn)` tuple; `backward` replays the tape once in
reverse, emptying it as it goes, and accumulates gradients keyed by Tensor
identity. Each thread has its own stack of open tapes (the innermost records),
so threads record and back-propagate independently: an op is recorded only on
a tape opened by the thread that runs it.

The primitives are the ones the models call. The case/control loss, which every
trained model takes once per batch, is one primitive with a hand-written
backward rather than a chain of clamp, log, subtract and negate nodes, so each
batch records one node for it. `sigmoid`, `tanh` and `slice_axis` stay although
`nn.lstm_sequence` fuses its gates: `nn.lstm_cell`, the per-step reference
cell, is built from them, and `memnet.case_loss` slices out the case column.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import ArgumentError, DimensionError

EPS = 1e-12


class _OpenTapes(threading.local):
    """The calling thread's open tapes, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_OPEN = _OpenTapes()


class Tensor:
    """Immutable dense array. Do not mutate `.data` after construction."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Append-only record of primitive applications, one tuple per application."""

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _OPEN.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _OPEN.stack.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on `inputs` would be recorded: the calling thread has an open
    tape and an input requires grad. Primitives that cache for their backward
    check this first."""
    return bool(_OPEN.stack) and any(t.requires_grad for t in inputs)


def _record(inputs: tuple[Tensor, ...], out: Tensor, backward_fn: Callable) -> Tensor:
    if recording(inputs):
        out.requires_grad = True
        _OPEN.stack[-1].nodes.append((inputs, out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record((a, b), out, bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _record((a, b), out, bwd)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _record((a, b), out, bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    src = a.data.shape
    return _record((a,), out, lambda g: (g.reshape(src),))


def reduce_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis))
    src = a.data.shape

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, src).copy(),)

    return _record((a,), out, bwd)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = expit(a.data)
    out = Tensor(y)
    return _record((a,), out, lambda g: (g * y * (1.0 - y),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record((a,), out, lambda g: (g * (1.0 - y * y),))


def softmax(a) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    a = as_tensor(a)
    if a.data.size == 0:
        raise ArgumentError("softmax: empty input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record((a,), out, bwd)


def gather_rows(table, indices) -> Tensor:
    """Select rows of a 2-D table by integer index vector; backward scatter-adds."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix table, got shape {table.shape}")
    out = Tensor(table.data[idx])

    def bwd(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        return (acc,)

    return _record((table,), out, bwd)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(tuple(parts), out, bwd)


def slice_axis(a, start: int, stop: int, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = Tensor(a.data[sl].copy())

    def bwd(g):
        acc = np.zeros_like(a.data)
        acc[sl] = g
        return (acc,)

    return _record((a,), out, bwd)


def cross_entropy(p, y) -> Tensor:
    """Negative log-likelihood -[y log p + (1-y) log(1-p)], summed over samples.

    `p` holds probabilities (clamped to [EPS, 1-EPS]); `y` holds 0/1 labels. It
    records one node. Its gradient is 0 where `p` lies outside [EPS, 1-EPS] and,
    inside, the sum of the two log terms' gradients: the same bits a chain of
    clamp, log, scale, sum and negate nodes gives, as IEEE addition commutes.
    """
    p = as_tensor(p)
    yv = np.asarray(y, dtype=np.float64)
    if yv.shape != p.data.shape and yv.size != p.data.size:
        raise DimensionError(f"cross_entropy: probabilities {p.data.shape} vs labels {yv.shape}")
    if not np.all((yv == 0.0) | (yv == 1.0)):
        raise ArgumentError("cross_entropy: labels must be 0 or 1")
    yv = yv.reshape(p.data.shape)
    pc = np.clip(p.data, EPS, 1.0 - EPS)
    out = Tensor(-(yv * np.log(pc) + (1.0 - yv) * np.log(1.0 - pc)).sum())
    inside = (p.data >= EPS) & (p.data <= 1.0 - EPS)

    def bwd(g):
        G = np.broadcast_to(-g, pc.shape)
        return ((G * yv / pc - G * (1.0 - yv) / (1.0 - pc)) * inside,)

    return _record((p,), out, bwd)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-accumulate d(loss)/d(tensor) over the nodes recorded on `tape`.

    The tape is consumed: each node is popped, and so freed, as it is replayed,
    and the gradient of each node's output is dropped once passed to its inputs.
    Returns a dict keyed by Tensor identity that holds the gradients of the leaves
    (tensors no node of the tape produced, such as parameters; look them up
    directly) and of `loss`, which is 1 with respect to itself.
    """
    if loss.data.shape != ():
        raise ArgumentError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    nodes = tape.nodes
    while nodes:
        inputs, output, backward_fn = nodes.pop()
        g_out = grads.get(output) if output is loss else grads.pop(output, None)
        if g_out is None:
            continue
        for tensor, g in zip(inputs, backward_fn(g_out)):
            if g is None or not tensor.requires_grad:
                continue
            have = grads.get(tensor)
            grads[tensor] = g if have is None else have + g
    return grads
