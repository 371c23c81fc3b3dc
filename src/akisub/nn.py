"""Neural building blocks on top of the autodiff tape: LSTM layers, init, and
`Adam`, the one optimiser every trained model uses.

`lstm_sequence` runs a whole LSTM layer over a padded batch of sequences as one
tape primitive. Rows are stably sorted by length, so the rows still running at
step t are a prefix of the sorted batch and step t computes only those (a
packed batch). When recording, the input projection x @ Wx is one GEMM over all
valid steps, and the backward is hand-written BPTT over the cached activated
gates and cell states: only dh_{t-1} = dpre_t @ Wh.T runs per step, while the
weight, bias and input gradients are one operation each over all steps. The
backward writes each step's dpre into the cached gates buffer once that step's
gates are read, so it allocates no second buffer of that size; it can run once.
Forward-only calls keep no cache. `lstm_cell` is the same step composed from
tape primitives; it is the reference the packed layer is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ArgumentError, DimensionError, OptimizationError

INIT_SCALE = 0.1  # parameters start uniform in [-0.1, 0.1]
FORGET_BIAS = 1.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates, denominator term


def uniform_init(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True)


@dataclass
class LstmParams:
    """Weights for one LSTM layer; gate order along the last axis is [i, f, g, o]."""

    wx: Tensor  # (input_dim, 4*hidden)
    wh: Tensor  # (hidden, 4*hidden)
    b: Tensor   # (4*hidden,)

    @property
    def hidden(self) -> int:
        return self.wh.shape[0]

    @property
    def input_dim(self) -> int:
        return self.wx.shape[0]


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmParams:
    b = rng.uniform(-INIT_SCALE, INIT_SCALE, size=4 * hidden)
    b[hidden:2 * hidden] = FORGET_BIAS
    return LstmParams(
        wx=uniform_init(rng, input_dim, 4 * hidden),
        wh=uniform_init(rng, hidden, 4 * hidden),
        b=Tensor(b, requires_grad=True),
    )


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One step: sigmoid input/forget/output gates, tanh candidate.

    c' = f*c + i*g ; h' = o*tanh(c'). Inputs are (batch, dim) matrices.
    """
    hid = params.hidden
    if x.shape[-1] != params.input_dim or h.shape[-1] != hid or c.shape[-1] != hid:
        raise DimensionError(
            f"lstm_cell: x {x.shape}, h {h.shape}, c {c.shape} vs params "
            f"(input_dim={params.input_dim}, hidden={hid})")
    pre = ad.add(ad.add(ad.matmul(x, params.wx), ad.matmul(h, params.wh)), params.b)
    i = ad.sigmoid(ad.slice_axis(pre, 0, hid))
    f = ad.sigmoid(ad.slice_axis(pre, hid, 2 * hid))
    g = ad.tanh(ad.slice_axis(pre, 2 * hid, 3 * hid))
    o = ad.sigmoid(ad.slice_axis(pre, 3 * hid, 4 * hid))
    c2 = ad.add(ad.mul(f, c), ad.mul(i, g))
    h2 = ad.mul(o, ad.tanh(c2))
    return h2, c2


def lstm_sequence(x, lengths, params: LstmParams) -> Tensor:
    """Hidden state of each row at its last valid step, shape (n, hidden).

    `x` is a padded (n, T, input_dim) batch and row r has `lengths[r]` valid
    steps, 1 <= lengths[r] <= T; steps past a row's length are never read. The
    state starts at zero and each step is the `lstm_cell` update. The whole
    sequence records one tape node (see the module docstring).
    """
    x = ad.as_tensor(x)
    hid = params.hidden
    if x.ndim != 3 or x.shape[2] != params.input_dim:
        raise DimensionError(f"lstm_sequence: x {x.shape} vs params "
                             f"(input_dim={params.input_dim})")
    n, steps, _ = x.shape
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,):
        raise DimensionError(f"lstm_sequence: lengths {lengths.shape} for {n} rows")
    bad = lengths[(lengths < 1) | (lengths > steps)]
    if bad.size:
        raise ArgumentError(f"lstm_sequence: lengths must lie in 1..{steps}, got "
                            f"{bad[:5].tolist()}")
    order = np.argsort(-lengths, kind="stable")
    active = (lengths > np.arange(lengths.max(initial=0))[:, None]).sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(active)))  # packed start of each step
    wx, wh, b = params.wx.data, params.wh.data, params.b.data
    inputs = (x, params.wx, params.wh, params.b)
    cache = ad.recording(inputs)
    if cache:
        # packed layout: step-major, sorted rows within a step
        step_of = np.repeat(np.arange(active.size), active)
        rows = order[np.arange(offsets[-1]) - offsets[step_of]]
        xp = x.data[rows, step_of]
        gates = xp @ wx
        hs, cs, tcs = (np.empty((offsets[-1], hid)) for _ in range(3))
    else:
        hs, cs, tcs = (np.zeros((n, hid)) for _ in range(3))  # state of the sorted rows
    for t, n_t in enumerate(active):
        if cache:
            cur = slice(offsets[t], offsets[t] + n_t)
            prev = slice(offsets[t - 1], offsets[t - 1] + n_t) if t else None
            pre = gates[cur]
        else:
            cur = prev = slice(0, n_t)
            pre = x.data[order[:n_t], t] @ wx
        if t:
            pre += hs[prev] @ wh
        pre += b
        expit(pre[:, :2 * hid], out=pre[:, :2 * hid])
        np.tanh(pre[:, 2 * hid:3 * hid], out=pre[:, 2 * hid:3 * hid])
        expit(pre[:, 3 * hid:], out=pre[:, 3 * hid:])
        i, f, g, o = (pre[:, k * hid:(k + 1) * hid] for k in range(4))
        cs[cur] = f * cs[prev] + i * g if t else i * g
        np.tanh(cs[cur], out=tcs[cur])
        hs[cur] = o * tcs[cur]
    last = offsets[lengths[order] - 1] + np.arange(n) if cache else np.arange(n)
    out = np.empty((n, hid))
    out[order] = hs[last]
    if not cache:
        return Tensor(out)

    def bwd(g_out):
        dh = g_out[order]  # a row's output gradient enters at its last step
        dc = np.zeros((n, hid))
        dpre = gates  # step t's dpre overwrites its gates once they are read
        for t in range(active.size - 1, -1, -1):
            n_t = active[t]
            cur = slice(offsets[t], offsets[t] + n_t)
            i, f, g, o = (gates[cur, k * hid:(k + 1) * hid] for k in range(4))
            tc = tcs[cur]
            dh_t = dh[:n_t]
            dc_t = dc[:n_t] + dh_t * o * (1.0 - tc * tc)
            if t:
                prev = slice(offsets[t - 1], offsets[t - 1] + n_t)
                df = dc_t * cs[prev] * f * (1.0 - f)
            else:
                df = 0.0
            d_gates = (dc_t * g * i * (1.0 - i), df, dc_t * i * (1.0 - g * g),
                       dh_t * tc * o * (1.0 - o))
            dc[:n_t] = dc_t * f
            d = dpre[cur]
            for k, d_gate in enumerate(d_gates):
                d[:, k * hid:(k + 1) * hid] = d_gate
            if t:
                dh[:n_t] = d @ wh.T
        # h_{t-1} of every packed entry after step 0, for one dWh GEMM
        h_prev = hs[np.arange(active[0], offsets[-1]) - active[step_of[active[0]:] - 1]]
        dx = None
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[rows, step_of] = dpre @ wx.T
        return dx, xp.T @ dpre, h_prev.T @ dpre[active[0]:], dpre.sum(axis=0)

    return ad._record(inputs, Tensor(out), bwd)


class Adam:
    """Bias-corrected Adam over a dict of named parameters.

    Each parameter keeps its own moments and update count; a parameter without a
    gradient is left untouched. The moments are updated in place, and each
    expression keeps the operand order of the textbook form
    m = beta1*m + (1-beta1)*g, s = beta2*s + ((1-beta2)*g)*g,
    p - lr*m_hat / (sqrt(s_hat) + eps), so the result is the same to the bit; a
    step allocates three temporaries per parameter. beta1, beta2 and eps are
    `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise OptimizationError(f"Adam: lr must be positive, got {lr}")
        self.lr = lr
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # name -> (m, s)
        self.updates: dict[str, int] = {}

    def step(self, params: dict[str, Tensor], grads: dict[Tensor, np.ndarray]) -> dict[str, Tensor]:
        new_params = {}
        for name, p in params.items():
            g = grads.get(p)
            if g is None:
                new_params[name] = p
                continue
            if g.shape != p.data.shape:
                raise DimensionError(f"Adam: grad {g.shape} vs param '{name}' {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise OptimizationError(f"Adam: non-finite gradient for parameter '{name}'")
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, s = self.moments[name]
            k = self.updates[name] = self.updates.get(name, 0) + 1
            scaled_g = np.multiply(1.0 - ADAM_BETA1, g)
            m *= ADAM_BETA1
            m += scaled_g
            np.multiply(1.0 - ADAM_BETA2, g, out=scaled_g)
            scaled_g *= g
            s *= ADAM_BETA2
            s += scaled_g
            denom = np.divide(s, 1.0 - ADAM_BETA2 ** k)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step = np.divide(m, 1.0 - ADAM_BETA1 ** k)
            np.multiply(self.lr, step, out=step)
            step /= denom
            new_params[name] = Tensor(np.subtract(p.data, step, out=step),
                                      requires_grad=p.requires_grad)
        return new_params
