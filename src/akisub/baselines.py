"""Comparison models: logistic regression on engineered features, a plain LSTM
over the structured stay tensor, and a HieLSTM-only classifier over notes.

The neural baselines train through `memnet.fit` (initialised from a generator
seeded with `hyper.seed`, shuffled by one seeded with `hyper.seed + 1`) and
score through `memnet.infer`; HieLSTM-only adds a softmax head to
`memnet.init_hielstm`'s note encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .memnet import (HyperConfig, PreparedStay, TrainResult, case_loss, check_labels,
                     encode_notes_batch, fit, infer, init_hielstm)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LrParams:
    weights: np.ndarray
    bias: float
    l2_strength: float


def lr_train(features: np.ndarray, labels, l2: float = 1e-3, epochs: int = 800,
             lr: float = 0.5) -> LrParams:
    """Full-batch gradient descent on the L2-regularized mean NLL.

    The regularizer is applied as a proximal shrinkage step, which keeps the
    iteration stable for arbitrarily large l2. The intercept is regularized
    along with the weights, so l2 -> inf drives every parameter (and hence
    the predictions) to 0.5.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    check_labels(y.tolist())
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    shrink = 1.0 / (1.0 + lr * l2)
    for _ in range(epochs):
        p = expit(X @ w + b)
        err = (p - y) / n
        w = (w - lr * (X.T @ err)) * shrink
        b = (b - lr * err.sum()) * shrink
    return LrParams(weights=w, bias=b, l2_strength=l2)


def lr_predict(params: LrParams, features: np.ndarray) -> np.ndarray:
    return expit(np.asarray(features) @ params.weights + params.bias)


def lr_loss(params: LrParams, features: np.ndarray, labels) -> float:
    """The objective lr_train minimizes (mean NLL + 0.5*l2*||theta||^2)."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(expit(X @ params.weights + params.bias), 1e-12, 1 - 1e-12)
    nll = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    reg = 0.5 * params.l2_strength * (params.weights @ params.weights + params.bias ** 2)
    return float(nll + reg)


# ---------------------------------------------------------------------------
# plain LSTM over the structured tensor (+ static)
# ---------------------------------------------------------------------------

def init_lstm_baseline_params(rng, hyper: HyperConfig, feature_dim: int,
                              static_dim: int) -> dict[str, Tensor]:
    lstm = nn.init_lstm(rng, feature_dim, hyper.emb_dim)
    return {
        "wx": lstm.wx, "wh": lstm.wh, "b": lstm.b,
        "w_out": nn.uniform_init(rng, hyper.emb_dim + static_dim, 2),
    }


def lstm_forward(params, batch: list[PreparedStay], hyper: HyperConfig) -> Tensor:
    tensors = np.stack([s.tensor for s in batch])
    static = np.stack([s.static for s in batch])
    b, t, _ = tensors.shape
    lstm = nn.LstmParams(params["wx"], params["wh"], params["b"])
    h = nn.lstm_sequence(Tensor(tensors), np.full(b, t), lstm)
    joined = ad.concat([h, Tensor(static)], axis=1)
    return ad.softmax(ad.matmul(joined, params["w_out"]))


def lstm_baseline_loss(params, batch, hyper) -> Tensor:
    return case_loss(lstm_forward(params, batch, hyper), batch)


def lstm_baseline_train(prepared: list[PreparedStay], hyper: HyperConfig) -> TrainResult:
    hyper.validate()
    check_labels(s.label for s in prepared)
    params = init_lstm_baseline_params(np.random.default_rng(hyper.seed), hyper,
                                       prepared[0].tensor.shape[1],
                                       prepared[0].static.shape[0])
    return fit(prepared, hyper, params, lstm_baseline_loss,
               np.random.default_rng(hyper.seed + 1))


def lstm_baseline_predict(result: TrainResult, prepared: list[PreparedStay]) -> np.ndarray:
    return infer(lambda batch: lstm_forward(result.params, batch,
                                            result.hyper).data[:, 1], prepared)


# ---------------------------------------------------------------------------
# HieLSTM-only over notes
# ---------------------------------------------------------------------------

def init_hielstm_params(rng, hyper: HyperConfig, vocab_size: int) -> dict[str, Tensor]:
    return {**init_hielstm(rng, hyper, vocab_size),
            "w_out": nn.uniform_init(rng, hyper.top_hidden, 2)}


def hielstm_forward(params, batch: list[PreparedStay], hyper: HyperConfig) -> Tensor:
    u = encode_notes_batch(params, [s.note_seqs for s in batch], hyper)
    return ad.softmax(ad.matmul(u, params["w_out"]))


def hielstm_only_loss(params, batch, hyper) -> Tensor:
    return case_loss(hielstm_forward(params, batch, hyper), batch)


def hielstm_only_train(prepared: list[PreparedStay], hyper: HyperConfig,
                       vocab_size: int) -> TrainResult:
    hyper.validate()
    check_labels(s.label for s in prepared)
    params = init_hielstm_params(np.random.default_rng(hyper.seed), hyper, vocab_size)
    return fit(prepared, hyper, params, hielstm_only_loss,
               np.random.default_rng(hyper.seed + 1))


def hielstm_only_predict(result: TrainResult, prepared: list[PreparedStay]) -> np.ndarray:
    return infer(lambda batch: hielstm_forward(result.params, batch,
                                               result.hyper).data[:, 1], prepared)
