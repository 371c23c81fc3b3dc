"""Comparison models: logistic regression on engineered features, a plain LSTM
over the structured stay tensor, and a HieLSTM-only classifier over notes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from . import nn
from .autodiff import Tape, Tensor, backward
from .errors import TrainingError
from .memnet import HyperConfig, PreparedStay, encode_notes_batch


def _check_labels(labels):
    classes = set(int(v) for v in labels)
    if not classes:
        raise TrainingError("empty training set")
    if classes != {0, 1}:
        raise TrainingError(f"training set must contain both classes, got {classes}")


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
    _check_labels(y)
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
# shared training loop for the neural baselines
# ---------------------------------------------------------------------------

@dataclass
class NeuralBaselineResult:
    params: dict[str, Tensor]
    loss_history: list[float]
    hyper: HyperConfig
    kind: str


def _train_loop(prepared: list[PreparedStay], hyper: HyperConfig, params,
                loss_fn, kind: str) -> NeuralBaselineResult:
    _check_labels([s.label for s in prepared])
    rng = np.random.default_rng(hyper.seed + 1)
    opt = nn.Adam(lr=hyper.lr)
    history = []
    n = len(prepared)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = [prepared[i] for i in order[start:start + hyper.batch_size]]
            with Tape() as tape:
                loss = loss_fn(params, batch, hyper)
            grads = backward(tape, loss)
            params = opt.step(params, grads)
            total += loss.item()
        history.append(total / n)
    return NeuralBaselineResult(params=params, loss_history=history, hyper=hyper,
                                kind=kind)


def _case_probability_loss(probs: Tensor, batch) -> Tensor:
    p_case = ad.reshape(ad.slice_axis(probs, 1, 2, axis=1), (len(batch),))
    labels = np.array([s.label for s in batch], dtype=np.float64)
    return ad.cross_entropy(p_case, labels)


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
    return _case_probability_loss(lstm_forward(params, batch, hyper), batch)


def lstm_baseline_train(prepared: list[PreparedStay], hyper: HyperConfig,
                        ) -> NeuralBaselineResult:
    hyper.validate()
    _check_labels([s.label for s in prepared])
    rng = np.random.default_rng(hyper.seed)
    params = init_lstm_baseline_params(rng, hyper, prepared[0].tensor.shape[1],
                                       prepared[0].static.shape[0])
    return _train_loop(prepared, hyper, params, lstm_baseline_loss, "lstm")


def lstm_baseline_predict(result: NeuralBaselineResult,
                          prepared: list[PreparedStay]) -> np.ndarray:
    out = np.zeros(len(prepared))
    for start in range(0, len(prepared), 256):
        batch = prepared[start:start + 256]
        out[start:start + len(batch)] = lstm_forward(result.params, batch,
                                                     result.hyper).data[:, 1]
    return out


# ---------------------------------------------------------------------------
# HieLSTM-only over notes
# ---------------------------------------------------------------------------

def init_hielstm_params(rng, hyper: HyperConfig, vocab_size: int) -> dict[str, Tensor]:
    bottom = nn.init_lstm(rng, hyper.word_emb_dim, hyper.bottom_hidden)
    top = nn.init_lstm(rng, hyper.bottom_hidden, hyper.top_hidden)
    return {
        "word_emb": nn.uniform_init(rng, vocab_size, hyper.word_emb_dim),
        "bottom_wx": bottom.wx, "bottom_wh": bottom.wh, "bottom_b": bottom.b,
        "top_wx": top.wx, "top_wh": top.wh, "top_b": top.b,
        "null_note": nn.uniform_init(rng, 1, hyper.bottom_hidden),
        "w_out": nn.uniform_init(rng, hyper.top_hidden, 2),
    }


def hielstm_forward(params, batch: list[PreparedStay], hyper: HyperConfig) -> Tensor:
    u = encode_notes_batch(params, [s.note_seqs for s in batch], hyper)
    return ad.softmax(ad.matmul(u, params["w_out"]))


def hielstm_only_loss(params, batch, hyper) -> Tensor:
    return _case_probability_loss(hielstm_forward(params, batch, hyper), batch)


def hielstm_only_train(prepared: list[PreparedStay], hyper: HyperConfig,
                       vocab_size: int) -> NeuralBaselineResult:
    hyper.validate()
    _check_labels([s.label for s in prepared])
    rng = np.random.default_rng(hyper.seed)
    params = init_hielstm_params(rng, hyper, vocab_size)
    return _train_loop(prepared, hyper, params, hielstm_only_loss, "hielstm")


def hielstm_only_predict(result: NeuralBaselineResult,
                         prepared: list[PreparedStay]) -> np.ndarray:
    out = np.zeros(len(prepared))
    for start in range(0, len(prepared), 256):
        batch = prepared[start:start + 256]
        out[start:start + len(batch)] = hielstm_forward(result.params, batch,
                                                        result.hyper).data[:, 1]
    return out
