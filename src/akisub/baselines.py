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
from .errors import ArgumentError, OptimizationError
from .features import PreparedStay
from .memnet import (HyperConfig, TrainResult, case_loss, check_labels, encode_notes_batch,
                     fit, infer, init_hielstm)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LrParams:
    weights: np.ndarray
    bias: float
    l2_strength: float


# Newton iterations lr_train may take, and the largest accepted step (in any
# coordinate of (w, b)) below which it has converged.
LR_MAX_ITER = 50
LR_STEP_TOL = 1e-8
# Armijo sufficient-decrease fraction of the backtracking line search.
LR_ARMIJO = 1e-4


def lr_train(features: np.ndarray, labels, l2: float) -> LrParams:
    """Minimise mean NLL + 0.5*l2*(||w||^2 + b^2) by damped Newton from zero.

    The intercept is regularized along with the weights, so l2 -> inf drives
    every parameter (and hence the predictions) to 0.5, and l2 > 0 makes the
    objective strictly convex with one optimum. Each iteration solves the
    (d+1)x(d+1) Hessian against the gradient and halves the step until the
    objective falls by the Armijo fraction of its predicted decrease (a step
    already smaller than LR_STEP_TOL is accepted as it is). The fit is returned
    once an accepted step is below LR_STEP_TOL in every coordinate; after
    LR_MAX_ITER iterations without that, OptimizationError.
    """
    if not l2 > 0:
        raise ArgumentError(f"lr_train needs l2 > 0 for a unique optimum, got {l2}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    check_labels(y.tolist())
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(d + 1)
    z = np.zeros(n)

    def objective(theta, z):
        return (np.logaddexp(0.0, z) - y * z).mean() + 0.5 * l2 * (theta @ theta)

    f = objective(theta, z)
    for _ in range(LR_MAX_ITER):
        p = expit(z)
        grad = Xb.T @ (p - y) / n + l2 * theta
        hess = (Xb.T * (p * (1.0 - p) / n)) @ Xb
        hess.flat[::d + 2] += l2
        step = np.linalg.solve(hess, grad)
        if not np.isfinite(step).all():  # the line search below would never end
            raise OptimizationError(f"lr_train: non-finite Newton step (l2={l2}); "
                                    "are the features finite?")
        decrease = LR_ARMIJO * (grad @ step)
        size = np.abs(step).max()
        t = 1.0
        while True:
            candidate = theta - t * step
            z_candidate = Xb @ candidate
            f_candidate = objective(candidate, z_candidate)
            if f_candidate <= f - t * decrease or t * size < LR_STEP_TOL:
                break
            t *= 0.5
        theta, z, f = candidate, z_candidate, f_candidate
        if t * size < LR_STEP_TOL:
            return LrParams(weights=theta[:d], bias=float(theta[d]), l2_strength=l2)
    raise OptimizationError(f"lr_train did not converge in {LR_MAX_ITER} Newton "
                            f"iterations (last step {t * size:.3g}, l2={l2})")


def lr_predict(params: LrParams, features: np.ndarray) -> np.ndarray:
    return expit(np.asarray(features) @ params.weights + params.bias)


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
            "w_out": nn.uniform_init(rng, hyper.emb_dim, 2)}


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
