import itertools

import numpy as np
import pytest

from akisub.autodiff import Tape, backward
from akisub import baselines
from akisub.baselines import (LrParams, hielstm_forward, hielstm_only_loss,
                              hielstm_only_predict, hielstm_only_train, init_hielstm_params,
                              init_lstm_baseline_params, lr_predict, lr_train,
                              lstm_baseline_loss, lstm_baseline_predict,
                              lstm_baseline_train, lstm_forward)
from akisub.errors import ArgumentError, OptimizationError, TrainingError
from akisub.memnet import HyperConfig, TrainResult
from oracles import (baseline_train_loop_reference, batched_rows_reference,
                     finite_difference_grads, hielstm_init_reference, lr_loss,
                     max_relative_error)
from test_memnet import MICRO, VOCAB, assert_same_fit, micro_batch, packed_and_reference


class TestLogisticRegression:
    def test_separable_1d_perfect_accuracy(self):
        X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        params = lr_train(X, y, l2=1e-4)
        pred = (lr_predict(params, X) >= 0.5).astype(int)
        assert np.array_equal(pred, y)

    def test_strong_regularization_shrinks_to_half(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        params = lr_train(X, y, l2=1e6)
        assert np.all(np.abs(params.weights) < 1e-4)
        assert np.allclose(lr_predict(params, X), 0.5, atol=1e-3)

    def test_matches_grid_search_optimum(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        y = (X @ np.array([1.5, -1.0]) + 0.3 * rng.normal(size=60) > 0).astype(int)
        l2 = 0.05
        trained = lr_train(X, y, l2=l2)
        achieved = lr_loss(trained, X, y)
        grid = np.linspace(-3, 3, 31)
        best = min(lr_loss(LrParams(np.array([w1, w2]), b, l2), X, y)
                   for w1, w2, b in itertools.product(grid, grid, np.linspace(-1, 1, 11)))
        assert achieved <= best + 1e-3

    def test_feature_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        y = (X[:, 1] - X[:, 3] > 0).astype(int)
        params = lr_train(X, y, l2=0.01)
        perm = [2, 0, 3, 1]
        params_p = lr_train(X[:, perm], y, l2=0.01)
        assert np.allclose(params_p.weights, params.weights[perm], atol=1e-10)
        assert np.allclose(lr_predict(params_p, X[:, perm]), lr_predict(params, X))

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            lr_train(np.zeros((4, 2)), np.ones(4), l2=1e-3)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(TrainingError):
            lr_train(np.zeros((4, 2)), [0.0, 0.5, 1.0, 1.0], l2=1e-3)

    def test_probabilities_in_open_interval(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        p = lr_predict(lr_train(X, y, l2=1e-3), X)
        assert np.all((p > 0) & (p < 1))

    def test_iteration_cap_without_convergence_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        monkeypatch.setattr(baselines, "LR_MAX_ITER", 1)
        with pytest.raises(OptimizationError):
            lr_train(X, y, l2=1e-3)

    def test_non_finite_features_raise(self):
        X = np.array([[-1.0], [np.nan], [1.0]])
        with pytest.raises(OptimizationError):
            lr_train(X, [0, 1, 1], l2=1e-3)

    @pytest.mark.parametrize("l2", [0.0, -1e-3])
    def test_non_positive_l2_rejected(self, l2):
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ArgumentError):
            lr_train(X, [0, 1], l2=l2)


class TestLstmBaseline:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        params = init_lstm_baseline_params(rng, MICRO, feature_dim=3, static_dim=20)
        batch = micro_batch(17)

        def loss_fn(ps):
            return lstm_baseline_loss(ps, batch, MICRO).item()

        with Tape() as tape:
            loss = lstm_baseline_loss(params, batch, MICRO)
        analytic = backward(tape, loss)
        numeric = finite_difference_grads(loss_fn, params)
        for name, p in params.items():
            assert max_relative_error(analytic[p], numeric[name]) < 1e-4

    def test_epochs_zero_returns_initialization(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 0})
        result = lstm_baseline_train(micro_batch(5), hyper)
        fresh = init_lstm_baseline_params(np.random.default_rng(hyper.seed), hyper, 3, 20)
        for name in fresh:
            assert np.array_equal(result.params[name].data, fresh[name].data)

    def test_separable_sequences_converge(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 50, "lr": 0.05})
        batch = micro_batch(6)
        for s in batch:
            s.tensor = np.full_like(s.tensor, 0.95 if s.label else 0.05)
        result = lstm_baseline_train(batch, hyper)
        assert result.loss_history[-1] < 0.1
        probs = lstm_baseline_predict(result, batch)
        assert np.all((probs > 0) & (probs < 1))


class TestHieLstmOnly:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_hielstm_params(rng, MICRO, VOCAB)
        batch = micro_batch(19)

        def loss_fn(ps):
            return hielstm_only_loss(ps, batch, MICRO).item()

        with Tape() as tape:
            loss = hielstm_only_loss(params, batch, MICRO)
        analytic = backward(tape, loss)
        numeric = finite_difference_grads(loss_fn, params)
        for name, p in params.items():
            assert max_relative_error(analytic[p], numeric[name]) < 1e-4

    def test_epochs_zero_returns_initialization(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 0})
        result = hielstm_only_train(micro_batch(8), hyper, VOCAB)
        fresh = init_hielstm_params(np.random.default_rng(hyper.seed), hyper, VOCAB)
        for name in fresh:
            assert np.array_equal(result.params[name].data, fresh[name].data)

    def test_separable_notes_converge(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 60, "lr": 0.05})
        batch = micro_batch(9, n=6)
        for s in batch:
            s.note_seqs = [[1, 1, 1]] if s.label else [[2, 2, 2]]
        result = hielstm_only_train(batch, hyper, VOCAB)
        assert result.loss_history[-1] < 0.1
        probs = hielstm_only_predict(result, batch)
        assert np.all((probs > 0) & (probs < 1))

    def test_single_class_rejected(self):
        batch = micro_batch(10)
        for s in batch:
            s.label = 0
        with pytest.raises(TrainingError):
            hielstm_only_train(batch, MICRO, VOCAB)


def test_neural_baseline_probabilities_match_lstm_cell_reference():
    rng = np.random.default_rng(3)
    lstm = TrainResult(init_lstm_baseline_params(rng, MICRO, 3, 20), [], MICRO)
    hie = TrainResult(init_hielstm_params(rng, MICRO, VOCAB), [], MICRO)
    batch = micro_batch(18, n=10)
    probs, ref = packed_and_reference(
        lambda: (lstm_baseline_predict(lstm, batch), hielstm_only_predict(hie, batch)))
    for p, r in zip(probs, ref):
        assert np.max(np.abs(p - r)) < 1e-12


class TestSharedLoopParity:
    """`memnet.fit` and `memnet.infer` reproduce the baselines' own training loop
    and batched inference bit for bit."""

    def test_lstm_train_matches_own_loop(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 2})
        batch = micro_batch(61, n=10)
        init = init_lstm_baseline_params(np.random.default_rng(hyper.seed), hyper, 3, 20)
        assert_same_fit(lstm_baseline_train(batch, hyper),
                         *baseline_train_loop_reference(batch, hyper, init, lstm_forward))

    def test_hielstm_train_matches_own_loop(self):
        hyper = HyperConfig(**{**MICRO.__dict__, "epochs": 2})
        batch = micro_batch(62, n=10)
        init = hielstm_init_reference(np.random.default_rng(hyper.seed), hyper, VOCAB)
        assert_same_fit(hielstm_only_train(batch, hyper, VOCAB),
                         *baseline_train_loop_reference(batch, hyper, init, hielstm_forward))

    def test_predict_matches_own_loops(self):
        rng = np.random.default_rng(63)
        lstm = TrainResult(init_lstm_baseline_params(rng, MICRO, 3, 20), [], MICRO)
        hie = TrainResult(init_hielstm_params(rng, MICRO, VOCAB), [], MICRO)
        batch = micro_batch(64, n=300)  # two inference batches
        assert np.array_equal(lstm_baseline_predict(lstm, batch), batched_rows_reference(
            lambda b: lstm_forward(lstm.params, b, MICRO).data[:, 1], batch))
        assert np.array_equal(hielstm_only_predict(hie, batch), batched_rows_reference(
            lambda b: hielstm_forward(hie.params, b, MICRO).data[:, 1], batch))
