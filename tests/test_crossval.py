from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from akisub import baselines, crossval
from akisub.cohort import CohortConfig, generate_cohort
from akisub.crossval import (LR_L2_GRID, grouped_stratified_folds, nested_cv,
                             write_metrics_table)
from akisub.errors import FoldError
from akisub.kdigo import apply_exclusions
from akisub.memnet import HyperConfig
from oracles import lr_gd_reference, lr_loss

FAST_HYPER = HyperConfig(memory_size=12, emb_dim=16, bottom_hidden=12, top_hidden=16,
                         word_emb_dim=8, static_proj_dim=4, hops=1, batch_size=16,
                         lr=0.02, epochs=2, max_note_len=12, seed=0)


@pytest.fixture(scope="module")
def labeled():
    stays = generate_cohort(CohortConfig(n_stays=120, case_fraction=0.3, seed=55))
    kept, _ = apply_exclusions(stays, 24)
    labeled_stays = [s for s, _ in kept]
    labels = {s.stay_id: int(l.is_case) for s, l in kept}
    return labeled_stays, labels


class TestFolds:
    def test_stratification_balance(self, labeled):
        stays, labels = labeled
        fold_of = grouped_stratified_folds(stays, labels, 5, seed=0)
        counts = [sum(labels[s.stay_id] for s, f in zip(stays, fold_of) if f == k)
                  for k in range(5)]
        assert max(counts) - min(counts) <= 2

    def test_patients_do_not_straddle_folds(self, labeled):
        stays, labels = labeled
        fold_of = grouped_stratified_folds(stays, labels, 5, seed=0)
        by_patient = {}
        for s, f in zip(stays, fold_of):
            by_patient.setdefault(s.patient_id, set()).add(f)
        assert all(len(folds) == 1 for folds in by_patient.values())
        assert any(len([s for s in stays if s.patient_id == p]) > 1
                   for p in by_patient)  # grouping actually exercised

    def test_deterministic_per_seed(self, labeled):
        stays, labels = labeled
        a = grouped_stratified_folds(stays, labels, 5, seed=3)
        b = grouped_stratified_folds(stays, labels, 5, seed=3)
        c = grouped_stratified_folds(stays, labels, 5, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_infeasible_stratification(self, labeled):
        stays, labels = labeled
        few = stays[:6]
        few_labels = {s.stay_id: 0 for s in few}
        few_labels[few[0].stay_id] = 1
        with pytest.raises(FoldError):
            grouped_stratified_folds(few, few_labels, 5, seed=0)


class TestNestedCv:
    def test_lr_five_fold_metrics_shape(self, labeled, tmp_path):
        stays, labels = labeled
        summary = nested_cv(stays, labels, ["lr"], 24, FAST_HYPER, seed=0)
        assert len(summary.records) == 5
        assert all(0.0 <= r.auc <= 1.0 for r in summary.records)
        rows = summary.table()
        assert len(rows) == 1
        assert set(rows[0]) >= {"model", "auc", "precision", "recall"}
        assert "+/-" in rows[0]["auc"]
        write_metrics_table(summary, tmp_path / "metrics.csv")
        text = (tmp_path / "metrics.csv").read_text().splitlines()
        assert text[0] == "model,auc,precision,recall"
        assert len(text) == 2

    def test_inner_tuning_runs_and_is_deterministic(self, labeled):
        stays, labels = labeled
        grid = [{"lr": 0.005}, {"lr": 0.02}]
        a = nested_cv(stays, labels, ["lr"], 24, FAST_HYPER, n_outer=3, n_inner=2,
                      grid=grid, seed=1)
        b = nested_cv(stays, labels, ["lr"], 24, FAST_HYPER, n_outer=3, n_inner=2,
                      grid=grid, seed=1)
        assert [r.auc for r in a.records] == [r.auc for r in b.records]

    def test_neural_inner_tuning_fits_every_grid_point(self, labeled, monkeypatch):
        stays, labels = labeled
        grid = [{"lr": 0.005}, {"lr": 0.02}]
        n_outer, n_inner = 2, 2
        fit = baselines.lstm_baseline_train
        fitted_lrs = []

        def recording(prepared, hyper):
            fitted_lrs.append(hyper.lr)
            return fit(prepared, hyper)

        monkeypatch.setattr(baselines, "lstm_baseline_train", recording)
        a = nested_cv(stays, labels, ["lstm"], 24, FAST_HYPER, n_outer=n_outer,
                      n_inner=n_inner, grid=grid, seed=1)
        # per outer fold: every grid point on every inner fold, then the outer fit
        assert len(fitted_lrs) == n_outer * (len(grid) * n_inner + 1)
        assert set(fitted_lrs) <= {g["lr"] for g in grid}
        b = nested_cv(stays, labels, ["lstm"], 24, FAST_HYPER, n_outer=n_outer,
                      n_inner=n_inner, grid=grid, seed=1)
        assert a.records == b.records

    def test_neural_models_run_on_small_cohort(self, labeled):
        stays, labels = labeled
        summary = nested_cv(stays, labels, ["lstm", "hielstm", "memnet"], 24,
                            FAST_HYPER, n_outer=2, seed=2)
        assert len(summary.records) == 6
        assert all(0.0 <= r.auc <= 1.0 for r in summary.records)

    def test_lr_learns_signal(self, labeled):
        stays, labels = labeled
        summary = nested_cv(stays, labels, ["lr"], 24, FAST_HYPER, seed=0)
        assert summary.table()[0]["auc_mean"] > 0.6

    @pytest.mark.parametrize("fold_seed", [1, 2])
    def test_lr_learns_signal_other_fold_seeds(self, labeled, fold_seed):
        stays, labels = labeled
        summary = nested_cv(stays, labels, ["lr"], 24, FAST_HYPER, seed=fold_seed)
        assert summary.table()[0]["auc_mean"] > 0.6

    def test_lr_penalty_selection_reuses_outer_design_rows(self, labeled, monkeypatch):
        stays, labels = labeled
        calls = {"summaries": 0, "fits": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(crossval, "summarize_for_baselines",
                            counting("summaries", crossval.summarize_for_baselines))
        monkeypatch.setattr(baselines, "lr_train", counting("fits", baselines.lr_train))
        n_outer, n_inner = 3, 2
        nested_cv(stays, labels, ["lr"], 24, FAST_HYPER, n_outer=n_outer,
                  n_inner=n_inner, seed=0)
        # every stay is summarised once per outer fold, never again per inner fold
        assert calls["summaries"] == n_outer * len(stays)
        assert calls["fits"] == n_outer * (1 + len(LR_L2_GRID) * n_inner)

    @pytest.mark.parametrize("models, grid, fits", [
        (list(crossval.MODEL_IDS), [], 3),  # once per outer fold
        (["lstm"], [{"lr": 0.005}, {"lr": 0.02}], 18),  # and once per inner fold
        (["lr"], [], 3),  # which builds no vocabulary
    ])
    def test_each_split_fits_scaling_and_vocabulary_once(self, labeled, monkeypatch,
                                                         models, grid, fits):
        stays, labels = labeled
        calls = {"fit_scaling": 0, "build_vocabulary": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(crossval, name, counting(name, getattr(crossval, name)))
        nested_cv(stays, labels, models, 24, replace(FAST_HYPER, epochs=0), n_outer=3,
                  n_inner=5, grid=grid, seed=0)
        # every model but lr reads the split's vocabulary
        vocabularies = fits if set(models) - {"lr"} else 0
        assert calls == {"fit_scaling": fits, "build_vocabulary": vocabularies}


@pytest.fixture(scope="module")
def lr_designs(labeled):
    """Distinct (design rows, labels) that nested_cv fits lr and lr_bow on."""
    stays, labels = labeled
    fit = baselines.lr_train
    designs = {}

    def recording(X, y, l2):
        designs.setdefault(id(X), (X, y))
        return fit(X, y, l2=l2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "lr_train", recording)
        nested_cv(stays, labels, ["lr", "lr_bow"], 24, FAST_HYPER, n_outer=2,
                  n_inner=2, seed=0)
    return list(designs.values())


@pytest.mark.parametrize("l2", LR_L2_GRID)
def test_lr_fit_is_stationary_and_beats_gradient_descent(lr_designs, l2):
    assert len(lr_designs) == 12  # 2 models x 2 outer folds x (2 inner + 1 outer)
    for X, y in lr_designs:
        params = baselines.lr_train(X, y, l2=l2)
        residual = expit(X @ params.weights + params.bias) - y
        grad = np.append(X.T @ residual / len(y) + l2 * params.weights,
                         residual.mean() + l2 * params.bias)
        assert np.abs(grad).max() <= 1e-8
        # where gradient descent also converges the two agree to rounding
        reference = lr_loss(lr_gd_reference(X, y, l2=l2), X, y)
        assert lr_loss(params, X, y) <= reference + 1e-12
