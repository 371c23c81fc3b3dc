import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from akisub import baselines, crossval, errors, memnet
from akisub.cli import main
from akisub.cohort import CohortConfig, generate_cohort, read_cohort
from akisub.crossval import (LR_L2_GRID, fit_workers, grouped_stratified_folds, nested_cv,
                             write_metrics_table)
from akisub.errors import AkisubError, FoldError, OptimizationError, TrainingError
from akisub.kdigo import apply_exclusions
from akisub.stages import read_labels
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


def failing_on_fold(fit, stays, labels, n_outer, seed, fold, error, delay=0.0):
    """`fit` wrapped to raise `error`, after `delay` seconds, when it trains on the
    training split of outer fold `fold` of `nested_cv(stays, labels, ...)`."""
    fold_of = grouped_stratified_folds(stays, labels, n_outer, seed)
    held_out = {s.stay_id for s, f in zip(stays, fold_of) if f == fold}

    def wrapper(prepared, *args):
        if held_out.isdisjoint(s.stay_id for s in prepared):
            time.sleep(delay)
            raise error
        return fit(prepared, *args)
    return wrapper


class TestFitPool:
    def test_records_do_not_depend_on_worker_count(self, labeled, monkeypatch):
        stays, labels = labeled
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(crossval, "fit_workers", lambda n, w=workers: min(w, n))
            runs.append(nested_cv(stays, labels, list(crossval.MODEL_IDS), 24,
                                  replace(FAST_HYPER, epochs=1), n_outer=2, seed=0).records)
        assert [(r.fold_id, r.model_id) for r in runs[0]] == \
            [(k, m) for k in range(2) for m in crossval.MODEL_IDS]
        assert runs[0] == runs[1]

    def test_first_failing_pair_in_order_is_raised(self, labeled, monkeypatch):
        stays, labels = labeled
        first = TrainingError("lstm on fold 1")
        later = TrainingError("memnet on fold 1")  # fails at once, while lstm sleeps
        monkeypatch.setattr(crossval, "fit_workers", lambda n: min(2, n))
        monkeypatch.setattr(baselines, "lstm_baseline_train", failing_on_fold(
            baselines.lstm_baseline_train, stays, labels, 2, 0, 1, first, delay=0.3))
        monkeypatch.setattr(memnet, "train", failing_on_fold(
            memnet.train, stays, labels, 2, 0, 1, later))
        with pytest.raises(TrainingError) as raised:
            nested_cv(stays, labels, ["lr", "lstm", "memnet"], 24,
                      replace(FAST_HYPER, epochs=0), n_outer=2, seed=0)
        assert raised.value is first

    @pytest.mark.parametrize("lstm_fold, raised", [(0, "lstm"), (2, "lr")])
    def test_lr_failures_keep_their_place_in_the_order(self, labeled, monkeypatch,
                                                       lstm_fold, raised):
        stays, labels = labeled
        failures = {"lr": OptimizationError("lr on fold 1"), "lstm": TrainingError("lstm")}
        lr_fit = crossval._lr_train_and_score

        def lr_failing(model_id, fold, *args):
            if fold.scaling.split_id == "outer1-train":
                raise failures["lr"]
            return lr_fit(model_id, fold, *args)

        monkeypatch.setattr(crossval, "_lr_train_and_score", lr_failing)
        monkeypatch.setattr(baselines, "lstm_baseline_train", failing_on_fold(
            baselines.lstm_baseline_train, stays, labels, 3, 0, lstm_fold, failures["lstm"]))
        with pytest.raises(AkisubError) as error:
            nested_cv(stays, labels, ["lr", "lstm"], 24, replace(FAST_HYPER, epochs=0),
                      n_outer=3, seed=0)
        assert error.value is failures[raised]

    def test_pairs_not_started_are_cancelled(self, labeled, monkeypatch):
        stays, labels = labeled
        fit = baselines.lstm_baseline_train
        calls = []

        def failing_first(prepared, hyper):
            calls.append(len(prepared))
            if len(calls) == 1:
                raise TrainingError("fold 0")
            time.sleep(1.0)  # long enough for the failure to cancel fold 2
            return fit(prepared, hyper)

        monkeypatch.setattr(crossval, "fit_workers", lambda n: 1)
        monkeypatch.setattr(baselines, "lstm_baseline_train", failing_first)
        with pytest.raises(TrainingError, match="fold 0"):
            nested_cv(stays, labels, ["lstm"], 24, replace(FAST_HYPER, epochs=0),
                      n_outer=3, seed=0)
        assert len(calls) <= 2

    def test_cli_evaluate_exits_with_the_fit_error_code(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "seed": 3, "out_dir": str(out),
            "cohort": {"n_stays": 120, "case_fraction": 0.3},
            "model": {"emb_dim": 16, "top_hidden": 16, "bottom_hidden": 12,
                      "word_emb_dim": 8, "static_proj_dim": 4, "epochs": 0},
            "evaluate": {"models": ["lr", "lstm"], "outer_folds": 2},
        }))
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert main(["--config", str(cfg_path), "label"]) == 0
        labels = {sid: int(lab.is_case) for sid, lab in read_labels(out / "labels.csv").items()}
        stays = [s for s in read_cohort(out / "cohort.jsonl") if s.stay_id in labels]
        monkeypatch.setattr(crossval, "fit_workers", lambda n: min(2, n))
        monkeypatch.setattr(baselines, "lstm_baseline_train", failing_on_fold(
            baselines.lstm_baseline_train, stays, labels, 2, 3, 1,
            TrainingError("lstm on fold 1")))
        capsys.readouterr()
        code = main(["--config", str(cfg_path), "evaluate"])
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == errors.EXIT_CODES["training"]
        assert payload == {"error": "training", "message": "lstm on fold 1"}


class TestFitWorkers:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the CPUs this process may run on; clears the BLAS thread variables."""
        for var in crossval.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        return lambda n: monkeypatch.setattr(os, "sched_getaffinity",
                                             lambda pid: set(range(n)), raising=False)

    def test_unpinned_blas_runs_one_fit_at_a_time(self, cpus):
        cpus(2)
        assert fit_workers(15) == 1

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"},  # first positive one
        {"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"},
    ])
    def test_one_blas_thread_gives_a_fit_per_cpu(self, cpus, monkeypatch, env):
        cpus(2)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert fit_workers(15) == 2

    def test_never_more_than_the_neural_pairs(self, cpus, monkeypatch):
        cpus(8)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert [fit_workers(n) for n in (1, 3, 8, 15)] == [1, 3, 8, 8]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert [fit_workers(n) for n in (1, 3, 8, 15)] == [1, 3, 4, 4]


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
