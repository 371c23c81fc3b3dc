"""Nested cross-validated evaluation with patient-grouped stratified folds.

The outer loop estimates performance; the inner loop tunes on the outer
training split only. Each split, outer or inner, is built once as a `FoldData`
that carries the scaling and vocabulary fitted on its training side; every
model and grid candidate of the split reads those, so no fitted statistic
sees the split's test side. Each outer fold's inner fold ids are computed once
and shared by all its models; its inner splits are built once, before any fit
starts, and shared by its neural models. One function, `_select`, makes every
inner-CV choice: the candidate with the best mean inner AUC, the first one on
ties.
For the logistic-regression models (`lr`, `lr_bow`) the inner loop always
chooses the L2 penalty from `LR_L2_GRID`, on the design rows the outer fold has
already built: each inner fold refits only the standardisation, and the rows
keep the outer training split's imputation means. Every LR fit, inner or
outer, is one `baselines.lr_train` call, which solves the penalised objective
to convergence (or raises OptimizationError). For the neural models it tunes
over the declared `HyperConfig` overrides and is skipped when that grid has
at most one point.

`nested_cv` walks its (fold, model) pairs in order. The neural pairs are
submitted up front to a thread pool whose size `fit_workers` derives from the
CPUs and the BLAS thread count, so an unpinned BLAS runs them one at a time.
Each LR pair runs in the calling thread when the walk reaches it: it builds
its design rows there, submits its inner (fold x l2) `lr_train` fits to the
same pool, reads their AUCs back in that order, and makes the outer fit
itself. LR fits do run side by side: on 2 CPUs with one BLAS thread, 20
`lr_train` fits of 900 x 147 rows took 0.20 s on 2 threads against 0.32 s one
after another, with the same bits.
The splits are complete before any thread starts, each fit reads only its own
rows, fold and seeds, and autodiff tapes are per thread, so the records, and
the error raised when a fit fails, do not depend on the number of workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, memnet
from .cohort import IcuStay, usable_cpus, write_rows
from .errors import FoldError, MetricError
from .features import (ScalingStats, StayTensor, Vocabulary, build_vocabulary,
                       fit_scaling, bin_events, prepare_stays, notes_to_bow,
                       summarize_for_baselines)
from .memnet import HyperConfig
from .metrics import MetricRecord, auc, precision_recall

MODEL_IDS = ("lr", "lr_bow", "lstm", "hielstm", "memnet")
LR_MODELS = ("lr", "lr_bow")
# L2 strengths the inner loop chooses from for the LR models, strongest first:
# a tie in mean inner AUC goes to the stronger penalty.
LR_L2_GRID = (1.0, 0.1, 0.01, 0.001)
# where BLAS libraries read their thread count, in the order fit_workers reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def grouped_stratified_folds(stays: list[IcuStay], labels: dict[str, int],
                             n_folds: int, seed: int) -> np.ndarray:
    """Fold id per stay; all stays of a patient share a fold, case counts balanced.

    Groups are placed largest-first onto the fold with the fewest cases (then
    fewest stays); the processing order of equal-size groups is shuffled by
    `seed` so different seeds give different (still valid) assignments.
    """
    groups: dict[str, list[int]] = {}
    for i, stay in enumerate(stays):
        groups.setdefault(stay.patient_id, []).append(i)
    if n_folds < 2:
        raise FoldError(f"need at least 2 folds, got {n_folds}")
    if len(groups) < n_folds:
        raise FoldError(f"cannot build {n_folds} folds from {len(groups)} patients")
    total_cases = sum(labels[s.stay_id] for s in stays)
    if total_cases < n_folds or (len(stays) - total_cases) < n_folds:
        raise FoldError("too few cases or controls for stratified folds")

    rng = np.random.default_rng(seed)
    entries = []
    for pid, idxs in groups.items():
        n_cases = sum(labels[stays[i].stay_id] for i in idxs)
        entries.append((n_cases, len(idxs), pid, idxs))
    rng.shuffle(entries)
    entries.sort(key=lambda e: (-e[0], -e[1]))

    fold_of = np.full(len(stays), -1, dtype=int)
    fold_cases = np.zeros(n_folds)
    fold_controls = np.zeros(n_folds)
    fold_sizes = np.zeros(n_folds)
    for n_cases, size, _, idxs in entries:
        # balance the label this group carries: case-bearing groups level the
        # case counts, pure-control groups level the control counts
        primary = fold_cases if n_cases > 0 else fold_controls
        f = int(np.lexsort((fold_sizes, primary))[0])
        for i in idxs:
            fold_of[i] = f
        fold_cases[f] += n_cases
        fold_controls[f] += size - n_cases
        fold_sizes[f] += size
    for f in range(n_folds):
        fold_lab = [labels[stays[i].stay_id] for i in np.flatnonzero(fold_of == f)]
        if len(set(fold_lab)) < 2:
            raise FoldError(f"fold {f} ended up single-class; stratification infeasible")
    return fold_of


@dataclass
class FoldData:
    """One split, with the scaling and vocabulary fitted on its training side."""

    train_stays: list[IcuStay]
    test_stays: list[IcuStay]
    train_labels: np.ndarray
    test_labels: np.ndarray
    scaling: ScalingStats
    vocab: Vocabulary

    def inner_folds(self, n_inner: int, seed: int) -> np.ndarray:
        """Fold id per training stay for the inner loop."""
        labels = {s.stay_id: int(l) for s, l in zip(self.train_stays, self.train_labels)}
        return grouped_stratified_folds(self.train_stays, labels, n_inner, seed)


def _fold_data(stays: list[IcuStay], labels: np.ndarray, fold_of: np.ndarray, fold: int,
               split_id: str, tensors: dict[str, StayTensor]) -> FoldData:
    """The split that holds out fold `fold`; `labels` is aligned with `stays`."""
    held_out = fold_of == fold
    train = [s for s, h in zip(stays, held_out) if not h]
    return FoldData(
        train_stays=train, test_stays=[s for s, h in zip(stays, held_out) if h],
        train_labels=labels[~held_out], test_labels=labels[held_out],
        scaling=fit_scaling([tensors[s.stay_id] for s in train], split_id),
        vocab=build_vocabulary(train),
    )


def _select(candidates, aucs):
    """The candidate with the best mean AUC over the inner folds, the first one on
    ties; `aucs[k][i]` is the AUC of `candidates[i]` on inner fold k."""
    return candidates[int(np.argmax([np.mean(column) for column in np.array(aucs).T]))]


def _standardize(X_fit: np.ndarray, X_apply: np.ndarray):
    """Z-score both matrices with the column mean/sd of `X_fit` (sd 0 -> 1)."""
    mu = X_fit.mean(axis=0)
    sd = X_fit.std(axis=0)
    sd[sd == 0] = 1.0
    return (X_fit - mu) / sd, (X_apply - mu) / sd


def _lr_train_and_score(model_id: str, fold: FoldData, t1_hours: float,
                        fold_of: np.ndarray, pool: ThreadPoolExecutor) -> np.ndarray:
    """Choose l2 by inner CV on the fold's training rows, fit on them, score the test split.

    `fold_of` is the inner fold id of each training stay. The design rows are
    summarised once per outer fold, in this thread; missing statistics are filled
    with the outer training split's means, in the inner folds too. The inner fits
    run on `pool`, and their AUCs are read in (inner fold, l2) order, so the first
    failing one in that order raises.
    """
    fill = dict(zip(fold.scaling.variables, fold.scaling.mean))

    def design(stays):
        X = np.stack([summarize_for_baselines(s, t1_hours, fill) for s in stays])
        if model_id == "lr_bow":
            X = np.hstack([X, np.stack([notes_to_bow(s, fold.vocab) for s in stays])])
        return X

    def score(l2, X_fit, X_held, y_fit, y_held):
        return auc(baselines.lr_predict(baselines.lr_train(X_fit, y_fit, l2=l2), X_held),
                   y_held)

    X_train, y = design(fold.train_stays), fold.train_labels
    fits = []
    for k in np.unique(fold_of):
        inner = (*_standardize(X_train[fold_of != k], X_train[fold_of == k]),
                 y[fold_of != k], y[fold_of == k])
        fits.append([pool.submit(score, l2, *inner) for l2 in LR_L2_GRID])
    l2 = _select(LR_L2_GRID, [[f.result() for f in row] for row in fits])
    X_train, X_test = _standardize(X_train, design(fold.test_stays))
    params = baselines.lr_train(X_train, y, l2=l2)
    return baselines.lr_predict(params, X_test)


def _train_and_score(model_id: str, fold: FoldData, hyper: HyperConfig,
                     tensors: dict[str, StayTensor]) -> np.ndarray:
    """Fit a neural model on the fold's training split only and score its test split."""
    def prepare(stays, labels):
        return prepare_stays(stays, {s.stay_id: int(l) for s, l in zip(stays, labels)},
                             tensors, fold.vocab, fold.scaling, hyper.max_note_len)

    train_prep = prepare(fold.train_stays, fold.train_labels)
    test_prep = prepare(fold.test_stays, fold.test_labels)
    if model_id == "lstm":
        result = baselines.lstm_baseline_train(train_prep, hyper)
        return baselines.lstm_baseline_predict(result, test_prep)
    if model_id == "hielstm":
        result = baselines.hielstm_only_train(train_prep, hyper, len(fold.vocab))
        return baselines.hielstm_only_predict(result, test_prep)
    if model_id == "memnet":
        result = memnet.train(train_prep, hyper, len(fold.vocab))
        return memnet.predict_stays(result, test_prep)
    raise MetricError(f"unknown model id {model_id!r}; expected one of {MODEL_IDS}")


def _tune(model_id: str, hyper: HyperConfig, grid: list[dict], splits: list[FoldData],
          tensors: dict[str, StayTensor]) -> HyperConfig:
    """Inner CV of a neural model over hyperparameter overrides on an outer fold's
    inner `splits`; returns the winning config."""
    candidates = [replace(hyper, **overrides) for overrides in grid] or [hyper]
    if len(candidates) == 1:
        return candidates[0]
    return _select(candidates, [[auc(_train_and_score(model_id, split, c, tensors),
                                     split.test_labels) for c in candidates]
                                for split in splits])


def fit_workers(n_fits: int) -> int:
    """Threads for `n_fits` fits that may run at once: the CPUs this process may run
    on over the BLAS threads of one fit, at least 1 and at most `n_fits` (when
    positive). The BLAS thread count is the first positive integer among
    `BLAS_THREAD_VARS`; with none set, BLAS is taken to use every CPU."""
    cpus = usable_cpus()
    blas_threads = cpus
    for var in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, min(cpus // blas_threads, n_fits))


def nested_cv(stays: list[IcuStay], labels: dict[str, int], models: list[str],
              t1_hours: float, hyper: HyperConfig, outer_folds: int, inner_folds: int,
              grid: list[dict], seed: int) -> list[MetricRecord]:
    """Outer folds estimate metrics; inner folds tune on each outer training split.

    For `lr` and `lr_bow` the inner loop chooses the L2 penalty from
    `LR_L2_GRID` by mean inner AUC (a tie goes to the stronger penalty) and the
    outer fit uses it; `grid` does not apply to them. Their inner folds reuse
    the outer fold's design rows, imputed with the outer training split's
    means, and refit only the standardisation. For the neural models the inner
    loop tunes `grid` and is skipped when it has at most one point. Inner folds
    are `inner_folds` patient-grouped folds of the outer training split.

    Pairs are collected in (fold, model) order: the neural ones run on
    `fit_workers` threads, the LR ones in the calling thread as their turn
    comes, with their inner fits on the same threads. A failing fit raises the
    error of the first failing pair in that order, as a serial loop would; the
    pairs not yet started are cancelled.
    """
    fold_of = grouped_stratified_folds(stays, labels, outer_folds, seed)
    y = np.array([labels[s.stay_id] for s in stays])
    tensors = {s.stay_id: bin_events(s, t1_hours) for s in stays}
    folds = [_fold_data(stays, y, fold_of, k, f"outer{k}-train", tensors)
             for k in range(outer_folds)]
    pairs = [(k, model_id) for k in range(outer_folds) for model_id in models]
    neural = [pair for pair in pairs if pair[1] not in LR_MODELS]
    n_lr = len(pairs) - len(neural)
    tuned = bool(neural) and len(grid) > 1
    # each outer fold's inner fold ids, for its LR models and its neural tuning alike
    inner_of = [fold.inner_folds(inner_folds, seed + 1000 + k) if n_lr or tuned else None
                for k, fold in enumerate(folds)]
    splits = [[_fold_data(fold.train_stays, fold.train_labels, inner_of[k], j,
                          f"{fold.scaling.split_id}-inner{j}", tensors)
               for j in range(inner_folds)] if tuned else []
              for k, fold in enumerate(folds)]

    def fit(fold_idx: int, model_id: str) -> np.ndarray:
        fold = folds[fold_idx]
        if model_id in LR_MODELS:
            return _lr_train_and_score(model_id, fold, t1_hours, inner_of[fold_idx], pool)
        chosen = _tune(model_id, hyper, grid, splits[fold_idx], tensors)
        return _train_and_score(model_id, fold, chosen, tensors)

    records = []
    # at most every neural pair and the inner fits of one LR pair are pending at once
    lr_fits = inner_folds * len(LR_L2_GRID) if n_lr else 0
    pool = ThreadPoolExecutor(fit_workers(len(neural) + lr_fits))
    try:
        futures = {pair: pool.submit(fit, *pair) for pair in neural}
        for pair in pairs:
            p = futures[pair].result() if pair in futures else fit(*pair)
            fold = folds[pair[0]]
            pr = precision_recall(p, fold.test_labels)
            records.append(MetricRecord(model_id=pair[1], fold_id=pair[0],
                                        auc=auc(p, fold.test_labels),
                                        precision=pr.precision, recall=pr.recall))
    finally:
        pool.shutdown(cancel_futures=True)
    return records


def write_metrics_table(records: list[MetricRecord], path) -> None:
    """Tables-1/2-shaped rows: one per model, each metric as mean +/- sd over folds."""
    metrics = ("auc", "precision", "recall")
    rows = []
    for model_id in sorted({r.model_id for r in records}):
        cells = [model_id]
        for metric in metrics:
            vals = np.array([getattr(r, metric) for r in records if r.model_id == model_id])
            cells.append(f"{vals.mean():.4f} +/- {vals.std(ddof=1):.4f}"
                         if len(vals) > 1 else f"{vals.mean():.4f}")
        rows.append(cells)
    write_rows(path, ("model", *metrics), rows)
