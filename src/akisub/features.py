"""Feature extraction: binned/imputed/scaled stay tensors, static vectors,
the 147-entry summary vector for classical baselines, and note encodings.

No stage persists the stay tensors: train, embed and evaluate rebuild them
from the cohort with `prepare_stays`. The two pure per-stay transforms are
memoised on the stay (`IcuStay.feature_memo`), per observation window:
`bin_events` keeps its read-only bin arrays, and `summarize_for_baselines` all
of its row but the fills of unobserved variables, which each call applies to a
new copy. The stages of one process share the kept parse's stays, so each stay
is binned and summarised once; a stay must therefore not be modified once
featurized.

Fixed layouts
-------------
Stay tensor columns follow `cohort.TIME_VARIABLES` (8 chart + 13 lab series,
d = 21); rows are 2-hour sub-windows of the observation window (t = t1/2).

Static vector (20 entries): age/100, sex one-hot (male, female), ethnicity
one-hot (white, black, asian, other), 4 medication flags, 9 comorbidity flags.

Baseline summary vector (147 entries): 19 continuous variables (the 8 chart
variables plus 11 labs: bicarbonate, bun, calcium, chloride, creatinine,
hemoglobin, platelet, potassium, pt, wbc, urine_rate; inr and ptt are folded
out in favour of pt) x 7 statistics (first, last, average, minimum, maximum,
slope per bin, count of raw observations) = 133, followed by 14 static
entries: age/100, male indicator, reference-coded ethnicity (black, asian,
other), 4 medication flags, and 5 comorbidity groups (cardiac = chf|mi|cad,
vascular = peripheral_vascular, hypertension, diabetes,
hepatic = liver_disease|cirrhosis|jaundice).

Exact array kernels
-------------------
`bin_events`, `fit_scaling` and `summarize_for_baselines` work on whole arrays
yet give the bits of a loop over points, stays or variables: each sum is either
`bincount`'s, which adds in point order as the loop did, or numpy's own
`np.add.reduce` over the same values in the same order. Where several runs of
values are summed at once (`_segment_sums`), the runs of one length are the rows
of one 2-D array reduced along its rows, which keeps each row's pairwise sum.
Three shortcuts change bits and are not used: `np.add.reduceat`, a 3-D gather
reduced over its last axis, and runs padded with -0.0 to one width.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cohort import (CHART_VARIABLES, COMORBIDITY_FLAGS, ETHNICITIES, MED_FLAGS, SEXES,
                     TIME_VARIABLES, IcuStay, write_rows)
from .errors import ArgumentError, ImputationError, SchemaError

SUB_WINDOW_HOURS = 2.0
T1_HOURS = (24, 48)  # the observation windows a run may use, in hours
STATIC_DIM = 20
BASELINE_DIM = 147

BASELINE_CONTINUOUS_VARS = CHART_VARIABLES + (
    "bicarbonate", "bun", "calcium", "chloride", "creatinine", "hemoglobin",
    "platelet", "potassium", "pt", "wbc", "urine_rate")
BASELINE_STATS = ("first", "last", "avg", "min", "max", "slope", "count")

PAD_TOKEN = "<pad>"


@dataclass
class StayTensor:
    """t x d matrix of 2-hour bin means with an observed/imputed mask."""

    stay_id: str
    values: np.ndarray
    mask: np.ndarray


@dataclass
class PreparedStay:
    """Model-ready view of one stay (scaled tensor, static vector, note ids)."""

    stay_id: str
    tensor: np.ndarray             # (t, d), scaled to [0, 1]
    static: np.ndarray             # (static_dim,)
    note_seqs: list[list[int]]
    label: int | None = None


@dataclass
class ScalingStats:
    """Per-variable mean/min/max fitted on one training split only."""

    split_id: str
    mean: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    variables: tuple[str, ...] = TIME_VARIABLES


def bin_count(t1_hours: float) -> int:
    """The 2-hour windows of a `T1_HOURS` observation window: the memory size."""
    if t1_hours not in T1_HOURS:
        raise ArgumentError(f"t1_hours must be one of {T1_HOURS}, got {t1_hours}")
    return int(t1_hours / SUB_WINDOW_HOURS)


def _window_points(stay: IcuStay, variables: tuple[str, ...], t1_hours: float):
    """(column, 2-hour bin, value) of every point with 0 <= offset < t1_hours, over
    `variables` concatenated in order, each series in its own point order."""
    points = [stay.series(var).points for var in variables]
    col = np.repeat(np.arange(len(variables)), [len(p) for p in points])
    offset, value = np.concatenate(points).T
    keep = (offset >= 0.0) & (offset < t1_hours)
    return col[keep], (offset[keep] // SUB_WINDOW_HOURS).astype(np.intp), value[keep]


def _bin_sums(col: np.ndarray, j: np.ndarray, value: np.ndarray, t: int, d: int):
    """(t, d) sums and counts of the values in each bin; `bincount` adds each bin's
    values in point order, as a loop over the points would."""
    cell = j * d + col
    sums = np.bincount(cell, weights=value, minlength=t * d).reshape(t, d)
    counts = np.bincount(cell, minlength=t * d).reshape(t, d)
    return sums, counts


def bin_events(stay: IcuStay, t1_hours: float) -> StayTensor:
    """Average each variable over 2-hour sub-windows; mask 0 where unobserved.

    The first call for a stay and window keeps both arrays, read-only, in
    `stay.feature_memo`; a later call returns them in a new `StayTensor`."""
    t = bin_count(t1_hours)
    key = ("bins", t1_hours)
    if key not in stay.feature_memo:
        known = set(TIME_VARIABLES)
        for name in list(stay.chart_series) + list(stay.lab_series):
            if name not in known:
                raise SchemaError(f"unknown variable id {name!r}")
        d = len(TIME_VARIABLES)
        sums, counts = _bin_sums(*_window_points(stay, TIME_VARIABLES, t1_hours), t, d)
        observed = counts > 0
        values = np.zeros((t, d))
        values[observed] = sums[observed] / counts[observed]
        mask = observed.astype(np.float64)
        values.flags.writeable = mask.flags.writeable = False
        stay.feature_memo[key] = values, mask
    return StayTensor(stay.stay_id, *stay.feature_memo[key])


def fit_scaling(tensors: list[StayTensor], split_id: str) -> ScalingStats:
    """Variable mean/min/max over observed cells of the given (training) tensors.

    The tensors' rows are stacked once, so each variable's cells come out stay by
    stay and bin by bin: the order of a loop over the stays, which the mean's
    summation depends on."""
    d = len(TIME_VARIABLES)
    mean = np.zeros(d)
    vmin = np.zeros(d)
    vmax = np.zeros(d)
    values = np.concatenate([np.zeros((0, d))] + [t.values for t in tensors])
    observed = np.concatenate([np.zeros((0, d))] + [t.mask for t in tensors]) > 0
    for col, var in enumerate(TIME_VARIABLES):
        cells = values[observed[:, col], col]
        if cells.size == 0:
            raise ImputationError(f"variable {var!r} never observed in training split "
                                  f"{split_id!r}")
        mean[col] = cells.mean()
        vmin[col] = cells.min()
        vmax[col] = cells.max()
    return ScalingStats(split_id=split_id, mean=mean, vmin=vmin, vmax=vmax)


def apply_scaling(tensor: StayTensor, stats: ScalingStats) -> StayTensor:
    """Impute masked cells with the training mean, then min-max scale into [0, 1]."""
    raw = np.where(tensor.mask > 0, tensor.values, stats.mean)
    span = stats.vmax - stats.vmin
    scaled = np.zeros_like(raw)
    nondegenerate = span > 0
    scaled[:, nondegenerate] = (raw[:, nondegenerate] - stats.vmin[nondegenerate]) \
        / span[nondegenerate]
    scaled = np.clip(scaled, 0.0, 1.0)
    return StayTensor(tensor.stay_id, scaled, tensor.mask.copy())


def impute_and_scale(tensors: list[StayTensor], split_id: str,
                     ) -> tuple[list[StayTensor], ScalingStats]:
    stats = fit_scaling(tensors, split_id)
    return [apply_scaling(t, stats) for t in tensors], stats


def static_vector(stay: IcuStay) -> np.ndarray:
    """20-entry encoding: scaled age, one-hot sex/ethnicity, med and comorbidity flags."""
    out = np.zeros(STATIC_DIM)
    out[0] = stay.age / 100.0
    out[1 + SEXES.index(stay.sex)] = 1.0
    out[3 + ETHNICITIES.index(stay.ethnicity)] = 1.0
    for i, flag in enumerate(MED_FLAGS):
        out[7 + i] = stay.med_flags[flag]
    for i, flag in enumerate(COMORBIDITY_FLAGS):
        out[11 + i] = stay.comorbidity_flags[flag]
    return out


def _static14(stay: IcuStay) -> np.ndarray:
    como = stay.comorbidity_flags
    groups = (
        max(como["chf"], como["mi"], como["cad"]),
        como["peripheral_vascular"],
        como["hypertension"],
        como["diabetes"],
        max(como["liver_disease"], como["cirrhosis"], como["jaundice"]),
    )
    return np.array([stay.age / 100.0, 1.0 if stay.sex == "male" else 0.0,
                     1.0 if stay.ethnicity == "black" else 0.0,
                     1.0 if stay.ethnicity == "asian" else 0.0,
                     1.0 if stay.ethnicity == "other" else 0.0]
                    + [float(stay.med_flags[f]) for f in MED_FLAGS]
                    + [float(g) for g in groups])


def baseline_feature_names() -> list[str]:
    names = [f"{var}_{stat}" for var in BASELINE_CONTINUOUS_VARS for stat in BASELINE_STATS]
    names += ["age_scaled", "sex_male", "ethnicity_black", "ethnicity_asian",
              "ethnicity_other"]
    names += [f"med_{f}" for f in MED_FLAGS]
    names += ["como_cardiac", "como_vascular", "como_hypertension", "como_diabetes",
              "como_hepatic"]
    return names


def summarize_for_baselines(stay: IcuStay, t1_hours: float,
                            fill_means: dict[str, float]) -> np.ndarray:
    """First/last/avg/min/max over raw observations in the window, least-squares
    slope over observed 2-hour bins, and the raw observation count, per variable;
    first to max of a variable without observations are its `fill_means` entry.

    All but those entries are computed once per stay and window and kept in
    `stay.feature_memo`; each call returns a new row with its own fill applied."""
    key = ("summary", t1_hours)
    if key not in stay.feature_memo:
        stay.feature_memo[key] = _summary(stay, t1_hours)
    row, unseen = stay.feature_memo[key]
    values = row.copy()
    width = len(BASELINE_STATS)
    for c in unseen:
        values[c * width:c * width + 5] = fill_means.get(BASELINE_CONTINUOUS_VARS[c], 0.0)
    return values


def _summary(stay: IcuStay, t1_hours: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only summary row of `summarize_for_baselines` with 0 in place of
    each fill, and the indices of the variables without observations.

    All variables are summarised at once, with the bits of a loop over them: first,
    last, min, max and count do not depend on an order of summation, and every sum
    an average or a slope takes is numpy's own row reduction over that variable's
    values (`_segment_sums`), never `np.add.reduceat`, a 3-D reduction or -0.0
    padding."""
    t = bin_count(t1_hours)
    n_vars = len(BASELINE_CONTINUOUS_VARS)
    col, j, value = _window_points(stay, BASELINE_CONTINUOUS_VARS, t1_hours)
    sums, counts = _bin_sums(col, j, value, t, n_vars)
    n_obs = np.bincount(col, minlength=n_vars)
    seen = n_obs > 0
    values = np.zeros(BASELINE_DIM)
    stats = values[:n_vars * len(BASELINE_STATS)].reshape(n_vars, -1)
    stats[:, 6] = n_obs
    if seen.any():
        n_obs = n_obs[seen]
        n_seen = len(n_obs)
        first = n_obs.cumsum() - n_obs
        # the observed bins of each seen variable, variable by variable
        counts = counts.T[seen]
        in_bin = counts > 0
        n_bins = in_bin.sum(axis=1)
        y = sums.T[seen][in_bin] / counts[in_bin]
        totals = _segment_sums(np.concatenate([value, y]), np.concatenate([n_obs, n_bins]))
        # bin indices are small integers, so their sum is exact in any order
        xc = in_bin.nonzero()[1] - (in_bin @ np.arange(t) / n_bins).repeat(n_bins)
        yc = y - (totals[n_seen:] / n_bins).repeat(n_bins)
        cross = _segment_sums(np.concatenate([xc * yc, xc * xc]),
                              np.concatenate([n_bins, n_bins]))
        slope = np.divide(cross[:n_seen], cross[n_seen:], out=np.zeros(n_seen),
                          where=n_bins > 1)
        stats[seen, :6] = np.array([value[first], value[first + n_obs - 1],
                                    totals[:n_seen] / n_obs,
                                    np.minimum.reduceat(value, first),
                                    np.maximum.reduceat(value, first), slope]).T
    values[stats.size:] = _static14(stay)
    values.flags.writeable = False
    return values, tuple(np.flatnonzero(~seen).tolist())


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of `lengths[i]` consecutive entries of `values`, bit for
    bit `np.add.reduce` of that run. The runs of one length become the rows of one
    2-D array, reduced along its rows, so each row gets numpy's own pairwise sum
    (see the module docstring for the shortcuts that change bits)."""
    order = lengths.argsort(kind="stable")
    runs = lengths[order]
    # the runs in order of length, so the runs of one length lie side by side
    gathered = values[(lengths.cumsum()[order] - runs.cumsum()).repeat(runs)
                      + np.arange(len(values))]
    sums = np.empty(len(lengths))
    at = row = 0
    for size, group in itertools.groupby(runs.tolist()):
        count = len(list(group))
        np.add.reduce(gathered[at:at + size * count].reshape(count, size), axis=1,
                      out=sums[row:row + count])
        at += size * count
        row += count
    out = np.empty_like(sums)
    out[order] = sums
    return out


# ---------------------------------------------------------------------------
# notes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]  # index 0 is the padding token

    def __len__(self):
        return len(self.tokens)

    @property
    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}


def build_vocabulary(stays: list[IcuStay]) -> Vocabulary:
    """Sorted unique note tokens of the given (training) stays, pad-first."""
    seen = set()
    for stay in stays:
        for note in stay.notes:
            seen.update(note.tokens)
    seen.discard(PAD_TOKEN)
    return Vocabulary(tokens=(PAD_TOKEN,) + tuple(sorted(seen)))


def notes_to_sequences(stay: IcuStay, vocab: Vocabulary,
                       max_note_len: int) -> list[list[int]]:
    """Token-index sequences in timestamp order; OOV dropped, truncation applied.

    A note with no in-vocabulary tokens is kept as a single padding token so the
    note count (and hence the note-level sequence) is preserved.
    """
    index = vocab.index
    out = []
    for note in sorted(stay.notes, key=lambda n: n.offset_hours):
        ids = [index[tok] for tok in note.tokens if tok in index][:max_note_len]
        out.append(ids if ids else [0])
    return out


def notes_to_bow(stay: IcuStay, vocab: Vocabulary) -> np.ndarray:
    """Token counts over all notes of the stay (padding index stays zero)."""
    index = vocab.index
    counts = np.zeros(len(vocab), dtype=np.int64)
    for note in stay.notes:
        for tok in note.tokens:
            i = index.get(tok)
            if i is not None and i != 0:
                counts[i] += 1
    return counts


def prepare_stays(stays: list[IcuStay], labels: dict[str, int],
                  tensors: dict[str, StayTensor], vocab: Vocabulary, stats: ScalingStats,
                  max_note_len: int) -> list[PreparedStay]:
    """Bundle scaled tensors, static vectors, and note sequences per stay;
    `tensors` holds each stay's `bin_events` tensor by stay id."""
    prepared = []
    for stay in stays:
        tensor = apply_scaling(tensors[stay.stay_id], stats)
        prepared.append(PreparedStay(
            stay_id=stay.stay_id,
            tensor=tensor.values,
            static=static_vector(stay),
            note_seqs=notes_to_sequences(stay, vocab, max_note_len),
            label=labels[stay.stay_id],
        ))
    return prepared


# ---------------------------------------------------------------------------
# delimited-text persistence
# ---------------------------------------------------------------------------

def write_stay_tensors(tensors: list[StayTensor], values_path, mask_path) -> None:
    header = ("stay_id", "bin", *TIME_VARIABLES)
    write_rows(values_path, header, ([t.stay_id, str(j), *(repr(float(x)) for x in row)]
                                     for t in tensors for j, row in enumerate(t.values)))
    write_rows(mask_path, header, ([t.stay_id, str(j), *(str(int(x)) for x in row)]
                                   for t in tensors for j, row in enumerate(t.mask)))


def write_baseline_features(stay_ids, rows, path) -> None:
    write_rows(path, ("stay_id", *baseline_feature_names()),
               ([sid, *(repr(float(x)) for x in row)] for sid, row in zip(stay_ids, rows)))
