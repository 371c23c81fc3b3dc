"""ICU stay data model and a seeded synthetic cohort generator.

The generator plants three case archetypes with distinct structured profiles
(means calibrated to published per-subtype statistics), KDIGO-consistent
creatinine/urine trajectories (archetype 1 -> stage 1, 2 -> stage 3,
3 -> stage 2), and notes whose tokens carry complementary risk and archetype
signal. Controls never satisfy any KDIGO clause; a fraction of controls are
"mimics" whose structured profile looks case-like so that notes add
information beyond the structured data. Only the stay count, case fraction
and seed are settings (`CohortConfig`): the subtype mixture and the noise of
each variable are fixed by the tables below, and notes draw from the 160
tokens of `NOTE_TOKENS`.

Cohort files are JSON Lines with a versioned header record; see
`write_cohort` for the schema.

`write_text` is the one writer of the package's text files: every CSV, JSON
and text artifact goes through it (CSV ones through `write_rows`), as UTF-8.

In memory, each `EventSeries` holds its measurements column-wise: `points` is
one C-contiguous (n, 2) float64 array whose column 0 holds the offsets (hours
from admission) and column 1 the values; an empty series has shape (0, 2).
`read_cohort` parses all series of a stay into one read-only buffer and hands
each series a row-slice view of it.

`read_cohort` keeps its last parse, keyed by the SHA-256 of the file's bytes:
reading a file whose content matches returns a new list of the same `IcuStay`
objects without parsing again. The stays are therefore shared between readers
and must not be mutated. A caller that has just hashed the file passes that
digest, and the file is not hashed a second time. `write_cohort` sets the kept
parse too: the stays it writes are kept under the hash of the bytes it wrote,
so a file read back after it is written is not parsed, and the stays it was
given must not be mutated afterwards either. A generated stay equals
its parse in every respect: its dicts hold their keys in the file's sorted
order, and its points are read-only.

`generate_cohort` and `write_cohort` work on all the CPUs the process may use
(`_fork_join`): the stays are split into contiguous ranges, this process runs
the first, and each other range runs in a forked child that sends its result
back pickled. Each stay draws from its own stream, and a plan walked once in
order assigns the patients, so the stays and the file's bytes do not depend on
the number of processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import threading
from contextlib import closing
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError

SEXES = ("male", "female")
ETHNICITIES = ("white", "black", "asian", "other")

CHART_VARIABLES = ("diasbp", "glucose", "heartrate", "meanbp",
                   "resprate", "spo2", "sysbp", "temp")
LAB_VARIABLES = ("bicarbonate", "bun", "calcium", "chloride", "creatinine",
                 "hemoglobin", "inr", "platelet", "potassium", "pt", "ptt",
                 "wbc", "urine_rate")
TIME_VARIABLES = CHART_VARIABLES + LAB_VARIABLES

MED_FLAGS = ("diuretics", "nsaid", "radiocontrast", "angiotensin")
COMORBIDITY_FLAGS = ("chf", "peripheral_vascular", "hypertension", "diabetes",
                     "liver_disease", "mi", "cad", "cirrhosis", "jaundice")

COHORT_FORMAT = "akisub-cohort"
COHORT_VERSION = 1

# generation horizon: supports observation windows of 24 or 48 h plus the
# 7-day prediction window
OBS_HORIZON_HOURS = 48.0
STAY_HORIZON_HOURS = 48.0 + 7 * 24.0  # 216


@dataclass
class EventSeries:
    """Time-ordered measurements of one variable (offsets in hours from admission).

    Any sequence of (offset, value) pairs is converted once into a C-contiguous
    (n, 2) float64 `points` array: offsets in column 0, values in column 1.
    """

    variable: str
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=np.float64)
        if points.size == 0:
            points = points.reshape(0, 2)
        if points.ndim != 2 or points.shape[1] != 2:
            raise DataError(f"{self.variable}: points must be (offset, value) pairs, "
                            f"got an array of shape {points.shape}")
        self.points = points

    def __eq__(self, other):
        if not isinstance(other, EventSeries):
            return NotImplemented
        return self.variable == other.variable and np.array_equal(self.points, other.points)


def _check_series(series: list[EventSeries]) -> None:
    """Offsets finite, non-negative and strictly increasing within each series, values
    finite: checked in one pass over the points of all `series`, then the first
    failing point is named."""
    lengths = [len(s.points) for s in series]
    points = np.concatenate([s.points for s in series])
    owner = np.repeat(np.arange(len(series)), lengths)
    t = points[:, 0]
    ok = np.isfinite(points).all(axis=1) & (t >= 0)
    ok[1:] &= (t[1:] > t[:-1]) | (owner[1:] != owner[:-1])
    if ok.all():
        return
    i = int(ok.argmin())
    s = series[owner[i]]
    j = i - sum(lengths[:owner[i]])
    t_j, v_j = s.points[j].tolist()
    if not np.isfinite(t_j):
        raise DataError(f"{s.variable}: non-finite offset {t_j}")
    if t_j < 0:
        raise DataError(f"{s.variable}: negative offset {t_j}")
    if j > 0 and not t_j > s.points[j - 1, 0]:
        raise DataError(f"{s.variable}: offsets not strictly increasing at {t_j}")
    raise DataError(f"{s.variable}: non-finite value at {t_j}")


@dataclass
class ClinicalNote:
    offset_hours: float
    tokens: list[str]

    def validate(self):
        """Tokens are non-empty strings without whitespace, so `vocab.txt`, one token
        per line, holds each of them as one token."""
        if not self.tokens:
            raise DataError("note with empty token list")
        for token in self.tokens:
            if not isinstance(token, str):
                raise DataError(f"note token {token!r} is not a string")
            if token.split() != [token]:
                raise DataError(f"note token {token!r} is empty or holds whitespace")
        if self.offset_hours < 0:
            raise DataError(f"note with negative offset {self.offset_hours}")


@dataclass
class IcuStay:
    stay_id: str
    patient_id: str
    age: float
    sex: str
    ethnicity: str
    weight_kg: float
    med_flags: dict[str, int]
    comorbidity_flags: dict[str, int]
    chart_series: dict[str, EventSeries]
    lab_series: dict[str, EventSeries]
    notes: list[ClinicalNote]
    planted_subtype: int | None = None  # generator ground truth; models never read it

    def validate(self):
        """DataError unless the stay is well formed. Its id is a string without commas
        or whitespace, so each CSV artifact holds it as one field of one line."""
        if not isinstance(self.stay_id, str):
            raise DataError(f"stay_id {self.stay_id!r} is not a string")
        if self.stay_id.split() != [self.stay_id] or "," in self.stay_id:
            raise DataError(f"stay_id {self.stay_id!r} is empty or holds a comma or "
                            "whitespace")
        if self.age <= 0 or self.weight_kg <= 0:
            raise DataError(f"{self.stay_id}: non-positive age or weight")
        if self.sex not in SEXES or self.ethnicity not in ETHNICITIES:
            raise DataError(f"{self.stay_id}: unknown sex/ethnicity")
        if set(self.med_flags) != set(MED_FLAGS) or set(self.comorbidity_flags) != set(COMORBIDITY_FLAGS):
            raise DataError(f"{self.stay_id}: flag vocabulary mismatch")
        if set(self.chart_series) != set(CHART_VARIABLES):
            raise DataError(f"{self.stay_id}: chart variable vocabulary mismatch")
        if set(self.lab_series) != set(LAB_VARIABLES):
            raise DataError(f"{self.stay_id}: lab variable vocabulary mismatch")
        _check_series(list(self.chart_series.values()) + list(self.lab_series.values()))
        scr = self.lab_series["creatinine"].points
        bad = scr[:, 1] <= 0  # no baseline can be taken from such a value
        if bad.any():
            t, v = scr[bad.argmax()].tolist()
            raise DataError(f"creatinine: non-positive value {v} at {t}")
        for note in self.notes:
            note.validate()

    def series(self, variable: str) -> EventSeries:
        if variable in self.chart_series:
            return self.chart_series[variable]
        if variable in self.lab_series:
            return self.lab_series[variable]
        raise DataError(f"unknown variable {variable!r}")


@dataclass
class CohortConfig:
    n_stays: int = 600  # about 110 cases, enough for the default t-SNE perplexity
    case_fraction: float = 0.2
    seed: int = 0

    def validate(self):
        if self.n_stays <= 0:
            raise ConfigError("n_stays must be positive")
        if not 0.0 < self.case_fraction < 1.0:
            raise ConfigError("case_fraction must be in (0, 1)")


# ---------------------------------------------------------------------------
# scalar draws
# ---------------------------------------------------------------------------
#
# The generator draws one scalar at a time, where `Generator.choice` and
# `Generator.uniform` spend most of their time checking arguments. The forms
# below consume the same stream and return the same values as those calls.

def _cdf(p) -> np.ndarray:
    """The normalised cumulative weights `Generator.choice(..., p=p)` builds."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


def _pick(rng, cdf: np.ndarray) -> int:
    """`rng.choice(len(cdf), p=p)` for `cdf = _cdf(p)`."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _uniform(rng, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)`."""
    return lo + (hi - lo) * rng.random()


# ---------------------------------------------------------------------------
# archetype tables
# ---------------------------------------------------------------------------

# per non-renal variable, in the order of TIME_VARIABLES: observation-window means
# for archetypes (1, 2, 3, control), between-stay sd, observation noise sd,
# physiological clamp
_VAR_ROWS = {
    #                 a1       a2       a3      ctrl   b_sd   o_sd     lo      hi
    "diasbp":      (58.64,   61.13,   60.45,  62.0,   2.8,   2.2,    30.0,  110.0),
    "glucose":     (134.32, 145.56,  144.22, 118.0,   7.0,   6.0,    50.0,  400.0),
    "heartrate":   (87.22,   90.65,   86.12,  84.0,   3.8,   3.0,    35.0,  180.0),
    "meanbp":      (76.09,   78.46,   79.02,  78.0,   3.0,   2.4,    40.0,  140.0),
    "resprate":    (18.08,   20.26,   19.19,  17.0,   1.0,   0.9,     6.0,   45.0),
    "spo2":        (96.37,   96.27,   97.23,  97.5,   0.5,   0.5,    80.0,  100.0),
    "sysbp":       (115.67, 120.22,  120.43, 121.0,   3.8,   3.0,    60.0,  220.0),
    "temp":        (36.85,   36.82,   36.82,  36.8,   0.15,  0.12,   33.0,   41.0),
    "bicarbonate": (23.87,   24.70,   24.51,  24.5,   1.0,   0.8,    10.0,   45.0),
    "bun":         (28.66,   28.65,   27.66,  18.0,   3.3,   2.0,     3.0,  140.0),
    "calcium":     (8.36,     8.40,    8.78,   8.6,   0.19,  0.15,    5.0,   13.0),
    "chloride":    (105.19, 102.22,  103.38, 104.0,   1.2,   1.0,    85.0,  125.0),
    "hemoglobin":  (13.55,   17.18,   15.53,  11.8,   0.52,  0.40,    5.0,   22.0),
    "inr":         (1.47,     1.54,    1.47,   1.30,  0.10,  0.06,    0.8,    8.0),
    "platelet":    (242.08, 384.96,  265.31, 230.0,  21.0,  12.0,    20.0,  900.0),
    "potassium":   (4.24,     4.25,    4.22,   4.10,  0.14,  0.12,    2.2,    7.5),
    "pt":          (15.45,   17.30,   15.55,  14.5,   0.9,   0.6,     9.0,   45.0),
    "ptt":         (35.12,   39.24,   36.94,  32.0,   2.5,   1.6,    18.0,  120.0),
    "wbc":         (10.59,   15.71,   13.23,   9.5,   1.3,   1.0,     1.0,   60.0),
}

# renal series span the whole stay and get tight noise with hard clamps, so planted
# labels are stable; per variable: {archetype: (baseline mean, between-stay sd)},
# baseline clamp, observation noise sd and its clamp, value floor, hours between points
_RENAL_ROWS = {
    "creatinine": ({1: (1.55, 0.07), 2: (1.96, 0.09), 3: (1.69, 0.07), 0: (1.05, 0.12)},
                   (0.4, 12.0), 0.032, 0.08, 0.2, 6.0),
    "urine_rate": ({1: (1.35, 0.06), 2: (1.02, 0.06), 3: (1.19, 0.06), 0: (1.50, 0.09)},
                   (0.55, 4.0), 0.024, 0.06, 0.05, 2.0),
}

# planted creatinine ramp: fold increase over baseline by archetype; with the
# dip below, archetypes 1, 2 and 3 land in KDIGO stages 1, 3 and 2
_SCR_RAMP_RATIO = {1: (1.60, 1.78), 2: (3.40, 3.80), 3: (1.60, 1.78)}

# archetype 3 additionally gets a sustained oliguria dip (stage 2 urine clause)
_DIP_LEVEL = (0.34, 0.42)
_DIP_DURATION = (16.0, 20.0)

_ONSET_RANGE = (55.0, 128.0)       # after both candidate observation windows
_RAMP_DURATION = (18.0, 34.0)

_AGE = {1: (63.03, 9.0), 2: (66.81, 9.0), 3: (65.07, 9.0), 0: (61.0, 13.0)}
_MALE_P = {1: 0.6431, 2: 0.4613, 3: 0.5485, 0: 0.56}
_ETHNICITY_P = {
    1: (0.20, 0.55, 0.15, 0.10),
    2: (0.14, 0.69, 0.11, 0.06),
    3: (0.25, 0.54, 0.17, 0.04),
    0: (0.35, 0.40, 0.15, 0.10),
}
_ETHNICITY_CDF = {arche: _cdf(p) for arche, p in _ETHNICITY_P.items()}
# flags by archetype (diuretics, nsaid, radiocontrast, angiotensin): the
# post-surgical archetype is medication-light, the severe archetype is
# diuretic/angiotensin-heavy, the contrast-injury archetype is contrast-heavy
_MED_P = {
    1: (0.10, 0.12, 0.06, 0.10),
    2: (0.75, 0.45, 0.25, 0.55),
    3: (0.40, 0.28, 0.70, 0.30),
    0: (0.08, 0.08, 0.05, 0.10),
}
# (chf, peripheral_vascular, hypertension, diabetes, liver_disease, mi, cad,
# cirrhosis, jaundice); the third archetype carries the hepatic burden
_COMORBIDITY_P = {
    1: (0.35, 0.10, 0.45, 0.20, 0.06, 0.10, 0.30, 0.04, 0.02),
    2: (0.80, 0.25, 0.70, 0.60, 0.18, 0.30, 0.55, 0.10, 0.08),
    3: (0.55, 0.18, 0.60, 0.55, 0.55, 0.18, 0.40, 0.45, 0.30),
    0: (0.25, 0.08, 0.40, 0.18, 0.05, 0.08, 0.25, 0.03, 0.02),
}

# Cases express ONE archetype coherently in both modalities: the structured
# profile and the note markers agree. Controls come in three flavours:
# mismatched (an archetype profile paired with a different archetype's notes),
# profile-only mimics (archetype profile, unremarkable notes), and healthy.
# Single-modality models therefore hit a ceiling (each channel alone cannot
# tell mimics from cases), while a model that compares the note query against
# the structured memory can detect the agreement; within cases, the agreed
# archetype identity is what the clustering should recover.
_MISMATCH_CONTROL_P = 0.35
_PROFILE_MIMIC_CONTROL_P = 0.10
# the planted subtype mixture (subtype II is about 9% of cases); mimic controls draw
# their archetype profile from it too
_SUBTYPE_P = (0.595, 0.088, 0.317)
_SUBTYPE_CDF = _cdf(_SUBTYPE_P)
# every note of a case holds exactly this many marker tokens from its archetype
# pool; unremarkable notes hold one (sometimes two) markers from a random pool
# chosen once per stay
_CASE_MARKERS_PER_NOTE = {1: 1, 2: 5, 3: 2}
_CONTROL_MARKERS_PER_NOTE = ((1, 2), (0.8, 0.2))
_CONTROL_MARKERS_CDF = _cdf(_CONTROL_MARKERS_PER_NOTE[1])
_RISK_TOKEN_P = 0.02               # shared flavor tokens, same rate for everyone
_REPEAT_STAY_P = 0.07              # chance a stay belongs to the previous patient
_MISSING_P = 0.15                  # observation-window dropout per measurement

# ---------------------------------------------------------------------------
# note vocabulary
# ---------------------------------------------------------------------------

_FILLER_TOKENS = (
    "patient stable overnight plan continue monitor tolerating diet vitals "
    "afebrile pain controlled family updated ambulating oriented alert resting "
    "comfortable improving reviewed labs pending consult ordered morning evening "
    "unchanged status exam unremarkable breathing room air appetite fair sleep "
    "adequate nursing repositioned skin intact"
).split()

# filler usage follows a Zipf profile, like real note text
_FILLER_WEIGHTS = 1.0 / np.arange(1, len(_FILLER_TOKENS) + 1) ** 1.6
_FILLER_WEIGHTS /= _FILLER_WEIGHTS.sum()
_FILLER_CDF = _cdf(_FILLER_WEIGHTS)

_RISK_TOKENS = ("oliguria", "hypotension", "sepsis", "nephrotoxic", "rising", "bolus")

_ARCHETYPE_TOKENS = {
    1: ("cabg", "wires", "postop", "bypass"),
    2: ("pressors", "shock", "anuric", "lasix"),
    3: ("contrast", "cirrhotic", "ascites", "foley"),
}

_BASE_TOKENS = tuple(_FILLER_TOKENS) + _RISK_TOKENS + tuple(
    t for a in (1, 2, 3) for t in _ARCHETYPE_TOKENS[a])

# the closed list of 160 tokens the generator draws from: the base tokens padded
# with rare fillers
NOTE_TOKENS = _BASE_TOKENS + tuple(f"word{i:03d}" for i in range(160 - len(_BASE_TOKENS)))
_EXTRA_FILLERS = NOTE_TOKENS[len(_BASE_TOKENS):]


# ---------------------------------------------------------------------------
# fork-join over stay ranges
# ---------------------------------------------------------------------------

# Fewest stays an extra worker process takes. On 2 cores, in a process that has
# loaded numpy and scipy, a fork, its pipe and its wait cost about 6 ms, against
# about 2 ms to generate a stay and 0.8 ms to serialise one, so a range of this
# size repays its process several times over.
FORK_MIN_STAYS = 40


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _workers(n: int) -> int:
    """Processes to share `n` stays: one per usable CPU, while each extra one gets at
    least `FORK_MIN_STAYS` stays. One where there is no `os.fork`, or where another
    thread runs, since a forked child holds a copy of that thread's locks."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cpus(), n // FORK_MIN_STAYS))


def _fork_join(fn, n: int):
    """Yield the items of `fn(r)` for each of the `_workers(n)` contiguous ranges `r`
    that split `range(n)`, in order. This process takes the first range's items as
    they are asked for. Each other range runs at once in a forked child, which
    collects its items and, when the range's turn comes, sends them back one pickle
    each. An exception of a range, raised here or in a child, is raised at its turn.
    Once the generator is exhausted or closed, no child is left, so a caller that
    may stop early closes it (`contextlib.closing`)."""
    workers = _workers(n)
    bounds = [n * k // workers for k in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    children = {}  # pid -> (its range, the read end of its pipe)
    try:
        for indices in ranges[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _run_child(fn, indices, write_end)
            os.close(write_end)
            children[pid] = (indices, open(read_end, "rb"))
        yield from fn(ranges[0])
        for pid, (indices, pipe) in list(children.items()):
            with pipe:
                while True:
                    try:
                        kind, value = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the child ended early
                        kind = "lost"
                    if kind != "item":
                        break
                    yield value
            del children[pid]
            status = os.waitpid(pid, 0)[1]
            if kind == "error":
                raise value
            if kind == "lost":
                raise ChildProcessError(f"the worker for stays {indices.start} to "
                                        f"{indices.stop - 1} ended with wait status "
                                        f"{status} before sending all its items")
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, indices: range, write_end: int):
    """In a forked child: collect the items of `fn(indices)`, then send each down
    `write_end` as a pickled `("item", item)` and end with `("end", None)`; send
    `("error", exception)` instead if `fn` raises. Then end the process without
    returning."""
    status = 1
    try:
        with open(write_end, "wb") as pipe:
            try:
                # all items first: the parent reads this pipe only at the range's turn
                items = list(fn(indices))
            except Exception as e:
                messages = [("error", e)]
            else:
                messages = chain((("item", item) for item in items), [("end", None)])
            for message in messages:
                pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate_cohort(config: CohortConfig) -> list[IcuStay]:
    """Deterministically generate `config.n_stays` synthetic ICU stays, their ranges
    on as many processes as `_fork_join` gives them."""
    config.validate()
    plan = _patient_plan(config)
    with closing(_fork_join(lambda indices: _generate_range(config, plan, indices),
                            config.n_stays)) as stays:
        return list(stays)


def _patient_plan(config: CohortConfig) -> list[tuple[str, str, bool]]:
    """(stay id, patient id, repeat) of each stay. A stay repeats the previous
    stay's patient with chance `_REPEAT_STAY_P`, drawn from the one assignment
    stream, unless that stay was itself a repeat (at most two stays per patient);
    the first stay draws nothing."""
    assign_rng = np.random.default_rng([config.seed, 0xA55])
    plan, patients, repeat = [], 0, True  # as if before a repeat: stay 0 draws nothing
    for i in range(config.n_stays):
        repeat = not repeat and assign_rng.random() < _REPEAT_STAY_P
        patients += not repeat
        plan.append((f"s{i:05d}-{1 + repeat}", f"p{patients - 1:05d}", repeat))
    return plan


def _stay_head(config: CohortConfig, i: int):
    """Stay `i`'s own stream and its first draws: (stream, is_case, subtype,
    structured profile, note archetype)."""
    rng = np.random.default_rng([config.seed, 1, i])
    is_case = rng.random() < config.case_fraction
    subtype = 1 + _pick(rng, _SUBTYPE_CDF) if is_case else None
    return rng, is_case, subtype, *_draw_flavor(rng, is_case, subtype)


def _generate_range(config: CohortConfig, plan, indices: range) -> list[IcuStay]:
    """The stays of `indices`, as a walk over all stays generates them. A first
    stay draws its patient's demographics after its head; a repeat stay takes them
    from the previous stay, redrawn from that stay's stream when the range opens
    with the repeat."""
    stays, demo = [], None
    for i in indices:
        rng, is_case, subtype, profile, note_arche = _stay_head(config, i)
        stay_id, patient_id, repeat = plan[i]
        if not repeat:
            demo = _draw_demographics(rng, profile)
        elif demo is None:
            first_rng, *_, first_profile, _ = _stay_head(config, i - 1)
            demo = _draw_demographics(first_rng, first_profile)
        stays.append(_generate_stay(rng, stay_id, patient_id, demo,
                                    is_case, subtype, profile, note_arche))
    return stays


def _draw_flavor(rng, is_case, subtype):
    """(structured profile, note archetype): cases agree in both channels;
    controls may be mismatched, profile-only mimics, or healthy."""
    if is_case:
        return subtype, subtype
    u = rng.random()
    if u < _MISMATCH_CONTROL_P:
        profile = 1 + _pick(rng, _SUBTYPE_CDF)
        others = [a for a in (1, 2, 3) if a != profile]
        return profile, others[int(rng.integers(2))]
    if u < _MISMATCH_CONTROL_P + _PROFILE_MIMIC_CONTROL_P:
        return 1 + _pick(rng, _SUBTYPE_CDF), None
    return 0, None


def _draw_demographics(rng, arche: int) -> dict:
    mean, sd = _AGE[arche]
    age = min(max(rng.normal(mean, sd), 21.0), 92.0)
    sex = "male" if rng.random() < _MALE_P[arche] else "female"
    ethnicity = ETHNICITIES[_pick(rng, _ETHNICITY_CDF[arche])]
    weight = min(max(rng.normal(82.0, 14.0), 45.0), 160.0)
    meds = {n: int(rng.random() < p) for n, p in zip(MED_FLAGS, _MED_P[arche])}
    como = {n: int(rng.random() < p) for n, p in zip(COMORBIDITY_FLAGS, _COMORBIDITY_P[arche])}
    return {"age": age, "sex": sex, "ethnicity": ethnicity, "weight_kg": weight,
            "med_flags": dict(sorted(meds.items())),
            "comorbidity_flags": dict(sorted(como.items()))}


def _level(rng, mean: float, b_sd: float, lo: float, hi: float) -> float:
    """A stay's level of a variable: normal around `mean`, kept within 2.5 sd of it
    and within [lo, hi]."""
    level = rng.normal(mean, b_sd)
    level = min(max(level, mean - 2.5 * b_sd), mean + 2.5 * b_sd)
    return min(max(level, lo), hi)


def _generate_stay(rng, stay_id, patient_id, demo, is_case, subtype,
                   profile, note_arche) -> IcuStay:
    chart: dict[str, EventSeries] = {}
    labs: dict[str, EventSeries] = {}

    # non-renal variables: one observation per 2 h bin over the 48 h horizon,
    # dropped independently to exercise imputation
    for var, (a1, a2, a3, ctrl, b_sd, o_sd, lo, hi) in _VAR_ROWS.items():
        level = _level(rng, (ctrl, a1, a2, a3)[profile], b_sd, lo, hi)
        pts = []
        for j in range(int(OBS_HORIZON_HOURS / 2)):
            if rng.random() < _MISSING_P:
                continue
            t = 2.0 * j + _uniform(rng, 0.1, 1.9)
            pts.append((t, min(max(level + rng.normal(0.0, o_sd), lo), hi)))
        (chart if var in CHART_VARIABLES else labs)[var] = _series(var, pts)

    labs["creatinine"] = _renal_series(rng, "creatinine", profile,
                                       _scr_ramp if is_case else None)
    labs["urine_rate"] = _renal_series(rng, "urine_rate", profile,
                                       _oliguria_dip if subtype == 3 else None)

    notes = _generate_notes(rng, note_arche)

    return IcuStay(stay_id=stay_id, patient_id=patient_id, planted_subtype=subtype,
                   chart_series=chart, lab_series=dict(sorted(labs.items())), notes=notes,
                   **demo)


def _series(var: str, pts) -> EventSeries:
    """A generated series, its points read-only like those of a parsed one."""
    series = EventSeries(var, pts)
    series.points.flags.writeable = False
    return series


def _renal_series(rng, var: str, profile: int, course) -> EventSeries:
    """A renal series over the whole stay: the stay's baseline, shaped by a planted
    `course` if one is given, plus clamped noise. `course(rng, profile)` draws the
    course and returns its value at (baseline, hour). Points in the observation
    window drop out at random."""
    levels, (lo, hi), o_sd, clamp, floor, step = _RENAL_ROWS[var]
    base = _level(rng, *levels[profile], lo, hi)
    value = course(rng, profile) if course else lambda base, t: base
    pts = []
    t = 1.0
    while t < STAY_HORIZON_HOURS:
        drop = t <= OBS_HORIZON_HOURS and rng.random() < _MISSING_P
        noise = min(max(rng.normal(0.0, o_sd), -clamp), clamp)
        if not drop:
            pts.append((t, max(value(base, t) + noise, floor)))
        t += step
    return _series(var, pts)


def _scr_ramp(rng, arche):
    """A case's creatinine course: from an onset after both observation windows, a
    linear ramp to its archetype's fold of the baseline."""
    ratio = _uniform(rng, *_SCR_RAMP_RATIO[arche])
    onset = _uniform(rng, *_ONSET_RANGE)
    ramp = _uniform(rng, *_RAMP_DURATION)
    return lambda base, t: \
        base * (1.0 + (ratio - 1.0) * min(1.0, (t - onset) / ramp)) if t > onset else base


def _oliguria_dip(rng, _arche):
    """An archetype-3 case's urine course: a sustained dip to a fixed rate."""
    start = _uniform(rng, 55.0, 135.0)
    end = start + _uniform(rng, *_DIP_DURATION)
    level = _uniform(rng, *_DIP_LEVEL)
    return lambda base, t: level if start <= t < end else base


def _generate_notes(rng, note_arche) -> list[ClinicalNote]:
    """Notes expressing one archetype's markers, or unremarkable notes (None)."""
    n_notes = int(rng.integers(2, 5))
    offsets = np.sort(rng.uniform(0.5, 23.5, size=n_notes))
    pool = _ARCHETYPE_TOKENS[note_arche if note_arche else int(rng.integers(1, 4))]
    notes = []
    for off in offsets:
        if note_arche:
            n_markers = _CASE_MARKERS_PER_NOTE[note_arche]
        else:
            n_markers = _CONTROL_MARKERS_PER_NOTE[0][_pick(rng, _CONTROL_MARKERS_CDF)]
        n_tok = int(rng.integers(max(8, n_markers + 4), 17))
        toks = [pool[int(rng.integers(len(pool)))] for _ in range(n_markers)]
        for _ in range(n_tok - n_markers):
            u = rng.random()
            if u < _RISK_TOKEN_P:
                toks.append(_RISK_TOKENS[int(rng.integers(len(_RISK_TOKENS)))])
            elif u > 0.99:
                toks.append(_EXTRA_FILLERS[int(rng.integers(len(_EXTRA_FILLERS)))])
            else:
                toks.append(_FILLER_TOKENS[_pick(rng, _FILLER_CDF)])
        toks = [toks[i] for i in rng.permutation(len(toks))]
        notes.append(ClinicalNote(float(off), toks))
    return notes


# ---------------------------------------------------------------------------
# serialization (JSON Lines, versioned header record)
# ---------------------------------------------------------------------------

def _stay_to_record(stay: IcuStay) -> dict:
    return {
        "stay_id": stay.stay_id,
        "patient_id": stay.patient_id,
        "age": stay.age,
        "sex": stay.sex,
        "ethnicity": stay.ethnicity,
        "weight_kg": stay.weight_kg,
        "med_flags": stay.med_flags,
        "comorbidity_flags": stay.comorbidity_flags,
        "chart": {v: s.points.tolist() for v, s in sorted(stay.chart_series.items())},
        "labs": {v: s.points.tolist() for v, s in sorted(stay.lab_series.items())},
        "notes": [{"offset_hours": n.offset_hours, "tokens": n.tokens} for n in stay.notes],
        "planted_subtype": stay.planted_subtype,
    }


def _parse_series(groups: tuple[dict, ...]) -> list[dict[str, EventSeries]]:
    """Each group's {variable: [[offset, value], ...]} as EventSeries whose points
    are row slices of one float64 buffer, filled in a single pass."""
    lists = [pts for group in groups for pts in group.values()]
    if set(map(len, chain.from_iterable(lists))) - {2}:
        raise ValueError("every point must be an [offset, value] pair")
    bounds = list(accumulate(map(len, lists), initial=0))
    buf = np.fromiter(chain.from_iterable(chain.from_iterable(lists)), np.float64,
                      2 * bounds[-1]).reshape(-1, 2)
    buf.flags.writeable = False  # the parse is shared by every reader of the file
    views = (buf[a:b] for a, b in zip(bounds, bounds[1:]))
    return [{v: EventSeries(v, next(views)) for v in group} for group in groups]


def _record_to_stay(rec: dict) -> IcuStay:
    chart, labs = _parse_series((rec["chart"], rec["labs"]))
    return IcuStay(
        stay_id=rec["stay_id"],
        patient_id=rec["patient_id"],
        age=rec["age"],
        sex=rec["sex"],
        ethnicity=rec["ethnicity"],
        weight_kg=rec["weight_kg"],
        med_flags={k: int(v) for k, v in rec["med_flags"].items()},
        comorbidity_flags={k: int(v) for k, v in rec["comorbidity_flags"].items()},
        chart_series=chart,
        lab_series=labs,
        notes=[ClinicalNote(float(n["offset_hours"]), list(n["tokens"])) for n in rec["notes"]],
        planted_subtype=rec["planted_subtype"],
    )


def write_cohort(stays: list[IcuStay], path) -> None:
    """Write `stays` as a cohort file: a header record, then one record per stay, each
    a line of sort-keyed JSON. `_fork_join` ranges serialise the records, and this
    process writes them in order, hashing the bytes as it writes. When every stay
    passes `IcuStay.validate` and no stay id repeats, the stays become the kept
    parse of `read_cohort` under that hash."""
    global _last_parse
    _last_parse = None
    header = json.dumps({"format": COHORT_FORMAT, "version": COHORT_VERSION,
                         "n_stays": len(stays)}, sort_keys=True) + "\n"
    digest = hashlib.sha256(header.encode("utf-8"))
    valid = len({s.stay_id for s in stays}) == len(stays)

    def hashed_lines(records):
        nonlocal valid
        yield header
        for line, stay_valid in records:
            valid = valid and stay_valid
            digest.update(line.encode("utf-8"))
            yield line

    with closing(_fork_join(lambda indices: _records(stays, indices), len(stays))) as records:
        write_text(path, hashed_lines(records))
    if valid:
        _last_parse = (digest.hexdigest(), list(stays))


def _records(stays: list[IcuStay], indices: range):
    """Yield (file line, whether it passes `IcuStay.validate`) of each stay at
    `indices`."""
    for i in indices:
        try:
            stays[i].validate()
            valid = True
        except (TypeError, ValueError, AttributeError, DataError):
            valid = False
        yield json.dumps(_stay_to_record(stays[i]), sort_keys=True) + "\n", valid


def write_text(path, chunks) -> None:
    """Write the strings of iterable `chunks`, one after another, to the file at `path`
    as UTF-8 text: the one place the package writes a text file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def write_rows(path, header, rows) -> None:
    """A CSV artifact: the `header` fields, then one line per row of `rows`, each
    row's fields joined by commas."""
    write_text(path, (",".join(fields) + "\n" for fields in chain([header], rows)))


def file_sha256(path) -> str:
    """Hex SHA-256 of the bytes of the file at `path`."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_last_parse: tuple[str, list[IcuStay]] | None = None  # (content SHA-256, stays)


def read_cohort(path, sha256: str | None = None) -> list[IcuStay]:
    """The stays of a cohort file, parsed once per content: see the module docstring.
    `sha256` is the `file_sha256` of `path` if the caller has taken it; without it
    the file is hashed here."""
    global _last_parse
    digest, kept = sha256 or file_sha256(path), _last_parse
    if kept is None or kept[0] != digest:
        _last_parse = kept = None  # free the old parse first; a failed parse keeps nothing
        kept = _last_parse = (digest, _parse_cohort(Path(path)))
    return list(kept[1])


def _parse_cohort(path: Path) -> list[IcuStay]:
    """Parse and validate a cohort file. A malformed header (line 1) or stay record,
    or a repeated stay_id, raises `ParseError` naming its line; a stay count other
    than the header's `n_stays` raises naming both counts."""
    stays, first_line = [], {}
    n_stays = None
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line and lineno > 1:
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:  # invalid JSON or not UTF-8
                raise ParseError(f"{path}: line {lineno}: invalid JSON "
                                 f"({getattr(e, 'msg', e)})") from e
            if lineno == 1:
                if not isinstance(rec, dict) or rec.get("format") != COHORT_FORMAT:
                    raise ParseError(f"{path}: line 1: missing cohort header")
                n_stays = rec.get("n_stays")
                if rec.get("version") != COHORT_VERSION or type(n_stays) is not int:
                    raise ParseError(f"{path}: line 1: the header needs version "
                                     f"{COHORT_VERSION} and an integer n_stays, got {rec}")
                continue
            try:
                stay = _record_to_stay(rec)
                stay.validate()
                if stay.stay_id in first_line:
                    raise DataError(f"duplicate stay_id {stay.stay_id!r}, "
                                    f"first on line {first_line[stay.stay_id]}")
            except (KeyError, TypeError, ValueError, AttributeError, DataError) as e:
                raise ParseError(f"{path}: line {lineno}: malformed stay record ({e})") from e
            first_line[stay.stay_id] = lineno
            stays.append(stay)
    if n_stays is None:
        raise ParseError(f"{path}: line 1: missing cohort header")
    if len(stays) != n_stays:
        raise ParseError(f"{path}: header says {n_stays} stays, file holds {len(stays)}")
    return stays
