"""KDIGO acute kidney injury labelling, eGFR, and cohort exclusion rules.

`detect_aki` reads each window once: a case gets its onset, triggering rule
and stage from the same pass over the measurements, and a control has no
stage. Clause conventions (shared with the brute-force test oracle):
- Creatinine delta: any ordered measurement pair at most 48 h apart with a rise
  of at least 0.3 mg/dL fires at the later measurement's time; the earlier
  measurement may precede the evaluation window.
- Creatinine ratio: the baseline is the stay's first creatinine measurement
  (offsets start at admission, so the cohort holds no earlier value). A
  measurement at 1.5x baseline or more fires at its own time, provided it lies
  within 7 days (168 h) of the baseline measurement.
- Urine: the rate is read piecewise-constant (each observation's value persists
  until the next observation, with no extrapolation past the last one). Low
  spans are clipped to the evaluation window; a span of at least 6 h below
  0.5 mL/kg/h fires 6 h after the clipped span starts.
- A case's stage is the maximum over all firing clauses: ratio >= 2.0 -> 2,
  ratio >= 3.0 -> 3, a rise (>= 0.3 within 48 h) reaching 4.0 mg/dL -> 3,
  low-urine spans >= 12 h at 0.5 -> 2, >= 24 h at 0.3 -> 3, anuria
  (< 0.01 mL/kg/h) >= 12 h -> 3. The cohort records no renal replacement
  therapy, so KDIGO's therapy clause (stage 3) is not applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import EventSeries, IcuStay
from .errors import ArgumentError, InsufficientDataError

RULE_SCR_DELTA = "scr_delta_48h"
RULE_SCR_RATIO = "scr_ratio_7d"
RULE_URINE = "urine_6h"

_RULE_PRIORITY = {RULE_SCR_DELTA: 0, RULE_SCR_RATIO: 1, RULE_URINE: 2}

DELTA_THRESHOLD = 0.3
DELTA_WINDOW_HOURS = 48.0
RATIO_THRESHOLD = 1.5
BASELINE_LOOKBACK_HOURS = 168.0
OLIGURIA_RATE = 0.5
OLIGURIA_HOURS = 6.0
ANURIA_RATE = 0.01
STAGE3_SCR = 4.0
#: (rate, hours, stage): a low-urine span at least this long sets the stage
URINE_STAGE_BANDS = ((OLIGURIA_RATE, 12.0, 2), (0.3, 24.0, 3), (ANURIA_RATE, 12.0, 3))
PREDICTION_WINDOW_HOURS = 7 * 24.0


@dataclass
class AkiLabel:
    is_case: bool
    onset_offset_hours: float | None = None
    stage: int | None = None
    triggering_rule: str | None = None


@dataclass
class BaselineScr:
    value: float
    time: float  # offset of the measurement it was taken from

    def __post_init__(self):
        if self.value <= 0:
            raise ArgumentError(f"baseline creatinine must be positive, got {self.value}")


def egfr_mdrd(scr: float, age: float, sex: str, ethnicity: str) -> float:
    """MDRD 4-variable estimated GFR (175-coefficient re-expressed form)."""
    if scr <= 0 or age <= 0:
        raise ArgumentError(f"egfr_mdrd requires positive scr and age, got {scr}, {age}")
    value = 175.0 * scr ** -1.154 * age ** -0.203
    if sex == "female":
        value *= 0.742
    if ethnicity == "black":
        value *= 1.212
    return value


def compute_baseline(scr_series: EventSeries) -> BaselineScr:
    """Baseline = the first creatinine measurement."""
    if not len(scr_series.points):
        raise InsufficientDataError("no creatinine measurements to derive a baseline from")
    t0, v0 = scr_series.points[0].tolist()
    return BaselineScr(v0, t0)


def _low_spans(urine: list[tuple[float, float]], threshold: float, lo: float, hi: float):
    """Maximal low-rate spans under piecewise-constant interpolation, clipped to [lo, hi]."""
    spans = []
    start = None
    last_t = None
    for t, v in urine:
        if v < threshold:
            if start is None:
                start = t
        elif start is not None:
            spans.append((start, t))
            start = None
        last_t = t
    if start is not None and last_t is not None:
        spans.append((start, last_t))
    clipped = []
    for a, b in spans:
        a2, b2 = max(a, lo), min(b, hi)
        if b2 > a2:
            clipped.append((a2, b2))
    return clipped


def _sorted_points(series: EventSeries | None) -> list[list[float]]:
    """[offset, value] pairs as Python floats, ordered by offset (then value)."""
    return sorted(series.points.tolist()) if series is not None else []


def detect_aki(scr_series: EventSeries, urine_rate_series: EventSeries,
               baseline: BaselineScr | None, window: tuple[float, float]) -> AkiLabel:
    """Case iff any KDIGO clause fires inside `window`; onset is the earliest
    firing and the stage the maximum over every firing clause."""
    scr = _sorted_points(scr_series)
    urine = _sorted_points(urine_rate_series)
    if not scr and not urine:
        raise InsufficientDataError("both creatinine and urine series are empty")
    lo, hi = window

    firings: list[tuple[float, int, str]] = []
    stage = 1
    values = [v for _, v in scr]
    start = 0  # the earliest measurement within 48 h of the current one
    for j, (tj, vj) in enumerate(scr):
        if not lo <= tj <= hi:
            continue
        while tj - scr[start][0] > DELTA_WINDOW_HOURS:
            start += 1
        if start < j and vj - min(values[start:j]) >= DELTA_THRESHOLD:
            firings.append((tj, _RULE_PRIORITY[RULE_SCR_DELTA], RULE_SCR_DELTA))
            if vj >= STAGE3_SCR:
                stage = 3
        if (baseline is not None and vj >= RATIO_THRESHOLD * baseline.value
                and tj - baseline.time <= BASELINE_LOOKBACK_HOURS):
            firings.append((tj, _RULE_PRIORITY[RULE_SCR_RATIO], RULE_SCR_RATIO))
            if vj >= 3.0 * baseline.value:
                stage = 3
            elif vj >= 2.0 * baseline.value:
                stage = max(stage, 2)
    oliguria = _low_spans(urine, OLIGURIA_RATE, lo, hi)
    for a, b in oliguria:
        if b - a >= OLIGURIA_HOURS:
            firings.append((a + OLIGURIA_HOURS, _RULE_PRIORITY[RULE_URINE], RULE_URINE))

    if not firings:
        return AkiLabel(is_case=False)
    onset, _, rule = min(firings)
    for rate, hours, band in URINE_STAGE_BANDS:
        spans = oliguria if rate == OLIGURIA_RATE else _low_spans(urine, rate, lo, hi)
        if any(b - a >= hours for a, b in spans):
            stage = max(stage, band)
    return AkiLabel(is_case=True, onset_offset_hours=onset, stage=stage,
                    triggering_rule=rule)


EXCLUDE_AKI_IN_OBSERVATION = "aki_in_observation_window"
EXCLUDE_NO_RENAL_DATA = "no_renal_data"
EXCLUDE_MISSING_PREDICTION_DATA = "missing_renal_data_in_prediction_window"


def apply_exclusions(stays: list[IcuStay], t1_hours: float,
                     ) -> tuple[list[tuple[IcuStay, AkiLabel]], list[tuple[str, str]]]:
    """Drop stays with observation-window AKI or without renal data in the
    prediction window; label the rest over the 7-day prediction window only."""
    horizon = t1_hours + PREDICTION_WINDOW_HOURS
    kept: list[tuple[IcuStay, AkiLabel]] = []
    excluded: list[tuple[str, str]] = []
    for stay in stays:
        scr = stay.lab_series["creatinine"]
        urine = stay.lab_series["urine_rate"]
        try:
            baseline = compute_baseline(scr)
        except InsufficientDataError:
            baseline = None
        try:
            obs = detect_aki(scr, urine, baseline, (0.0, t1_hours))
        except InsufficientDataError:
            excluded.append((stay.stay_id, EXCLUDE_NO_RENAL_DATA))
            continue
        if obs.is_case:
            excluded.append((stay.stay_id, EXCLUDE_AKI_IN_OBSERVATION))
            continue
        has_pred_data = any(np.any((s.points[:, 0] > t1_hours) & (s.points[:, 0] <= horizon))
                            for s in (scr, urine))
        if not has_pred_data:
            excluded.append((stay.stay_id, EXCLUDE_MISSING_PREDICTION_DATA))
            continue
        kept.append((stay, detect_aki(scr, urine, baseline, (t1_hours, horizon))))
    return kept, excluded
