import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akisub.cohort import EventSeries
from akisub.errors import ArgumentError, InsufficientDataError
from akisub import kdigo
from akisub.kdigo import (AkiLabel, BaselineScr, apply_exclusions, compute_baseline,
                          detect_aki, egfr_mdrd)
from oracles import brute_force_kdigo, exclusions_reference
from trajgen import random_kdigo_instance


def _series(var, pts):
    return EventSeries(var, [(float(t), float(v)) for t, v in pts])


def _urine_flat(rate, start=1.0, end=191.0, step=2.0):
    return _series("urine_rate", [(t, rate) for t in np.arange(start, end, step)])


BASE = BaselineScr(1.0, 0.0)


class TestEgfr:
    def test_white_male_reference(self):
        # 175 * 1.0^-1.154 * 60^-0.203 = 76.2...
        assert egfr_mdrd(1.0, 60, "male", "white") == pytest.approx(76.22, abs=0.05)

    def test_female_multiplier(self):
        male = egfr_mdrd(1.0, 60, "male", "white")
        assert egfr_mdrd(1.0, 60, "female", "white") == pytest.approx(0.742 * male)

    def test_black_multiplier(self):
        male = egfr_mdrd(1.3, 47, "male", "white")
        assert egfr_mdrd(1.3, 47, "male", "black") == pytest.approx(1.212 * male)

    @given(st.floats(min_value=0.3, max_value=8.0), st.floats(min_value=18, max_value=95))
    def test_monotone_decreasing_in_scr(self, scr, age):
        assert egfr_mdrd(2 * scr, age, "male", "white") < egfr_mdrd(scr, age, "male", "white")

    def test_rejects_nonpositive(self):
        with pytest.raises(ArgumentError):
            egfr_mdrd(0.0, 60, "male", "white")
        with pytest.raises(ArgumentError):
            egfr_mdrd(1.0, -1, "male", "white")


class TestDetect:
    def test_delta_rule_fires_at_later_measurement(self):
        scr = _series("creatinine", [(2.0, 1.0), (40.0, 1.35)])
        label = detect_aki(scr, _urine_flat(0.9), BASE, (0.0, 168.0))
        assert label.is_case
        assert label.onset_offset_hours == pytest.approx(40.0)
        assert label.triggering_rule == kdigo.RULE_SCR_DELTA

    def test_oliguria_six_hours(self):
        urine = _series("urine_rate", [(t, 0.45) for t in range(10, 18)])
        scr = _series("creatinine", [(1.0, 1.0), (100.0, 1.05)])
        label = detect_aki(scr, urine, BASE, (0.0, 168.0))
        assert label.is_case
        assert label.onset_offset_hours == pytest.approx(16.0)
        assert label.triggering_rule == kdigo.RULE_URINE

    def test_control_when_no_clause_fires(self):
        scr = _series("creatinine", [(0.0, 1.0), (48.0, 1.25)])
        label = detect_aki(scr, _urine_flat(0.8), BASE, (0.0, 168.0))
        assert label == AkiLabel(is_case=False)

    def test_ratio_rule(self):
        scr = _series("creatinine", [(1.0, 1.0), (30.0, 1.2), (90.0, 1.55)])
        label = detect_aki(scr, _urine_flat(0.9), BASE, (60.0, 168.0))
        assert label.triggering_rule == kdigo.RULE_SCR_RATIO
        assert label.onset_offset_hours == pytest.approx(90.0)

    def test_ratio_requires_seven_day_lookback(self):
        scr = _series("creatinine", [(1.0, 1.0), (180.0, 1.6)])
        label = detect_aki(scr, _urine_flat(0.9), BaselineScr(1.0, 1.0),
                           (100.0, 250.0))
        assert not label.is_case  # 180 - 1 > 168, and the jump exceeds 48 h

    def test_empty_series_error(self):
        with pytest.raises(InsufficientDataError):
            detect_aki(_series("creatinine", []), _series("urine_rate", []), BASE, (0, 24))

    def test_translation_covariance(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            scr, urine, bval, bend, window = random_kdigo_instance(rng)
            base = BaselineScr(bval, bend)
            a = detect_aki(_series("creatinine", scr), _series("urine_rate", urine),
                           base, window)
            shift = 5.25
            scr2 = [(t + shift, v) for t, v in scr]
            urine2 = [(t + shift, v) for t, v in urine]
            base2 = BaselineScr(bval, bend + shift)
            b = detect_aki(_series("creatinine", scr2), _series("urine_rate", urine2),
                           base2, (window[0] + shift, window[1] + shift))
            assert a.is_case == b.is_case
            assert a.triggering_rule == b.triggering_rule
            if a.is_case:
                assert b.onset_offset_hours == pytest.approx(a.onset_offset_hours + shift)


class TestStage:
    def test_ratio_bands(self):
        urine = _urine_flat(0.9)
        scr1 = _series("creatinine", [(1.0, 1.0), (50.0, 1.6)])
        assert detect_aki(scr1, urine, BASE, (0.0, 168.0)).stage == 1
        scr2 = _series("creatinine", [(1.0, 1.0), (50.0, 2.5)])
        assert detect_aki(scr2, urine, BASE, (0.0, 168.0)).stage == 2
        scr3 = _series("creatinine", [(1.0, 1.0), (50.0, 3.4)])
        assert detect_aki(scr3, urine, BASE, (0.0, 168.0)).stage == 3

    def test_absolute_rise_to_four(self):
        scr = _series("creatinine", [(1.0, 1.2), (40.0, 4.3)])
        assert detect_aki(scr, _urine_flat(0.9), BaselineScr(1.2, 1.0),
                          (0.0, 168.0)).stage == 3

    def test_urine_bands(self):
        scr = _series("creatinine", [(1.0, 1.0), (100.0, 1.02)])
        low13 = _series("urine_rate", [(t, 0.4) for t in np.arange(20, 34, 1.0)])
        assert detect_aki(scr, low13, BASE, (0.0, 168.0)).stage == 2
        low25 = _series("urine_rate", [(t, 0.25) for t in np.arange(20, 46, 1.0)])
        assert detect_aki(scr, low25, BASE, (0.0, 168.0)).stage == 3
        anuric = _series("urine_rate", [(t, 0.005) for t in np.arange(20, 33, 1.0)])
        assert detect_aki(scr, anuric, BASE, (0.0, 168.0)).stage == 3

    def test_control_has_no_stage(self):
        scr = _series("creatinine", [(1.0, 1.0), (40.0, 1.1)])
        assert detect_aki(scr, _urine_flat(0.9), BASE, (0.0, 168.0)).stage is None

    def test_monotone_in_scr_peak(self):
        urine = _urine_flat(0.9)
        rng = np.random.default_rng(9)
        for _ in range(50):
            scr, _, bval, bend, window = random_kdigo_instance(rng)
            base = BaselineScr(bval, bend)
            label = detect_aki(_series("creatinine", scr), urine, base, window)
            if not label.is_case:
                continue
            s0 = detect_aki(_series("creatinine", scr), urine, base, window).stage
            # augment with a strictly worse peak just inside the window
            t_new = window[1] - 0.5
            worse = sorted(scr + [(t_new, max(v for _, v in scr) + 5.0)])
            s1 = detect_aki(_series("creatinine", worse), urine, base, window).stage
            assert s1 >= s0


class TestOracleEquivalence:
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        scr, urine, bval, bend, window = random_kdigo_instance(rng)
        base = BaselineScr(bval, bend)
        scr_s, ur_s = _series("creatinine", scr), _series("urine_rate", urine)
        o_case, o_onset, o_rule, o_stage = brute_force_kdigo(
            scr, urine, bval, bend, window)
        label = detect_aki(scr_s, ur_s, base, window)
        assert label.is_case == o_case
        if o_case:
            assert label.onset_offset_hours == pytest.approx(o_onset, abs=1e-12)
            assert label.triggering_rule == o_rule
            assert label.stage == o_stage


class TestBaseline:
    def test_fallback_to_earliest_in_window(self):
        scr = _series("creatinine", [(5.0, 1.3), (11.0, 1.0)])
        base = compute_baseline(scr)
        assert base.value == pytest.approx(1.3)
        assert base.time == 5.0

    def test_empty_series(self):
        with pytest.raises(InsufficientDataError):
            compute_baseline(_series("creatinine", []))


class TestExclusions:
    def _stay(self, stay_id, scr_pts, urine_pts):
        from akisub.cohort import generate_cohort, CohortConfig
        stay = generate_cohort(CohortConfig(n_stays=1, seed=123))[0]
        stay.stay_id = stay_id
        stay.lab_series["creatinine"] = _series("creatinine", scr_pts)
        stay.lab_series["urine_rate"] = _series("urine_rate", urine_pts)
        return stay

    def test_observation_window_aki_excluded(self):
        stay = self._stay("x1", [(2.0, 1.0), (10.0, 1.5)],
                          [(t, 0.9) for t in np.arange(1, 191, 2.0)])
        kept, excluded = apply_exclusions([stay], 24)
        assert kept == []
        assert excluded == [("x1", kdigo.EXCLUDE_AKI_IN_OBSERVATION)]

    def test_missing_prediction_data_excluded(self):
        stay = self._stay("x2", [(2.0, 1.0), (10.0, 1.05)], [(1.0, 0.9), (20.0, 0.95)])
        kept, excluded = apply_exclusions([stay], 24)
        assert excluded == [("x2", kdigo.EXCLUDE_MISSING_PREDICTION_DATA)]

    def test_control_with_full_data_kept(self):
        stay = self._stay("x3", [(t, 1.0) for t in np.arange(2, 190, 6.0)],
                          [(t, 0.9) for t in np.arange(1, 191, 2.0)])
        kept, excluded = apply_exclusions([stay], 24)
        assert excluded == []
        (kept_stay, label), = kept
        assert kept_stay.stay_id == "x3" and not label.is_case

    def test_case_in_prediction_window_labeled_with_stage(self):
        scr = [(t, 1.0) for t in np.arange(2, 60, 6.0)] + [(80.0, 2.6), (86.0, 2.6)]
        stay = self._stay("x4", scr, [(t, 0.9) for t in np.arange(1, 191, 2.0)])
        kept, _ = apply_exclusions([stay], 24)
        (_, label), = kept
        assert label.is_case and label.stage == 2
        assert label.onset_offset_hours == pytest.approx(80.0)

    @pytest.mark.parametrize("t1", [24, 48])
    def test_labels_match_tuple_reference(self, t1):
        from akisub.cohort import generate_cohort, CohortConfig
        stays = generate_cohort(CohortConfig(n_stays=150, case_fraction=0.4, seed=8))
        stays.append(self._stay("early", [(-30.0, 0.9), (2.0, 1.0), (10.0, 1.05)],
                                [(1.0, 0.9), (20.0, 0.95)]))
        stays.append(self._stay("later", [(30.0, 1.0), (80.0, 1.7)],
                                [(t, 0.9) for t in np.arange(1, 191, 2.0)]))
        stays.append(self._stay("no_scr", [], [(t, 0.4) for t in np.arange(30, 60, 2.0)]))
        stays.append(self._stay("none", [], []))
        kept, excluded = apply_exclusions(stays, t1)
        ref_kept, ref_excluded = exclusions_reference(stays, t1)
        assert excluded == ref_excluded
        assert [(s.stay_id, lab.is_case, lab.onset_offset_hours, lab.triggering_rule,
                 lab.stage) for s, lab in kept] == ref_kept
        assert any(case for _, case, *_ in ref_kept)
