import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akisub.cohort import (CHART_VARIABLES, LAB_VARIABLES, CohortConfig, EventSeries,
                           IcuStay, generate_cohort, note_token_universe, read_cohort,
                           write_cohort)
from akisub.errors import ConfigError, DataError, ParseError
from akisub.kdigo import apply_exclusions
from oracles import planted_stage


def test_generation_is_deterministic():
    cfg = CohortConfig(n_stays=10, seed=7)
    a = generate_cohort(cfg)
    b = generate_cohort(cfg)
    assert len(a) == 10
    assert a == b


def test_different_seed_differs():
    a = generate_cohort(CohortConfig(n_stays=5, seed=1))
    b = generate_cohort(CohortConfig(n_stays=5, seed=2))
    assert a != b


def test_case_fraction_binomial_interval():
    stays = generate_cohort(CohortConfig(n_stays=1000, case_fraction=0.2, seed=11))
    n_cases = sum(1 for s in stays if s.planted_subtype is not None)
    # binomial(1000, 0.2): 99% interval is 200 +/- 2.576*sqrt(160)
    assert 167 <= n_cases <= 233


def test_subtype_two_creatinine_mean_matches_target():
    cfg = CohortConfig(n_stays=800, case_fraction=0.65, subtype_mixture=(0.0, 1.0, 0.0),
                       seed=5)
    stays = generate_cohort(cfg)
    means = []
    for s in stays:
        if s.planted_subtype != 2:
            continue
        obs = [v for t, v in s.lab_series["creatinine"].points if t <= 24.0]
        if obs:
            means.append(np.mean(obs))
    assert len(means) >= 400
    assert abs(np.mean(means) - 1.96) < 0.05


def test_all_stays_pass_invariants():
    stays = generate_cohort(CohortConfig(n_stays=60, seed=3))
    for s in stays:
        s.validate()
        assert set(s.chart_series) == set(CHART_VARIABLES)
        assert set(s.lab_series) == set(LAB_VARIABLES)
        assert all(n.tokens for n in s.notes)


def test_some_patients_have_two_stays():
    stays = generate_cohort(CohortConfig(n_stays=300, seed=19))
    by_patient = {}
    for s in stays:
        by_patient.setdefault(s.patient_id, []).append(s)
    repeats = [v for v in by_patient.values() if len(v) > 1]
    assert repeats
    for group in repeats:
        assert len({(g.age, g.sex, g.ethnicity) for g in group}) == 1


def test_planted_labels_agree_with_kdigo_engine():
    stays = generate_cohort(CohortConfig(n_stays=400, case_fraction=0.35, seed=23))
    kept, excluded = apply_exclusions(stays, 24)
    assert not excluded
    agree = 0
    n_cases = 0
    for stay, label in kept:
        if stay.planted_subtype is None:
            assert not label.is_case  # every planted control stays a control
        else:
            assert label.is_case      # every planted case is detected
            n_cases += 1
            agree += label.stage == planted_stage(stay.planted_subtype)
    assert n_cases > 80
    assert agree / n_cases >= 0.95


def test_degenerate_mixture_rejected():
    with pytest.raises(ConfigError):
        generate_cohort(CohortConfig(n_stays=5, subtype_mixture=(0.0, 0.0, 0.0)))


def test_vocab_universe_contains_signal_tokens():
    vocab = note_token_universe(160)
    assert len(vocab) == 160
    assert "lasix" in vocab and "cabg" in vocab
    assert len(set(vocab)) == 160


class TestRoundTrip:
    def test_empty_cohort(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cohort([], path)
        assert path.read_text().count("\n") == 1  # header only
        assert read_cohort(path) == []

    def test_single_stay(self, tmp_path):
        stays = generate_cohort(CohortConfig(n_stays=1, seed=2))
        path = tmp_path / "c.jsonl"
        write_cohort(stays, path)
        assert read_cohort(path) == stays

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=999))
    def test_random_cohorts_round_trip(self, n, seed):
        import tempfile
        stays = generate_cohort(CohortConfig(n_stays=n, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/c.jsonl"
            write_cohort(stays, path)
            back = read_cohort(path)
        assert back == stays
        assert [s.stay_id for s in back] == [s.stay_id for s in stays]

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=2, seed=1)), path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3"):
            read_cohort(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text('{"stay_id": "x"}\n')
        with pytest.raises(ParseError, match="header"):
            read_cohort(path)

    def test_golden_bytes(self, tmp_path):
        # the bytes written while each series was a list of (offset, value) tuples
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=3, seed=2)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "bbe74e4ac7812286478747dc856f07b7b2c1142c10733a44d97fa25fcd2902b9"


def _all_series(stays):
    return [s for stay in stays
            for s in list(stay.chart_series.values()) + list(stay.lab_series.values())]


def test_series_layout_generated_and_read(tmp_path):
    stays = generate_cohort(CohortConfig(n_stays=8, seed=6))
    path = tmp_path / "c.jsonl"
    write_cohort(stays, path)
    for series in _all_series(stays) + _all_series(read_cohort(path)):
        pts = series.points
        assert pts.ndim == 2 and pts.shape[1] == 2
        assert pts.dtype == np.float64
        assert pts.flags.c_contiguous


class TestEventSeries:
    def test_empty_series_shape(self):
        assert EventSeries("bun").points.shape == (0, 2)
        assert EventSeries("bun", []).points.shape == (0, 2)

    def test_pairs_become_float64_array(self):
        s = EventSeries("bun", [(1, 2.5), (3.0, 4)])
        assert s.points.dtype == np.float64
        assert s.points.tolist() == [[1.0, 2.5], [3.0, 4.0]]

    def test_wrong_shape_rejected(self):
        with pytest.raises(DataError, match="pairs"):
            EventSeries("bun", [(1.0, 2.0, 3.0)])

    def test_equality_compares_values(self):
        a = EventSeries("bun", [(1.0, 2.0)])
        assert a == EventSeries("bun", np.array([[1.0, 2.0]]))
        assert a != EventSeries("bun", [(1.0, 2.5)])
        assert a != EventSeries("bun", [(1.0, 2.0), (2.0, 2.0)])
        assert a != EventSeries("glucose", [(1.0, 2.0)])

    @pytest.mark.parametrize("pts, message", [
        ([(-1.0, 1.0)], "negative offset"),
        ([(1.0, 1.0), (1.0, 2.0)], "not strictly increasing at 1.0"),
        ([(2.0, 1.0), (1.0, 2.0)], "not strictly increasing at 1.0"),
        ([(1.0, float("nan"))], "non-finite value at 1.0"),
        ([(1.0, 1.0), (2.0, float("inf"))], "non-finite value at 2.0"),
        ([(float("nan"), 1.0)], "non-finite offset"),
    ])
    def test_validate_names_first_bad_point(self, pts, message):
        with pytest.raises(DataError, match=message):
            EventSeries("bun", pts).validate()

    def test_stay_validate_checks_each_series_separately(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=3))[0]
        # a series may start before the previous one ends
        stay.lab_series["bun"] = EventSeries("bun", [(0.5, 20.0)])
        stay.validate()
        stay.lab_series["bun"] = EventSeries("bun", [(0.5, 20.0), (0.5, 21.0)])
        with pytest.raises(DataError, match="bun: offsets not strictly increasing"):
            stay.validate()


class TestReadValidation:
    @staticmethod
    def _write_with(tmp_path, series_json):
        """A two-stay cohort whose second stay's creatinine holds `series_json`."""
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=2, seed=1)), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["labs"]["creatinine"] = series_json
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("series_json", [
        [[1.0]],
        [[1, 2, 3]],
        [[1, 2, 3], [4]],
        None,
        [None],
        [[None, 1.0]],
        [[1.0, None]],
        [[1.0, "high"]],
        ["ab"],
        [[1.0, float("nan")]],
        [[float("inf"), 1.0]],
        [[1.0, float("-inf")]],
        [[2.0, 1.0], [1.0, 1.1]],
        [[1.0, 1.0], [1.0, 1.1]],
        [[-1.0, 1.0]],
    ])
    def test_malformed_series_names_line(self, tmp_path, series_json):
        path = self._write_with(tmp_path, series_json)
        with pytest.raises(ParseError, match="line 3"):
            read_cohort(path)

    def test_invalid_stay_fields_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=1, seed=1)), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["age"] = -4.0
        path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="line 2.*non-positive age"):
            read_cohort(path)

    def test_valid_edit_still_reads(self, tmp_path):
        path = self._write_with(tmp_path, [[0.0, 1.0], [5, 1.25]])
        stays = read_cohort(path)
        assert stays[1].lab_series["creatinine"].points.tolist() == [[0.0, 1.0], [5.0, 1.25]]
