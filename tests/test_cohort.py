import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akisub import cohort
from akisub.cohort import (_FILLER_WEIGHTS, CHART_VARIABLES, LAB_VARIABLES, NOTE_TOKENS,
                           CohortConfig, EventSeries, _cdf, _pick, _uniform,
                           generate_cohort, read_cohort, write_cohort)
from akisub.errors import DataError, ParseError
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
    """The creatinine of archetype-2 cases, drawn as the generator draws it, averages
    the planted 1.96 over the first 24 h."""
    means = []
    for i in range(500):
        rng = np.random.default_rng([5, i])
        series = cohort._renal_series(rng, "creatinine", 2, cohort._scr_ramp)
        obs = [v for t, v in series.points if t <= 24.0]
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


def test_vocab_universe_contains_signal_tokens():
    assert len(NOTE_TOKENS) == 160
    assert "lasix" in NOTE_TOKENS and "cabg" in NOTE_TOKENS
    assert len(set(NOTE_TOKENS)) == 160


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


@pytest.mark.parametrize("seed", range(5))
def test_scalar_draws_match_generator_methods(seed):
    """`_pick` and `_uniform` return what `Generator.choice` and `Generator.uniform`
    return, and leave the generator in the same state."""
    fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for p in ((0.595, 0.088, 0.317), (0.8, 0.2), (0.35, 0.40, 0.15, 0.10), _FILLER_WEIGHTS):
        cdf = _cdf(p)
        for _ in range(200):
            assert _pick(fast, cdf) == reference.choice(len(p), p=p)
    for lo, hi in ((0.1, 1.9), (55.0, 135.0), (1.60, 1.78), (0.34, 0.42)):
        for _ in range(200):
            assert _uniform(fast, lo, hi) == reference.uniform(lo, hi)
    assert fast.random() == reference.random()


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
            cohort._check_series([EventSeries("bun", pts)])

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
        [[1.0, 0.0]],
        [[1.0, -0.5]],
    ])
    def test_malformed_series_names_line(self, tmp_path, series_json):
        path = self._write_with(tmp_path, series_json)
        with pytest.raises(ParseError, match="line 3"):
            read_cohort(path)

    @pytest.mark.parametrize("token, message", [
        ("", "'' is empty or holds whitespace"),
        ("a\nb", r"'a\\nb' is empty or holds whitespace"),
        ("a b", "'a b' is empty or holds whitespace"),
        ("\u2028", r"'\\u2028' is empty or holds whitespace"),
        (7, "7 is not a string"),
    ])
    def test_unsafe_note_token_names_line(self, tmp_path, token, message):
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=2, seed=1)), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["notes"][0]["tokens"][1] = token
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 3: .*note token {message}"):
            read_cohort(path)

    @pytest.mark.parametrize("stay_id, message", [
        ("s,00003", "'s,00003' is empty or holds a comma or whitespace"),
        ("", "'' is empty or holds a comma or whitespace"),
        ("s 1", "'s 1' is empty or holds a comma or whitespace"),
        ("s1\n", r"'s1\\n' is empty or holds a comma or whitespace"),
        (7, "7 is not a string"),
    ])
    def test_stay_id_a_csv_cannot_hold_names_line(self, tmp_path, stay_id, message):
        """Each CSV artifact holds a stay id as one field of one line."""
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=2, seed=1)), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["stay_id"] = stay_id
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 3: .*stay_id {message}"):
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

    def _three_stay_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=3, seed=4)), path)
        return path, path.read_text().splitlines()

    def test_file_cut_at_line_boundary_rejected(self, tmp_path):
        path, lines = self._three_stay_lines(tmp_path)
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(ParseError, match="header says 3 stays, file holds 2"):
            read_cohort(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match="line 1: missing cohort header"):
            read_cohort(path)

    def test_repeated_stay_line_rejected(self, tmp_path):
        path, lines = self._three_stay_lines(tmp_path)
        header = json.loads(lines[0])
        header["n_stays"] = 4
        path.write_text("\n".join([json.dumps(header)] + lines[1:] + [lines[2]]) + "\n")
        with pytest.raises(ParseError, match="line 5: .*duplicate stay_id .*first on line 3"):
            read_cohort(path)

    @pytest.mark.parametrize("field, value", [
        ("version", 2), ("version", None), ("n_stays", "3"), ("n_stays", True),
        ("n_stays", None),
    ])
    def test_bad_header_rejected(self, tmp_path, field, value):
        path, lines = self._three_stay_lines(tmp_path)
        header = json.loads(lines[0])
        header[field] = value
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ParseError, match="line 1: the header needs version 1 and an "
                                             "integer n_stays"):
            read_cohort(path)

    def test_header_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1]\n")
        with pytest.raises(ParseError, match="line 1: missing cohort header"):
            read_cohort(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path, lines = self._three_stay_lines(tmp_path)
        path.write_bytes(("\n".join(lines[:2]) + "\n").encode() + b'{"x": "\xff"}\n')
        with pytest.raises(ParseError, match="line 3: invalid JSON"):
            read_cohort(path)


class TestReadCache:
    """`read_cohort` keeps its last parse, keyed by the content of the file."""

    def test_rewritten_file_reads_new_content(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = generate_cohort(CohortConfig(n_stays=3, seed=1))
        second = generate_cohort(CohortConfig(n_stays=3, seed=2))
        write_cohort(first, path)
        assert read_cohort(path) == first
        write_cohort(second, path)
        assert read_cohort(path) == second

    def test_same_content_at_another_path_is_a_hit(self, tmp_path):
        write_cohort(generate_cohort(CohortConfig(n_stays=2, seed=3)), tmp_path / "a.jsonl")
        (tmp_path / "b.jsonl").write_bytes((tmp_path / "a.jsonl").read_bytes())
        a, b = read_cohort(tmp_path / "a.jsonl"), read_cohort(tmp_path / "b.jsonl")
        assert a is not b
        assert all(x is y for x, y in zip(a, b, strict=True))

    def test_changing_the_returned_list_changes_no_later_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        stays = generate_cohort(CohortConfig(n_stays=3, seed=5))
        write_cohort(stays, path)
        first = read_cohort(path)
        first.append(first[0])
        del first[1]
        assert read_cohort(path) == stays

    def test_points_are_read_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=1, seed=6)), path)
        points = read_cohort(path)[0].lab_series["creatinine"].points
        with pytest.raises(ValueError, match="read-only"):
            points[0, 1] = 99.0

    def test_failed_read_keeps_nothing(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"stay_id": "x"}\n')
        for _ in range(2):
            with pytest.raises(ParseError, match="header"):
                read_cohort(bad)
        good = tmp_path / "good.jsonl"
        stays = generate_cohort(CohortConfig(n_stays=2, seed=7))
        write_cohort(stays, good)
        assert read_cohort(good) == stays
