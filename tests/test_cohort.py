import dataclasses
import hashlib
import json
import os
import sys
import threading
import time

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
from oracles import generate_cohort_reference, planted_stage


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


def _write_unkept(stays, path):
    """Write `stays` and drop the parse `write_cohort` keeps, so the next read parses."""
    write_cohort(stays, path)
    cohort._last_parse = None


class TestRoundTrip:
    def test_empty_cohort(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_unkept([], path)
        assert path.read_text().count("\n") == 1  # header only
        assert read_cohort(path) == []

    def test_single_stay(self, tmp_path):
        stays = generate_cohort(CohortConfig(n_stays=1, seed=2))
        path = tmp_path / "c.jsonl"
        _write_unkept(stays, path)
        back = read_cohort(path)
        assert back == stays and back[0] is not stays[0]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=999))
    def test_random_cohorts_round_trip(self, n, seed):
        import tempfile
        stays = generate_cohort(CohortConfig(n_stays=n, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/c.jsonl"
            _write_unkept(stays, path)
            back = read_cohort(path)
        assert back == stays
        assert [_layout(s) for s in back] == [_layout(s) for s in stays]
        assert not any(a is b for a, b in zip(back, stays, strict=True))

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
    _write_unkept(stays, path)
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
        _write_unkept(first, path)
        assert read_cohort(path) == first
        _write_unkept(second, path)
        assert read_cohort(path) == second

    def test_same_content_at_another_path_is_a_hit(self, tmp_path):
        _write_unkept(generate_cohort(CohortConfig(n_stays=2, seed=3)), tmp_path / "a.jsonl")
        (tmp_path / "b.jsonl").write_bytes((tmp_path / "a.jsonl").read_bytes())
        a, b = read_cohort(tmp_path / "a.jsonl"), read_cohort(tmp_path / "b.jsonl")
        assert a is not b
        assert all(x is y for x, y in zip(a, b, strict=True))

    def test_changing_the_returned_list_changes_no_later_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        stays = generate_cohort(CohortConfig(n_stays=3, seed=5))
        _write_unkept(stays, path)
        first = read_cohort(path)
        first.append(first[0])
        del first[1]
        assert read_cohort(path) == stays

    def test_points_are_read_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_unkept(generate_cohort(CohortConfig(n_stays=1, seed=6)), path)
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
        _write_unkept(stays, good)
        assert read_cohort(good) == stays


# ---------------------------------------------------------------------------
# atomic writes and the digest cache of file_sha256
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "a.csv"
        cohort.write_text(path, ["old\n"])

        def chunks():
            yield "new, partly written\n" * 1000
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cohort.write_text(path, chunks())
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_rewrite_is_a_new_inode_with_the_mode_open_gives(self, tmp_path):
        path, plain = tmp_path / "a.csv", tmp_path / "plain"
        cohort.write_text(path, ["one\n"])
        with open(plain, "w", encoding="utf-8"):
            pass
        before = path.stat()
        cohort.write_text(path, ["two\n"])
        assert path.read_text(encoding="utf-8") == "two\n"
        assert path.stat().st_ino != before.st_ino
        assert path.stat().st_mode == before.st_mode == plain.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "plain"]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDigestCache:
    def test_unchanged_old_file_is_read_once(self, tmp_path, digests, aged, hash_reads):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        assert cohort.file_sha256(path) == cohort.file_sha256(str(path)) == _sha256(path)
        assert hash_reads == {"f.bin": 100}
        assert list(digests) == [str(path)]

    def test_equal_size_rewrite_with_mtime_put_back_is_hashed_again(self, tmp_path, digests,
                                                                   aged, rewrite_in_place):
        path = tmp_path / "f.bin"
        path.write_bytes(b"a" * 64)
        first = cohort.file_sha256(path)
        assert str(path) in digests
        before = path.stat()
        rewrite_in_place(path, b"b" * 64)
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
            (before.st_ino, before.st_size, before.st_mtime_ns)
        assert cohort.file_sha256(path) == _sha256(path) != first

    def test_replacing_file_of_the_same_size_is_hashed_again(self, tmp_path, digests, aged):
        path, other = tmp_path / "f.bin", tmp_path / "g.bin"
        path.write_bytes(b"a" * 64)
        first = cohort.file_sha256(path)
        other.write_bytes(b"b" * 64)
        before = path.stat()
        os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(other, path)
        assert cohort.file_sha256(path) == _sha256(path) != first

    def test_file_written_within_the_margin_is_never_kept(self, tmp_path, digests):
        path = tmp_path / "f.bin"
        for content in (b"a" * 64, b"b" * 64, b"c" * 64):
            mtime = path.stat().st_mtime_ns if path.exists() else None
            with open(path, "r+b" if mtime else "wb") as fh:
                fh.write(content)
            if mtime:
                os.utime(path, ns=(mtime, mtime))
            assert cohort.file_sha256(path) == hashlib.sha256(content).hexdigest()
            assert digests == {}

    def test_file_that_changes_while_hashed_is_not_kept(self, tmp_path, digests, aged,
                                                         monkeypatch):
        path = tmp_path / "f.bin"
        path.write_bytes(b"a" * 64)

        def appending(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            with open(file, "ab") as writer:
                writer.write(b"b")
            return fh

        with monkeypatch.context() as patch:
            patch.setattr(cohort, "open", appending, raising=False)
            cohort.file_sha256(path)
        assert digests == {}
        assert cohort.file_sha256(path) == _sha256(path)
        assert digests[str(path)][1] == _sha256(path)

    def test_missing_file_raises_and_keeps_nothing(self, tmp_path, digests, aged):
        path = tmp_path / "f.bin"
        with pytest.raises(FileNotFoundError):
            cohort.file_sha256(path)
        assert digests == {}
        path.write_bytes(b"a")
        cohort.file_sha256(path)
        path.unlink()
        with pytest.raises(FileNotFoundError):
            cohort.file_sha256(path)

    def test_threads_get_correct_digests(self, tmp_path, digests, aged):
        paths = []
        for i in range(4):
            paths.append(tmp_path / f"f{i}.bin")
            paths[-1].write_bytes(bytes([i]) * (1000 + i))
        want = {str(p): _sha256(p) for p in paths}
        wrong = []

        def hash_all():
            for _ in range(50):
                for p in paths:
                    if cohort.file_sha256(p) != want[str(p)]:
                        wrong.append(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hash_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert {path: digest for path, (_, digest) in digests.items()} == want


# ---------------------------------------------------------------------------
# generation and serialisation over forked workers
# ---------------------------------------------------------------------------

# SHA-256 of the seed-0, 160-stay cohort file, as the one-process writer wrote it
SEED0_160_SHA256 = "4330ba8d1648b9dc1c12c9c176432f6e1f2027e15646b756937839906bdc89f6"


@pytest.fixture
def workers(monkeypatch):
    """Sets the number of processes `generate_cohort` and `write_cohort` split over."""
    return lambda k: monkeypatch.setattr(cohort, "_workers", lambda n: k)


def _layout(stay):
    """What `==` on stays does not compare: the type of each field, flag and note
    offset, the key order of each dict, and whether each series' points are
    writeable and C-contiguous."""
    dicts = (stay.med_flags, stay.comorbidity_flags, stay.chart_series, stay.lab_series)
    return ([(name, type(value)) for name, value in vars(stay).items()],
            [type(v) for v in [*stay.med_flags.values(), *stay.comorbidity_flags.values()]],
            [type(note.offset_hours) for note in stay.notes],
            [list(d) for d in dicts],
            [(s.points.flags.writeable, s.points.flags.c_contiguous)
             for s in [*stay.chart_series.values(), *stay.lab_series.values()]])


def _check_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkJoin:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_stays_and_bytes_match_the_serial_walk(self, tmp_path, workers, seed, k):
        config = CohortConfig(n_stays=60, seed=seed)
        reference = generate_cohort_reference(config)
        workers(k)
        stays = generate_cohort(config)
        assert stays == reference
        assert [_layout(s) for s in stays] == [_layout(s) for s in reference]
        write_cohort(stays, tmp_path / "forked.jsonl")
        workers(1)
        write_cohort(reference, tmp_path / "serial.jsonl")
        assert (tmp_path / "forked.jsonl").read_bytes() == \
            (tmp_path / "serial.jsonl").read_bytes()
        _check_no_child_left()

    def test_the_seeds_above_open_a_range_with_a_repeat_stay(self):
        """A range whose first stay repeats the patient of the range before must redraw
        that patient's demographics."""
        for seed, k in ((10, 2), (11, 3)):
            plan = cohort._patient_plan(CohortConfig(n_stays=60, seed=seed))
            assert any(plan[60 * j // k][2] for j in range(1, k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_seed_0_file_is_pinned(self, tmp_path, workers, k):
        workers(k)
        path = tmp_path / "c.jsonl"
        write_cohort(generate_cohort(CohortConfig(n_stays=160, seed=0)), path)
        assert cohort.file_sha256(path) == SEED0_160_SHA256
        assert cohort._last_parse[0] == SEED0_160_SHA256

    def test_generated_stays_equal_a_fresh_parse(self, tmp_path):
        stays = generate_cohort(CohortConfig(n_stays=40, seed=8))
        path = tmp_path / "c.jsonl"
        write_cohort(stays, path)
        parsed = cohort._parse_cohort(path)
        assert parsed == stays
        assert [_layout(s) for s in parsed] == [_layout(s) for s in stays]
        # the written stays are the kept parse
        assert all(a is b for a, b in zip(read_cohort(path), stays, strict=True))

    @pytest.mark.parametrize("edit, message", [
        (lambda stays: [dataclasses.replace(stays[0], age=-1.0), *stays[1:]],
         "non-positive age"),
        (lambda stays: [*stays, stays[0]], "duplicate stay_id"),
    ])
    def test_stays_a_parse_rejects_are_not_kept(self, tmp_path, edit, message):
        path = tmp_path / "c.jsonl"
        write_cohort(edit(generate_cohort(CohortConfig(n_stays=3, seed=2))), path)
        assert cohort._last_parse is None
        with pytest.raises(ParseError, match=message):
            read_cohort(path)

    def test_ranges_in_order_each_in_its_own_process(self, workers):
        workers(3)
        items = list(cohort._fork_join(lambda indices: [(i, os.getpid()) for i in indices], 10))
        assert [i for i, _ in items] == list(range(10))
        here, first, second = items[0][1], items[3][1], items[6][1]
        assert [pid for _, pid in items] == [here] * 3 + [first] * 3 + [second] * 4
        assert here == os.getpid() and len({here, first, second}) == 3
        _check_no_child_left()

    def test_a_child_error_is_raised_at_its_turn(self, workers):
        workers(3)
        received = []

        def fn(indices):
            if indices.start == 10:
                raise DataError(f"range from {indices.start}")
            return indices

        with pytest.raises(DataError, match="range from 10"):
            for i in cohort._fork_join(fn, 30):
                received.append(i)
        assert received == list(range(10))
        _check_no_child_left()

    def test_an_error_here_ends_the_children(self, workers):
        workers(3)

        def fn(indices):
            if indices.start == 0:
                raise KeyError("this process's range")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyError, match="this process's range"):
            list(cohort._fork_join(fn, 30))
        assert time.monotonic() - start < 30
        _check_no_child_left()

    def test_closing_early_ends_the_children(self, workers):
        workers(2)

        def fn(indices):
            if indices.start:
                time.sleep(60)
            return indices

        start = time.monotonic()
        items = cohort._fork_join(fn, 10)
        assert next(items) == 0
        items.close()
        assert time.monotonic() - start < 30
        _check_no_child_left()

    def test_a_child_that_sends_nothing(self, workers):
        workers(2)
        with pytest.raises(ChildProcessError, match="stays 5 to 9 ended with wait status"):
            list(cohort._fork_join(lambda indices: [indices.start and os._exit(3)], 10))
        _check_no_child_left()


class TestWorkers:
    def test_one_per_cpu_while_each_gets_the_minimum(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        m = cohort.FORK_MIN_STAYS
        assert [cohort._workers(n) for n in (0, 1, 2 * m - 1, 2 * m, 3 * m, 10 * m)] == \
            [1, 1, 1, 2, 3, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cohort._workers(10 * m) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cohort.usable_cpus() == 3
        assert cohort._workers(10 * cohort.FORK_MIN_STAYS) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cohort.usable_cpus() == 1

    def test_no_fork_without_os_fork_or_with_another_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        n = 10 * cohort.FORK_MIN_STAYS
        assert cohort._workers(n) == 2
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            assert cohort._workers(n) == 1
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert cohort._workers(n) == 1
