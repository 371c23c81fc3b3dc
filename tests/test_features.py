import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from akisub.cohort import CohortConfig, EventSeries, generate_cohort
from akisub.errors import ArgumentError, ImputationError, SchemaError
from akisub import features
from akisub.features import (BASELINE_CONTINUOUS_VARS, BASELINE_DIM, StayTensor,
                             Vocabulary, apply_scaling, baseline_feature_names,
                             bin_events, build_vocabulary, fit_scaling,
                             impute_and_scale, notes_to_bow, notes_to_sequences,
                             static_vector, summarize_for_baselines)
from oracles import (bin_events_reference, bin_events_unmemoised, fit_scaling_reference,
                     summary_reference, summary_unmemoised)


@pytest.fixture(scope="module")
def stays():
    return generate_cohort(CohortConfig(n_stays=30, seed=77))


def _with_series(stay, var, pts):
    stay.lab_series[var] = EventSeries(var, [(float(t), float(v)) for t, v in pts])
    return stay


class TestBinning:
    def test_bin_mean(self, stays):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        _with_series(stay, "creatinine", [(0.5, 2.0), (1.5, 4.0)])
        tensor = bin_events(stay, 24)
        col = features.TIME_VARIABLES.index("creatinine")
        assert tensor.values[0, col] == pytest.approx(3.0)
        assert tensor.mask[0, col] == 1

    def test_empty_bin_masked(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        _with_series(stay, "creatinine", [(1.0, 2.0)])
        tensor = bin_events(stay, 24)
        col = features.TIME_VARIABLES.index("creatinine")
        assert tensor.mask[3, col] == 0
        assert tensor.values[3, col] == 0.0

    def test_row_counts(self, stays):
        assert bin_events(stays[0], 24).values.shape == (12, len(features.TIME_VARIABLES))
        assert bin_events(stays[0], 48).values.shape == (24, len(features.TIME_VARIABLES))

    def test_unknown_variable_rejected(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        stay.lab_series["troponin"] = EventSeries("troponin", [(1.0, 1.0)])
        with pytest.raises(SchemaError, match="troponin"):
            bin_events(stay, 24)

    def test_bad_window(self, stays):
        with pytest.raises(ArgumentError):
            bin_events(stays[0], 36)


class TestScaling:
    def test_linear_map_and_clipping(self):
        d = len(features.TIME_VARIABLES)
        values = np.zeros((2, d))
        mask = np.ones((2, d))
        values[:, 0] = [0.0, 10.0]
        train = StayTensor("a", values, mask)
        scaled, stats = impute_and_scale([train], "train-0")
        test = StayTensor("b", np.full((2, d), 2.5), np.ones((2, d)))
        test.values[0, 0] = 2.5
        test.values[1, 0] = 12.0
        out = apply_scaling(test, stats)
        assert out.values[0, 0] == pytest.approx(0.25)
        assert out.values[1, 0] == pytest.approx(1.0)  # clipped to training max

    def test_constant_variable_maps_to_zero(self):
        d = len(features.TIME_VARIABLES)
        train = StayTensor("a", np.full((3, d), 5.0), np.ones((3, d)))
        scaled, _ = impute_and_scale([train], "train-0")
        assert np.all(scaled[0].values == 0.0)

    def test_imputation_uses_training_mean(self):
        d = len(features.TIME_VARIABLES)
        values = np.zeros((2, d))
        values[:, :] = [[0.0] * d, [10.0] * d]
        train = StayTensor("a", values, np.ones((2, d)))
        stats = fit_scaling([train], "train-0")
        holey = StayTensor("b", np.zeros((2, d)), np.zeros((2, d)))
        out = apply_scaling(holey, stats)
        assert np.allclose(out.values, 0.5)  # mean 5 scaled into [0,10]

    def test_no_tensors_raises(self):
        with pytest.raises(ImputationError, match=features.TIME_VARIABLES[0]):
            fit_scaling([], "train-0")

    def test_never_observed_variable_raises(self):
        d = len(features.TIME_VARIABLES)
        mask = np.ones((2, d))
        mask[:, 2] = 0
        train = StayTensor("a", np.random.default_rng(0).uniform(size=(2, d)), mask)
        with pytest.raises(ImputationError, match=features.TIME_VARIABLES[2]):
            fit_scaling([train], "train-0")

    def test_values_in_unit_interval_and_idempotent(self, stays):
        tensors = [bin_events(s, 24) for s in stays]
        scaled, _ = impute_and_scale(tensors, "train-0")
        for t in scaled:
            assert np.all(t.values >= 0.0) and np.all(t.values <= 1.0)
        rescaled, _ = impute_and_scale(scaled, "train-0")
        for a, b in zip(scaled, rescaled):
            assert np.allclose(a.values, b.values, atol=1e-12)

    def test_split_id_recorded(self, stays):
        _, stats = impute_and_scale([bin_events(s, 24) for s in stays], "fold-3")
        assert stats.split_id == "fold-3"


class TestStatic:
    def test_layout_and_one_hot_sums(self, stays):
        for stay in stays[:10]:
            v = static_vector(stay)
            assert v.shape == (20,)
            assert v[1:3].sum() == 1.0
            assert v[3:7].sum() == 1.0
            assert set(np.unique(v[7:])) <= {0.0, 1.0}


class TestBaselineVector:
    def test_hand_stats(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        _with_series(stay, "creatinine", [(0.5, 1.0), (2.5, 2.0), (4.5, 3.0)])
        vec = summarize_for_baselines(stay, 24, {})
        names = baseline_feature_names()
        get = lambda n: vec[names.index(n)]
        assert get("creatinine_first") == 1.0
        assert get("creatinine_last") == 3.0
        assert get("creatinine_avg") == pytest.approx(2.0)
        assert get("creatinine_min") == 1.0
        assert get("creatinine_max") == 3.0
        assert get("creatinine_slope") == pytest.approx(1.0)  # bins 0,1,2
        assert get("creatinine_count") == 3.0

    def test_single_observation_degenerate_slope(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        _with_series(stay, "creatinine", [(1.0, 4.2)])
        vec = summarize_for_baselines(stay, 24, {})
        names = baseline_feature_names()
        for stat in ("first", "last", "avg", "min", "max"):
            assert vec[names.index(f"creatinine_{stat}")] == pytest.approx(4.2)
        assert vec[names.index("creatinine_slope")] == 0.0
        assert vec[names.index("creatinine_count")] == 1.0

    def test_length_is_147(self, stays):
        vec = summarize_for_baselines(stays[0], 24, {})
        assert vec.shape == (BASELINE_DIM,)
        assert len(baseline_feature_names()) == BASELINE_DIM
        assert len(BASELINE_CONTINUOUS_VARS) == 19

    def test_empty_series_flagged_and_filled(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        _with_series(stay, "creatinine", [])
        vec = summarize_for_baselines(stay, 24, fill_means={"creatinine": 1.3})
        names = baseline_feature_names()
        assert vec[names.index("creatinine_count")] == 0.0
        for stat in ("first", "last", "avg", "min", "max"):
            assert vec[names.index(f"creatinine_{stat}")] == 1.3


class TestNotes:
    def test_sequences_sorted_dropped_and_padded(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        from akisub.cohort import ClinicalNote
        stay.notes = [ClinicalNote(3.0, ["lasix", "zzz-not-in-vocab"]),
                      ClinicalNote(1.0, ["stable", "patient"]),
                      ClinicalNote(2.0, ["zzz-not-in-vocab"])]
        vocab = Vocabulary(tokens=("<pad>", "lasix", "patient", "stable"))
        seqs = notes_to_sequences(stay, vocab, max_note_len=32)
        assert seqs == [[3, 2], [0], [1]]  # order 1h, 2h, 3h; all-OOV -> [pad]

    def test_truncation_and_index_range(self, stays):
        vocab = build_vocabulary(stays)
        for stay in stays:
            for seq in notes_to_sequences(stay, vocab, max_note_len=5):
                assert 1 <= len(seq) <= 5
                assert all(0 <= i < len(vocab) for i in seq)

    def test_bow_counts_and_conservation(self, stays):
        vocab = build_vocabulary(stays)
        stay = stays[0]
        bow = notes_to_bow(stay, vocab)
        assert bow.shape == (len(vocab),)
        total_in_vocab = sum(1 for n in stay.notes for t in n.tokens if t in vocab.index)
        assert bow.sum() == total_in_vocab
        assert bow[0] == 0

    def test_bow_empty_notes(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        stay.notes = []
        vocab = Vocabulary(tokens=("<pad>", "a"))
        assert notes_to_bow(stay, vocab).sum() == 0

    def test_vocabulary_is_sorted_and_pad_first(self, stays):
        vocab = build_vocabulary(stays)
        assert vocab.tokens[0] == "<pad>"
        assert list(vocab.tokens[1:]) == sorted(vocab.tokens[1:])


def _edge_stays():
    """Generated stays plus copies whose series hold points before 0, exactly at
    and after 24 h and 48 h, bins shared by several points, empty series, and one
    series of 300 points inside 24 h: numpy sums that many in 8 lanes, in blocks
    of 128."""
    stays = generate_cohort(CohortConfig(n_stays=25, seed=13))
    # bin 1 holds 0.1, 0.2, 0.3, whose sum depends on the order of addition
    edge = [(-3.0, 1.0), (-0.5, 1.1), (0.0, 1.2), (1.99, 1.3), (2.0, 0.1), (2.5, 0.2),
            (3.9, 0.3), (23.999, 1.5), (24.0, 1.6), (30.0, 1.7), (47.9, 1.8), (48.0, 1.9),
            (60.0, 2.0)]
    extra = generate_cohort(CohortConfig(n_stays=4, seed=14))
    _with_series(extra[0], "creatinine", edge)
    _with_series(extra[0], "bun", [])
    _with_series(extra[1], "urine_rate", [(-1.0, 0.5), (24.0, 0.6), (48.0, 0.7)])
    _with_series(extra[1], "potassium", [(5.0, 4.0)])
    for var in BASELINE_CONTINUOUS_VARS:  # every series empty
        _with_series(extra[2], var, [])
    rng = np.random.default_rng(15)
    dense = rng.normal(10.0, 3.0, 300) * 10.0 ** rng.integers(-3, 4, 300)
    _with_series(extra[3], "wbc", zip(np.sort(rng.uniform(0.0, 24.0, 300)), dense))
    return stays + extra


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTupleReferenceParity:
    """The array kernels give the bits of the per-point tuple loops they replaced."""

    @pytest.mark.parametrize("t1", [24, 48])
    def test_bin_events_bitwise(self, t1):
        for stay in _edge_stays():
            tensor = bin_events(stay, t1)
            values, mask = bin_events_reference(stay, features.TIME_VARIABLES, t1)
            assert _same_bits(tensor.values, values), stay.stay_id
            assert _same_bits(tensor.mask, mask), stay.stay_id

    @pytest.mark.parametrize("t1", [24, 48])
    @pytest.mark.parametrize("fill", [None, {"bun": 17.25, "creatinine": 1.125}])
    def test_summarize_for_baselines_bitwise(self, t1, fill):
        fill_values = np.repeat([(fill or {}).get(var, 0.0) for var in BASELINE_CONTINUOUS_VARS],
                                len(features.BASELINE_STATS))
        for stay in _edge_stays():
            vec = summarize_for_baselines(stay, t1, fill or {})
            values, imputed = summary_reference(stay, BASELINE_CONTINUOUS_VARS, t1, fill)
            n = len(values)
            assert _same_bits(vec[:n], values), stay.stay_id
            # each filled entry holds its variable's fill mean
            assert (vec[:n][imputed] == fill_values[imputed]).all(), stay.stay_id

    @pytest.mark.parametrize("t1", [24, 48])
    def test_fit_scaling_bitwise(self, t1):
        stays = _edge_stays()
        tensors = [bin_events(s, t1) for s in stays]
        for split in (tensors, tensors[-4:], tensors[5:6]):
            stats = fit_scaling(split, "train-0")
            want = fit_scaling_reference(split, features.TIME_VARIABLES)
            assert _same_bits(np.array([stats.mean, stats.vmin, stats.vmax]), want)

    def test_segment_sums_are_numpy_reductions(self):
        """Each run's sum is `np.add.reduce` of that run to the bit, for run lengths
        on both sides of numpy's 8-lane unroll and 128-element block, over values
        of many magnitudes and zeros of both signs."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            lengths = rng.integers(1, 301, size=rng.integers(1, 40))
            values = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-8, 9, lengths.sum())
            zero = rng.random(len(values)) < 0.2
            values[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
            starts = np.cumsum(lengths) - lengths
            want = [np.add.reduce(values[a:a + n]) for a, n in zip(starts, lengths)]
            assert _same_bits(features._segment_sums(values, lengths), want)


FILLS = ({"bun": 17.25, "creatinine": 1.125, "wbc": 9.5}, {"bun": -3.0, "pt": 12.75})


class TestStayMemo:
    """`bin_events` and `summarize_for_baselines` keep what they compute on the stay;
    every call still gives the bits of the computation without the memo."""

    @pytest.mark.parametrize("t1", [24, 48])
    def test_bins_match_the_unmemoised_kernel_on_every_call(self, t1):
        for stay in _edge_stays():
            values, mask = bin_events_unmemoised(stay, t1)
            for _ in range(2):
                tensor = bin_events(stay, t1)
                assert tensor.stay_id == stay.stay_id
                assert _same_bits(tensor.values, values), stay.stay_id
                assert _same_bits(tensor.mask, mask), stay.stay_id

    @pytest.mark.parametrize("t1", [24, 48])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_each_call_applies_its_own_fill(self, t1, order):
        for stay in _edge_stays():
            for i in order + order:
                want = summary_unmemoised(stay, t1, FILLS[i])
                assert _same_bits(summarize_for_baselines(stay, t1, FILLS[i]), want), \
                    stay.stay_id

    def test_windows_are_kept_apart(self):
        stay = _edge_stays()[-4]  # points before and after 24 h
        for t1 in (24, 48, 24):
            assert _same_bits(summarize_for_baselines(stay, t1, FILLS[0]),
                              summary_unmemoised(stay, t1, FILLS[0]))
            assert _same_bits(bin_events(stay, t1).values, bin_events_unmemoised(stay, t1)[0])

    def test_replaced_stay_gets_a_fresh_memo(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        before = summarize_for_baselines(stay, 24, FILLS[0])
        bin_events(stay, 24)
        older = dataclasses.replace(stay, age=stay.age + 10.0)
        assert older.feature_memo == {} and stay.feature_memo != {}
        assert older != stay and dataclasses.replace(stay) == stay
        after = summarize_for_baselines(older, 24, FILLS[0])
        assert _same_bits(after, summary_unmemoised(older, 24, FILLS[0]))
        age = baseline_feature_names().index("age_scaled")
        assert after[age] == older.age / 100.0 != before[age]
        assert _same_bits(np.delete(after, age), np.delete(before, age))

    def test_memo_is_ignored_by_equality_and_repr(self):
        warm, cold = generate_cohort(CohortConfig(n_stays=2, seed=4)), \
            generate_cohort(CohortConfig(n_stays=2, seed=4))
        for stay in warm:
            bin_events(stay, 24)
            summarize_for_baselines(stay, 48, {})
        assert warm == cold
        assert [repr(s) for s in warm] == [repr(s) for s in cold]

    def test_bin_arrays_are_read_only(self, stays):
        for tensor in (bin_events(stays[0], 24), bin_events(stays[0], 24)):
            for array in (tensor.values, tensor.mask):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0

    def test_changing_a_returned_row_changes_no_later_call(self, stays):
        stay = stays[1]
        first = summarize_for_baselines(stay, 24, FILLS[1])
        want = first.copy()
        assert first.flags.writeable
        first[:] = np.nan
        assert _same_bits(summarize_for_baselines(stay, 24, FILLS[1]), want)

    def test_threads_filling_one_memo_agree(self):
        """Eight threads bin and summarise the same cold stays at once, switching
        every microsecond: each result is still the unmemoised one."""
        stays = generate_cohort(CohortConfig(n_stays=40, seed=21))
        want = [(bin_events_unmemoised(s, 24)[0], summary_unmemoised(s, 24, FILLS[0]))
                for s in stays]

        def featurize(_):
            return [(bin_events(s, 24).values, summarize_for_baselines(s, 24, FILLS[0]))
                    for s in stays]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = list(pool.map(featurize, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            for (values, row), (want_values, want_row) in zip(run, want):
                assert _same_bits(values, want_values) and _same_bits(row, want_row)

    def test_failed_binning_memoises_nothing(self):
        stay = generate_cohort(CohortConfig(n_stays=1, seed=4))[0]
        stay.lab_series["troponin"] = EventSeries("troponin", [(1.0, 1.0)])
        for _ in range(2):
            with pytest.raises(SchemaError, match="troponin"):
                bin_events(stay, 24)
        with pytest.raises(ArgumentError):
            bin_events(stay, 36)
        assert stay.feature_memo == {}
