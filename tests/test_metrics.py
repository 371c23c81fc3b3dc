import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akisub.errors import MetricError
from akisub.metrics import auc, precision_recall
from oracles import pairwise_auc


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_counted_case(self):
        # pairs: (0.35 vs 0.1 ok), (0.35 vs 0.4 wrong), (0.8 vs both ok) -> 3/4
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.2, 0.4], [1, 1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_pairwise_oracle_with_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if len(set(labels.tolist())) < 2:
            labels[0], labels[1] = 0, 1
        assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


class TestPrecisionRecall:
    def test_all_correct(self):
        pr = precision_recall([0.1, 0.9, 0.2, 0.8], [0, 1, 0, 1])
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_no_predicted_positives_flagged(self):
        pr = precision_recall([0.1, 0.2, 0.3], [0, 1, 1])
        assert pr.precision == 0.0 and pr.recall == 0.0

    def test_confusion_matrix_arithmetic(self):
        # TP=2, FP=2, FN=1
        scores = [0.9, 0.8, 0.7, 0.6, 0.1, 0.2]
        labels = [1, 1, 0, 0, 1, 0]
        pr = precision_recall(scores, labels)
        assert pr.precision == pytest.approx(0.5)
        assert pr.recall == pytest.approx(2.0 / 3.0)

    def test_cutoff_boundary_is_inclusive(self):
        pr = precision_recall([0.5, 0.49], [1, 0])
        assert pr.precision == 1.0 and pr.recall == 1.0
