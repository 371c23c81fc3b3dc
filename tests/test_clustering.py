import numpy as np
import pytest

from akisub.clustering import (adjusted_rand_index, kmeans, mcclain_rao, pca_project,
                               select_k, tsne_embed)
from akisub.errors import ArgumentError, DegenerateInputError
from oracles import best_two_partition_inertia, tsne_kl_reference


def silhouette(X, labels):
    X = np.asarray(X)
    n = len(X)
    dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(n):
        same = (labels == labels[i]) & (np.arange(n) != i)
        if not same.any():
            continue
        a = dist[i, same].mean()
        b = min(dist[i, labels == c].mean() for c in np.unique(labels) if c != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def blobs(rng, n_per, centers, scale=0.5):
    pts, labels = [], []
    for ci, c in enumerate(centers):
        pts.append(c + scale * rng.standard_normal((n_per, len(c))))
        labels += [ci] * n_per
    return np.vstack(pts), np.array(labels)


class TestPca:
    def test_axis_aligned_recovery(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([5.0 * rng.standard_normal(200), rng.standard_normal(200)])
        Y = pca_project(X)
        # first component is (up to sign) the x-axis
        corr = np.corrcoef(Y[:, 0], X[:, 0])[0, 1]
        assert abs(corr) > 0.99

    def test_rank_one_second_component_vanishes(self):
        rng = np.random.default_rng(1)
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        X = np.outer(rng.standard_normal(50), direction)
        Y = pca_project(X)
        assert Y[:, 1].var() < 1e-16 * max(1.0, Y[:, 0].var())

    def test_projected_variance_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 4)) @ np.diag([3.0, 2.0, 0.5, 0.1])
        Y = pca_project(X)
        cov = np.cov(X, rowvar=False)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        proj_var = Y.var(axis=0, ddof=1)
        assert abs(proj_var[0] - eigvals[0]) < 1e-8
        assert abs(proj_var[1] - eigvals[1]) < 1e-8

    def test_two_d_input_preserves_distances(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 2)) * [2.0, 0.7]
        Y = pca_project(X)
        dx = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
        dy = np.sqrt(((Y[:, None] - Y[None]) ** 2).sum(-1))
        assert np.max(np.abs(dx - dy)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd_oracle_with_sign_rule(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40 + 10 * seed, 6)) @ np.diag([5.0, 3.0, 1.5, 1.0, 0.5, 0.1])
        Y = pca_project(X)
        Xc = X - X.mean(axis=0)
        want = Xc @ np.linalg.svd(Xc, full_matrices=False)[2][:2].T
        for j in range(2):
            assert min(np.max(np.abs(Y[:, j] - sign * want[:, j])) for sign in (1, -1)) < 1e-9
        # the components, recovered from the projection: each one's largest-magnitude
        # coordinate is positive
        W = np.linalg.lstsq(Xc, Y, rcond=None)[0]
        assert all(W[np.argmax(np.abs(W[:, j])), j] > 0 for j in range(2))

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            pca_project(np.ones((5, 3)))

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        assert np.array_equal(pca_project(X), pca_project(X))


class TestTsne:
    def test_three_blobs_separate(self):
        rng = np.random.default_rng(8)
        X, labels = blobs(rng, 40, [np.r_[np.zeros(9), 8.0], np.r_[8.0, np.zeros(9)],
                                    np.r_[np.zeros(4), 8.0, np.zeros(5)]], scale=0.8)
        Y = tsne_embed(X, perplexity=20.0, iters=500, seed=0)
        assert Y.shape == (len(X), 2)
        assert silhouette(Y, labels) >= 0.6

    def test_kl_decreases_and_nonnegative(self):
        rng = np.random.default_rng(9)
        X, _ = blobs(rng, 35, [np.zeros(5), np.full(5, 6.0)], scale=1.0)
        Y = tsne_embed(X, perplexity=15.0, iters=400, seed=1)
        Y0 = 1e-4 * np.random.default_rng(1).standard_normal((len(X), 2))  # seeded start
        kl0, kl = (tsne_kl_reference(X, layout, 15.0) for layout in (Y0, Y))
        assert 0.0 <= kl < kl0

    def test_duplicated_points_stay_close(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((120, 6))
        X[71] = X[17]
        Y = tsne_embed(X, perplexity=25.0, iters=500, seed=3)
        dup = np.linalg.norm(Y[71] - Y[17])
        d = np.sqrt(((Y[:, None] - Y[None]) ** 2).sum(-1))
        all_pairs = d[np.triu_indices(len(Y), k=1)]
        assert dup <= np.quantile(all_pairs, 0.10)

    def test_infeasible_perplexity(self):
        with pytest.raises(ArgumentError):
            tsne_embed(np.random.default_rng(0).standard_normal((20, 3)), perplexity=10.0,
                       iters=1000, seed=0)


class TestKmeans:
    def test_two_far_pairs(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
        out = kmeans(X, 2, seed=0)
        assert out.labels[0] == out.labels[1] != out.labels[2] == out.labels[3]
        assert out.inertia == pytest.approx(1.0)  # two pairs, 0.5^2 * 2 each

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 2))
        assert kmeans(X, 6, seed=0).inertia == pytest.approx(0.0, abs=1e-20)

    def test_matches_exhaustive_two_partition_oracle(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((8, 2))
        out = kmeans(X, 2, seed=0)
        assert out.inertia == pytest.approx(best_two_partition_inertia(X), rel=1e-9)

    def test_k_too_large(self):
        with pytest.raises(ArgumentError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_every_cluster_nonempty_and_inertia_definition(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((50, 2))
        out = kmeans(X, 5, seed=1)
        assert set(out.labels) == set(range(5))
        manual = sum(((X[out.labels == c] - out.centroids[c]) ** 2).sum() for c in range(5))
        assert out.inertia == pytest.approx(manual)


class TestMcclainRao:
    def test_tight_far_clusters_near_zero(self):
        rng = np.random.default_rng(14)
        X, labels = blobs(rng, 20, [np.zeros(2), np.full(2, 100.0)], scale=0.01)
        assert mcclain_rao(X, labels) < 0.01

    def test_hand_computed_line_case(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        # within pairs: 1, 1 -> mean 1; between: 10, 11, 9, 10 -> mean 10
        assert mcclain_rao(X, labels) == pytest.approx(0.1)

    def test_random_labels_near_one(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(size=(200, 2))
        labels = rng.integers(0, 3, size=200)
        assert abs(mcclain_rao(X, labels) - 1.0) < 0.15

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(16)
        X, labels = blobs(rng, 15, [np.zeros(2), np.full(2, 3.0)], scale=0.7)
        base = mcclain_rao(X, labels)
        assert mcclain_rao(7.5 * X + 123.0, labels) == pytest.approx(base, rel=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(ArgumentError):
            mcclain_rao(np.zeros((4, 2)), np.zeros(4))


class TestSelectK:
    def test_three_planted_blobs_select_three(self):
        rng = np.random.default_rng(17)
        X, _ = blobs(rng, 60, [np.zeros(2), np.array([9.0, 0.0]), np.array([0.0, 9.0])],
                     scale=0.7)
        best, table = select_k(X, range(2, 7), seed=0)
        assert len(best.centroids) == 3
        assert [k for k, _ in table] == [2, 3, 4, 5, 6]
        # the winning clustering is the one kmeans gives for that k
        again = kmeans(X, 3, seed=0)
        assert np.array_equal(best.labels, again.labels) and best.inertia == again.inertia

    def test_singleton_range(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((30, 2))
        best, table = select_k(X, [2], seed=0)
        assert len(best.centroids) == 2 and len(table) == 1

    def test_empty_range_rejected(self):
        with pytest.raises(ArgumentError):
            select_k(np.zeros((10, 2)), [], seed=0)


class TestAdjustedRand:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        relabeled = np.array([5, 5, 9, 9, 7, 7])
        assert adjusted_rand_index(labels, relabeled) == pytest.approx(1.0)

    def test_random_partitions_near_zero(self):
        rng = np.random.default_rng(19)
        a = rng.integers(0, 3, size=3000)
        b = rng.integers(0, 3, size=3000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_known_value(self):
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 2, 2]
        # classical worked example: ARI = 0.24242...
        assert adjusted_rand_index(a, b) == pytest.approx(0.242424, abs=1e-6)
