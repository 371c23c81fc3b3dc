import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import studentized_range

from akisub.cohort import CohortConfig, EventSeries, generate_cohort
from akisub.errors import ArgumentError, DataError, NumericalRankError
from akisub.kdigo import apply_exclusions, egfr_mdrd
from akisub import stats
from akisub.stats import (CONTINUOUS_REPORT_VARS, DISCRETE_REPORT_VARS,
                          ancova_adjust, build_subtype_report, chi2_sf,
                          chi_square_test, f_sf, kruskal_wallis, normality_route,
                          one_way_anova, q_critical, stage_composition, tukey_hsd)


class TestChiSquare:
    def test_proportional_table_independent(self):
        result = chi_square_test([[10, 20], [10, 20]])
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_computed_statistic_and_p(self):
        result = chi_square_test([[10, 20], [20, 10]])
        assert result.statistic == pytest.approx(20.0 / 3.0)
        assert result.dof == 1
        assert result.p_value == pytest.approx(0.0098, abs=2e-4)

    def test_dof_formula(self):
        assert chi_square_test([[5, 6], [7, 8], [9, 10]]).dof == 2

    def test_zero_marginal_rejected(self):
        with pytest.raises(ArgumentError):
            chi_square_test([[0, 0], [5, 5]])

    def test_row_and_column_permutation_invariance(self):
        rng = np.random.default_rng(0)
        table = rng.integers(5, 40, size=(3, 4)).astype(float)
        base = chi_square_test(table).statistic
        perm = table[np.random.default_rng(1).permutation(3)][:,
                     np.random.default_rng(2).permutation(4)]
        assert chi_square_test(perm).statistic == pytest.approx(base)


class TestAnova:
    def test_identical_groups(self):
        result = one_way_anova([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_computed_f(self):
        result = one_way_anova([[1.0, 2.0, 3.0], [101.0, 102.0, 103.0]])
        assert result.statistic == pytest.approx(15000.0)
        assert result.p_value < 1e-6

    def test_all_constant_equal_means(self):
        result = one_way_anova([[5.0, 5.0], [5.0, 5.0]])
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_constant_groups_different_means(self):
        result = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert result.p_value == 0.0

    def test_p_matches_permutation_oracle(self):
        from oracles import permutation_anova_p
        rng = np.random.default_rng(3)
        groups = [rng.normal(0.0, 1.0, 10), rng.normal(0.9, 1.0, 10),
                  rng.normal(0.4, 1.0, 10)]
        p = one_way_anova(groups).p_value
        p_mc = permutation_anova_p(groups, draws=100_000, seed=0)
        assert abs(p - p_mc) < 3e-3  # permutation vs normal-theory tail


class TestKruskal:
    def test_hand_rank_computation(self):
        result = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert result.statistic == pytest.approx(7.2)
        assert result.dof == 2
        assert result.p_value == pytest.approx(np.exp(-3.6), rel=1e-12)

    def test_identical_value_everywhere(self):
        result = kruskal_wallis([[3.0, 3.0], [3.0, 3.0, 3.0]])
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(4)
        groups = [rng.normal(size=40) for _ in range(3)]
        assert kruskal_wallis(groups).p_value > 0.05

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        groups = [rng.normal(size=8), rng.normal(1.0, 1.0, size=9),
                  rng.normal(0.5, 2.0, size=7)]
        base = kruskal_wallis(groups)
        transformed = [np.exp(g) for g in groups]  # strictly monotone
        after = kruskal_wallis(transformed)
        assert after.statistic == pytest.approx(base.statistic)
        assert after.p_value == pytest.approx(base.p_value)

    def test_tie_correction_matches_scipy(self):
        from scipy.stats import kruskal
        rng = np.random.default_rng(6)
        groups = [np.round(rng.normal(size=12), 1) for _ in range(3)]  # force ties
        ours = kruskal_wallis(groups)
        ref = kruskal(*groups)
        assert ours.statistic == pytest.approx(ref.statistic)
        assert ours.p_value == pytest.approx(ref.pvalue)


class TestTukey:
    def test_identical_groups_not_significant(self):
        pairs = tukey_hsd([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert pairs == [(0, 1, False)]

    def test_far_outlier_group(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 1.0, 12)
        b = rng.normal(0.3, 1.0, 12)
        c = rng.normal(25.0, 1.0, 12)
        pairs = dict(((i, j), sig) for i, j, sig in tukey_hsd([a, b, c]))
        assert pairs[(0, 2)] and pairs[(1, 2)]
        assert not pairs[(0, 1)]

    def test_pair_count(self):
        rng = np.random.default_rng(8)
        groups = [rng.normal(size=5) for _ in range(5)]
        assert len(tukey_hsd(groups)) == 5 * 4 // 2

    def test_significant_pairs_have_nonzero_difference(self):
        rng = np.random.default_rng(9)
        groups = [rng.normal(loc, 1.0, 10) for loc in (0.0, 0.0, 2.0)]
        for i, j, sig in tukey_hsd(groups):
            if sig:
                assert abs(np.mean(groups[i]) - np.mean(groups[j])) > 0

    def test_small_group_rejected(self):
        with pytest.raises(ArgumentError):
            tukey_hsd([[1.0], [2.0, 3.0]])

    def test_critical_values_match_scipy_table(self):
        for k in (2, 3, 5, 10):
            for dof in (5, 20, 60, 120):
                ours = q_critical(k, dof)
                ref = studentized_range.ppf(0.95, k, dof)
                assert ours == pytest.approx(ref, abs=2e-4)

    def test_interpolation_between_rows_and_beyond(self):
        mid = q_critical(3, 22)  # between the 20 and 24 rows
        assert q_critical(3, 24) < mid < q_critical(3, 20)
        ref = studentized_range.ppf(0.95, 3, 22)
        assert mid == pytest.approx(ref, abs=5e-3)
        big = q_critical(3, 5000)
        assert q_critical(3, 120) > big > 3.3145 - 1e-9
        assert big == pytest.approx(studentized_range.ppf(0.95, 3, 5000), abs=5e-3)


class TestAncova:
    def test_uncorrelated_covariate_keeps_anova_p(self):
        rng = np.random.default_rng(10)
        groups = [rng.normal(0.0, 1.0, 30), rng.normal(0.8, 1.0, 30)]
        values = np.concatenate(groups)
        labels = np.array([0] * 30 + [1] * 30)
        ages = rng.uniform(40, 80, 60)  # independent of everything
        adjusted = ancova_adjust(values, labels, ages)
        unadjusted = one_way_anova(groups).p_value
        assert abs(adjusted - unadjusted) < 0.05

    def test_confounder_fully_explained_by_age(self):
        rng = np.random.default_rng(11)
        ages = np.concatenate([rng.uniform(40, 60, 40), rng.uniform(60, 80, 40)])
        labels = np.array([0] * 40 + [1] * 40)
        values = 2.0 * ages + rng.normal(0, 1.0, 80)
        unadjusted = one_way_anova([values[:40], values[40:]]).p_value
        adjusted = ancova_adjust(values, labels, ages)
        assert unadjusted < 0.01
        assert adjusted > 0.1

    def test_shuffled_labels_give_uniformish_p(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=60)
        ages = rng.uniform(40, 80, 60)
        ps = []
        for _ in range(100):
            labels = rng.permutation([0] * 30 + [1] * 30)
            ps.append(ancova_adjust(values, labels, ages))
        assert 0.25 <= np.median(ps) <= 0.75

    def test_p_matches_nested_f_monte_carlo(self):
        from oracles import mc_nested_f_p
        rng = np.random.default_rng(13)
        n = 30
        ages = rng.uniform(40, 80, n)
        labels = np.array([0, 1, 2] * 10)
        values = 0.05 * ages + (labels == 2) * 1.6 + rng.normal(0, 1, n)
        p = ancova_adjust(values, labels, ages)
        reduced = np.column_stack([np.ones(n), ages])
        full = np.column_stack([reduced, (labels == 1).astype(float),
                                (labels == 2).astype(float)])
        from akisub.stats import _rss
        rss_r, rss_f = _rss(reduced, values), _rss(full, values)
        f = ((rss_r - rss_f) / 2) / (rss_f / (n - 4))
        p_mc = mc_nested_f_p(f, reduced, full, draws=100_000, seed=1)
        assert abs(p - p_mc) < 1.5e-3

    def test_constant_covariate_rejected(self):
        with pytest.raises(ArgumentError):
            ancova_adjust([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1], [5.0, 5.0, 5.0, 5.0])

    def test_collinear_design_rejected(self):
        # covariate IS the group indicator -> full design rank-deficient
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        labels = [0, 0, 0, 1, 1, 1]
        covariate = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        with pytest.raises(NumericalRankError):
            ancova_adjust(values, labels, covariate)


class TestCdfOracles:
    def test_chi2_sf_against_monte_carlo(self):
        from oracles import mc_chi2_sf
        for x, dof, seed in [(6.0, 1, 0), (7.8, 3, 1), (15.0, 5, 2),
                             (3.5, 2, 3), (11.0, 4, 4)]:
            assert abs(chi2_sf(x, dof) - mc_chi2_sf(x, dof, seed=seed)) < 1e-3

    def test_f_sf_against_monte_carlo(self):
        from oracles import mc_f_sf
        for x, d1, d2, seed in [(5.0, 2, 20, 0), (4.0, 3, 12, 1), (8.0, 1, 30, 2),
                                (3.2, 4, 40, 3), (6.5, 2, 10, 4)]:
            assert abs(f_sf(x, d1, d2) - mc_f_sf(x, d1, d2, seed=seed)) < 2e-3


class TestNormalityRoute:
    def test_normal_sample_parametric(self):
        rng = np.random.default_rng(14)
        assert normality_route(rng.normal(size=500)) == "parametric"

    def test_lognormal_nonparametric(self):
        rng = np.random.default_rng(15)
        assert normality_route(np.exp(rng.normal(0, 1.0, size=500))) == "nonparametric"

    def test_constant_and_tiny_samples(self):
        assert normality_route(np.full(50, 3.3)) == "nonparametric"
        assert normality_route([1.0, 2.0, 3.0]) == "nonparametric"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_p_value_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    groups = [rng.normal(rng.uniform(-1, 1), 1.0, size=rng.integers(3, 12))
              for _ in range(rng.integers(2, 5))]
    for result in (one_way_anova(groups), kruskal_wallis(groups)):
        assert 0.0 <= result.p_value <= 1.0
    table = rng.integers(1, 30, size=(2, 3)).astype(float)
    assert 0.0 <= chi_square_test(table).p_value <= 1.0


# ---------------------------------------------------------------------------
# report and stage composition
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted():
    stays = generate_cohort(CohortConfig(n_stays=700, case_fraction=0.55, seed=31))
    kept, _ = apply_exclusions(stays, 24)
    cases = [(s, l) for s, l in kept if l.is_case and s.planted_subtype is not None]
    case_stays = [s for s, _ in cases]
    labels = [l for _, l in cases]
    clusters = np.array([s.planted_subtype - 1 for s in case_stays])
    return case_stays, labels, clusters


def test_first_day_mean_matches_tuple_reference():
    from oracles import first_day_mean_reference
    stays = generate_cohort(CohortConfig(n_stays=40, case_fraction=0.5, seed=12))
    stays[0].lab_series["creatinine"] = EventSeries(
        "creatinine", [(0.0, 1.0), (12.5, -0.5), (24.0, 1.25), (24.5, 2.0)])
    stays[1].lab_series["bun"] = EventSeries("bun", [(25.0, 17.0)])
    for stay in stays:
        for var in ("egfr", "creatinine", "bun", "glucose", "urine_rate"):
            got = stats._first_day_mean(stay, var)
            want = first_day_mean_reference(stay, var, egfr_mdrd)
            assert (got is None and want is None) or got == want, (stay.stay_id, var)
    assert stats._first_day_mean(stays[1], "bun") is None


class TestSubtypeReport:
    def test_planted_cohort_renal_rows_significant(self, planted):
        case_stays, _, clusters = planted
        report = build_subtype_report(case_stays, clusters)
        blocks = {b.name: b for b in report.blocks}
        for var in ("creatinine", "egfr"):
            assert blocks[var].unadjusted_p < 0.001
            assert blocks[var].adjusted_p < 0.001
            assert blocks[var].significant_pairs

    def test_row_set_matches_vocabulary(self, planted):
        case_stays, _, clusters = planted
        report = build_subtype_report(case_stays, clusters)
        names = [b.name for b in report.blocks]
        assert names == list(CONTINUOUS_REPORT_VARS) + list(DISCRETE_REPORT_VARS)
        assert sum(report.cluster_sizes) == len(case_stays)

    def test_age_block_has_no_adjusted_p(self, planted):
        case_stays, _, clusters = planted
        report = build_subtype_report(case_stays, clusters)
        age = next(b for b in report.blocks if b.name == "age")
        assert age.adjusted_p is None
        assert age.unadjusted_p is not None

    def test_single_cluster_guard(self, planted):
        case_stays, _, _ = planted
        report = build_subtype_report(case_stays[:40], np.zeros(40, dtype=int))
        assert all(b.unadjusted_p is None for b in report.blocks)
        assert report.cluster_sizes == [40]

    def test_exports_written(self, planted, tmp_path):
        case_stays, _, clusters = planted
        report = build_subtype_report(case_stays, clusters)
        stats.write_report_csv(report, tmp_path / "report.csv")
        stats.write_report_text(report, tmp_path / "report.txt")
        stats.write_heatmap_matrix(report, tmp_path / "heat.csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].startswith("variable,category,cluster_0")
        heat = (tmp_path / "heat.csv").read_text().splitlines()
        assert any(row.startswith("creatinine") for row in heat)

    def test_heatmap_rows_are_z_scored_cluster_means(self, planted, tmp_path):
        from oracles import first_day_mean_reference
        case_stays, _, clusters = planted
        report = build_subtype_report(case_stays, clusters)
        stats.write_heatmap_matrix(report, tmp_path / "heat.csv")
        header, *rows = (tmp_path / "heat.csv").read_text().splitlines()
        assert header == "variable,cluster_0,cluster_1,cluster_2"
        significant = [b.name for b in report.blocks if b.kind == "continuous"
                       and b.unadjusted_p is not None and b.unadjusted_p < 0.05]
        assert "creatinine" in significant
        assert [row.split(",")[0] for row in rows] == significant
        for row in rows:
            var, *cells = row.split(",")
            means = []
            for c in range(3):
                day1 = [float(s.age) if var == "age"
                        else first_day_mean_reference(s, var, egfr_mdrd)
                        for s, l in zip(case_stays, clusters) if l == c]
                means.append(np.mean([v for v in day1 if v is not None]))
            means = np.array(means)
            z = (means - means.mean()) / means.std()
            assert [float(x) for x in cells] == pytest.approx(z, abs=5.1e-5), var

    def test_empty_cluster_rejected(self, planted):
        case_stays, _, _ = planted
        clusters = np.zeros(len(case_stays), dtype=int)
        clusters[0] = 5  # cluster ids 1..4 absent -> ok; all present must be non-empty
        report = build_subtype_report(case_stays, clusters)
        assert report.cluster_sizes[1] == 1


class TestStageComposition:
    def test_planted_modal_stages(self, planted):
        case_stays, labels, clusters = planted
        counts, pct = stage_composition(clusters, labels)
        modal = counts.argmax(axis=1) + 1
        # archetypes 1, 2, 3 (= clusters 0, 1, 2) plant stages 1, 3, 2
        assert list(modal) == [1, 3, 2]
        assert np.allclose(pct.sum(axis=1), 100.0, atol=0.01)
        assert counts.sum() == len(case_stays)

    def test_single_cluster_row_sums(self, planted):
        case_stays, labels, _ = planted
        counts, pct = stage_composition(np.zeros(len(labels), dtype=int), labels)
        assert counts.shape == (1, 3)
        assert counts.sum() == len(labels)
        assert pct.sum() == pytest.approx(100.0)

    def test_unstaged_case_rejected(self, planted):
        _, labels, clusters = planted
        from akisub.kdigo import AkiLabel
        bad = labels[:3] + [AkiLabel(is_case=True, onset_offset_hours=30.0, stage=None)]
        with pytest.raises(DataError):
            stage_composition(np.zeros(4, dtype=int), bad)
