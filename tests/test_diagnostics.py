import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from statforge.diagnostics import (
    attractor_threshold,
    auc_score,
    distance_histograms,
    distance_quantiles,
    histograms_to_csv,
    latent_scatter,
    latent_scatter_csv,
    marginal_wasserstein,
    pearson,
    regression_scatter,
    regression_scatter_csv,
    wasserstein_1d,
)
from statforge.encoder import init_encoder
from statforge.models import NLAR1_PRIOR
from statforge.samples import SampleSet, sample_set_from_csv, sample_set_to_csv


class TestWasserstein:
    def test_identical_samples_zero(self):
        x = np.random.default_rng(0).random(500)
        assert wasserstein_1d(x, x.copy()) == 0.0

    def test_point_masses(self):
        assert wasserstein_1d([2.0] * 10, [5.5] * 7) == pytest.approx(3.5)

    def test_shifted_uniforms(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.0, 1.0, 10**5)
        b = rng.uniform(0.5, 1.5, 10**5)
        assert abs(wasserstein_1d(a, b) - 0.5) < 0.01

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal(rng.integers(50, 400))
            b = rng.standard_normal(rng.integers(50, 400)) * 2 + 0.3
            assert wasserstein_1d(a, b) == pytest.approx(
                wasserstein_distance(a, b), rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal(60)
            b = rng.standard_normal(80) + rng.uniform(-1, 1)
            c = rng.standard_normal(40) * rng.uniform(0.5, 2)
            dab = wasserstein_1d(a, b)
            assert dab == pytest.approx(wasserstein_1d(b, a), rel=1e-12)
            assert dab <= wasserstein_1d(a, c) + wasserstein_1d(c, b) + 1e-12

    def test_marginal_vector_and_normalization(self):
        a = SampleSet(draws=np.random.default_rng(4).random((200, 2)),
                      method="x", param_names=("alpha", "sigma"))
        assert np.all(marginal_wasserstein(a, a) == 0.0)
        raw, normed = marginal_wasserstein(a, a, prior=NLAR1_PRIOR)
        assert np.all(normed == 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            wasserstein_1d([], [1.0])


class TestDistanceQuantiles:
    def test_constant(self):
        rec = np.full((50, 2), 3.25)
        assert np.all(distance_quantiles(rec) == 3.25)

    def test_nearest_rank_1_to_100(self):
        rec = np.arange(1.0, 101.0)[:, None]
        assert distance_quantiles(rec, 0.99)[0] == 99.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        comp = rng.random((777, 3))
        got = distance_quantiles(comp, 0.97, n_regressors=3)
        for j in range(3):
            s = np.sort(comp[:, j])
            assert got[j] == s[int(np.ceil(0.97 * 777)) - 1]

    def test_monotone_in_quantile(self):
        rec = np.random.default_rng(6).random((300, 2))
        qs = [distance_quantiles(rec, q)[0] for q in (0.5, 0.9, 0.99, 1.0)]
        assert np.all(np.diff(qs) >= 0)

    def test_regressor_restriction(self):
        rec = np.random.default_rng(7).random((100, 5))
        assert distance_quantiles(rec, 0.99, n_regressors=2).shape == (2,)


class TestDistanceHistograms:
    def test_single_value_one_bin(self):
        (tab,) = distance_histograms(np.full((20, 1), 0.7), bins=10)
        assert tab["counts"].sum() == 20
        assert (tab["counts"] > 0).sum() == 1

    def test_counts_sum_to_particles(self):
        comp = np.random.default_rng(8).random((512, 3))
        for tab in distance_histograms(comp, bins=13):
            assert tab["counts"].sum() == 512

    def test_matches_double_loop(self):
        comp = np.random.default_rng(9).random((97, 2))
        tables = distance_histograms(comp, bins=7)
        for j, tab in enumerate(tables):
            edges = tab["edges"]
            naive = np.zeros(7, dtype=int)
            for v in comp[:, j]:
                for b in range(7):
                    hi_edge = edges[b + 1]
                    if edges[b] <= v < hi_edge or (b == 6 and v == hi_edge):
                        naive[b] += 1
                        break
            assert np.array_equal(naive, tab["counts"])

    def test_csv_emission(self):
        comp = np.random.default_rng(10).random((50, 2))
        text = histograms_to_csv(distance_histograms(comp, bins=5))
        lines = text.strip().split("\n")
        assert lines[0] == "component,bin_lo,bin_hi,count"
        assert len(lines) == 1 + 2 * 5


class TestPearsonAuc:
    def test_pearson_perfect(self):
        x = np.linspace(0, 1, 50)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_pearson_matches_formula(self):
        rng = np.random.default_rng(11)
        a, b = rng.random(200), rng.random(200)
        am, bm = a - a.mean(), b - b.mean()
        expected = (am * bm).sum() / np.sqrt((am**2).sum() * (bm**2).sum())
        assert abs(pearson(a, b) - expected) < 1e-12

    def test_auc_separable(self):
        scores = np.concatenate([np.zeros(40), np.ones(60)])
        labels = scores > 0.5
        assert auc_score(scores, labels) == 1.0
        assert auc_score(-scores, labels) == 0.0

    def test_auc_random_is_half(self):
        rng = np.random.default_rng(12)
        scores = rng.random(4000)
        labels = rng.random(4000) > 0.5
        assert abs(auc_score(scores, labels) - 0.5) < 0.03

    def test_auc_with_ties_matches_pairwise_count(self):
        rng = np.random.default_rng(14)
        scores = rng.integers(0, 5, 300).astype(float)  # many ties
        labels = rng.random(300) > 0.4
        pos, neg = scores[labels], scores[~labels]
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
        assert auc_score(scores, labels) == pytest.approx(wins / (pos.size * neg.size),
                                                          rel=1e-12)


class TestScatterTables:
    def test_regression_scatter_synthetic_perfect(self):
        # an encoder that returns theta exactly would give r = 1; emulate by
        # checking the pearson column against suffstats on simulated data
        weights = init_encoder(3, np.random.default_rng(0)).arrays()
        table = regression_scatter(weights, "nlar1", m=64, seed=1, n_steps=50)
        assert table["theta"].shape == (64, 2)
        assert table["stats"].shape == (64, 3)
        assert table["suffstats"].shape == (64, 3)
        assert len(table["pearson"]) == 2
        text = regression_scatter_csv(table)
        header = text.split("\n", 1)[0].split(",")
        assert header == ["theta_alpha", "theta_sigma", "s1", "s2", "s3",
                          "alpha_hat", "sigma2_hat", "order"]

    def test_suffstats_column_exact_for_noiseless(self):
        from statforge.suffstats import stats_batch
        from statforge.models import simulate_batch
        x = simulate_batch("nlar1", np.array([[5.0, 0.0]]), np.zeros((1, 50, 1)),
                           x0=0.6)
        alpha_hat = stats_batch(x, 0.6)[0, 0]
        assert alpha_hat == pytest.approx(5.0, rel=1e-12)

    def test_attractor_threshold_bimodal(self):
        o = np.concatenate([np.full(40, 1e-6), np.full(60, 0.03)])
        tau = attractor_threshold(o)
        assert tau is not None and 1e-6 < tau < 0.03

    def test_attractor_threshold_unimodal(self):
        o = np.linspace(0.01, 0.02, 500)  # no gap
        assert attractor_threshold(o) is None

    def test_latent_scatter_labels_both_classes(self):
        weights = init_encoder(3, np.random.default_rng(1)).arrays()
        table = latent_scatter(regression_scatter(weights, "nlar1", m=200, seed=3,
                                                  n_steps=200),
                               "nlar1", seed=3, n_steps=200, pilot=300)
        assert table["tau"] is not None
        labels = table["labels"]
        assert labels is not None
        assert 0 < labels.sum() < 200  # both attractor classes occur
        text = latent_scatter_csv(table)
        assert text.split("\n", 1)[0] == "s1,s2,s3,order,label"

    def test_latent_scatter_rejects_dynamo(self):
        weights = init_encoder(3, np.random.default_rng(1)).arrays()
        with pytest.raises(ValueError):
            latent_scatter(regression_scatter(weights, "dynamo", m=10), "dynamo")


class TestSampleSetCsv:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(13)
        ss = SampleSet(draws=rng.standard_normal((40, 2)), method="sabc",
                       param_names=("alpha", "sigma"),
                       distances=rng.random(40),
                       component_distances=rng.random((40, 3)))
        back = sample_set_from_csv(sample_set_to_csv(ss))
        assert np.array_equal(back.draws, ss.draws)
        assert np.array_equal(back.distances, ss.distances)
        assert np.array_equal(back.component_distances, ss.component_distances)
        assert back.param_names == ("alpha", "sigma")

    def test_roundtrip_without_distances(self):
        ss = SampleSet(draws=np.random.default_rng(14).random((10, 3)),
                       method="metropolis", param_names=("a", "d", "e"))
        back = sample_set_from_csv(sample_set_to_csv(ss))
        assert np.array_equal(back.draws, ss.draws)
        assert back.distances is None
