import numpy as np
import pytest

from conftest import quadratic_peak_max

from statforge.errors import UndefinedStatisticError
from statforge.models import (
    NLAR1_PRIOR,
    BareNoise,
    Trajectory,
    draw_bare_noise,
    f_nlar1,
    log_likelihood,
    sample_prior,
    simulate_nlar1,
)
from statforge.suffstats import stats_to_csv, suff_stats


def make_traj(theta, seed, n=200, x0=0.25):
    return simulate_nlar1(theta, draw_bare_noise("nlar1", n, seed), x0=x0)


class TestMleAlpha:
    def test_noiseless_recovery_exact(self):
        for alpha in (4.3, 5.0, 5.72):
            noise = BareNoise(channels=np.zeros((100, 1)), seed=0)
            traj = simulate_nlar1((alpha, 0.0), noise, x0=0.6)
            assert abs(suff_stats(traj).alpha_hat - alpha) / alpha < 1e-12

    def test_matches_numeric_mle(self):
        traj = make_traj((5.3, 0.015), seed=21)
        a_hat = suff_stats(traj).alpha_hat
        best = quadratic_peak_max(
            lambda a: log_likelihood(traj, (a, 0.015), "nlar1"), 4.2, 5.8)
        assert abs(best - a_hat) < 1e-8

    def test_degenerate_denominator(self):
        with pytest.raises(UndefinedStatisticError):
            suff_stats(Trajectory(x=np.zeros(10), x0=0.0))


class TestMleSigma2:
    def test_noiseless_zero(self):
        noise = BareNoise(channels=np.zeros((100, 1)), seed=0)
        traj = simulate_nlar1((5.0, 0.0), noise, x0=0.6)
        assert suff_stats(traj).sigma2_hat < 1e-20

    def test_residual_variance_oracle(self):
        # E[sigma2_hat] ~ sigma^2 (1 - 1/N) after fitting one parameter
        n_traj, n = 1000, 200
        sigma = 0.015
        vals = np.empty(n_traj)
        for k in range(n_traj):
            vals[k] = suff_stats(make_traj((5.3, sigma), seed=1000 + k, n=n)).sigma2_hat
        expected = sigma**2 * (1.0 - 1.0 / n)
        se = vals.std(ddof=1) / np.sqrt(n_traj)
        assert abs(vals.mean() - expected) < 3 * se

    def test_nonnegative(self):
        for seed in range(20):
            assert suff_stats(make_traj((5.0, 0.02), seed=seed, n=50)).sigma2_hat >= 0.0


class TestOrderParam:
    def test_zero_attractor_small(self):
        x = np.random.default_rng(0).uniform(-0.05, 0.05, size=200)
        traj = Trajectory(x=x, x0=0.01)
        assert suff_stats(traj).order < 1e-4

    def test_attractor_separation(self):
        # at the true theta both attractor classes occur; their order values
        # separate by more than a factor 10
        vals, finals = [], []
        for seed in range(60):
            traj = make_traj((5.3, 0.015), seed=3000 + seed)
            vals.append(suff_stats(traj).order)
            finals.append(traj.x[-1])
        vals = np.array(vals)
        low = vals[np.abs(finals) < np.asarray(0.2)]
        high = vals[np.abs(finals) >= np.asarray(0.2)]
        assert low.size > 3 and high.size > 3
        assert high.min() / low.max() > 10.0

    def test_periodic_average_exact(self):
        a, b = 0.68, 0.81
        x = np.array([a, b] * 10)
        traj = Trajectory(x=x, x0=b)
        # regressor sequence is (b, a, b, a, ...): f^2 averages the two points
        expected = 0.5 * (f_nlar1(a) ** 2 + f_nlar1(b) ** 2)
        assert suff_stats(traj).order == pytest.approx(expected, rel=1e-12)


class TestSufficiency:
    def test_likelihood_factorization_identity(self):
        # log p(x|theta) = -N/2 log(2 pi sigma^2) - N/(2 sigma^2) *
        #                  (sigma2_hat + (alpha_hat - alpha)^2 * order)
        rng = np.random.default_rng(7)
        for seed in range(10):
            traj = make_traj((5.3, 0.015), seed=500 + seed)
            st = suff_stats(traj)
            n = traj.n_steps
            for _ in range(20):
                alpha, sigma = sample_prior(NLAR1_PRIOR, rng)
                direct = log_likelihood(traj, (alpha, sigma), "nlar1")
                via_stats = (-0.5 * n * np.log(2 * np.pi * sigma**2)
                             - n / (2 * sigma**2)
                             * (st.sigma2_hat + (st.alpha_hat - alpha) ** 2 * st.order))
                assert abs(direct - via_stats) / abs(direct) < 1e-9

    def test_determinism(self):
        a = suff_stats(make_traj((5.0, 0.01), seed=9))
        b = suff_stats(make_traj((5.0, 0.01), seed=9))
        assert a == b


def reference_stats(traj):
    """The np.dot formulas of the statistics: the oracle for ``suff_stats``."""
    f_prev = f_nlar1(traj.lagged())
    sff = float(np.dot(f_prev, f_prev))
    a_hat = float(np.dot(traj.x, f_prev)) / sff
    r = traj.x - a_hat * f_prev
    return np.array([a_hat, float(np.dot(r, r)) / traj.n_steps, sff / traj.n_steps])


class TestBatchAndExport:
    def test_matches_dot_oracle(self):
        # einsum sums in another order than np.dot, so equality is up to
        # rounding: rtol 1e-12 leaves ~4 decimal digits of float64 headroom
        rng = np.random.default_rng(17)
        for seed in range(40):
            theta = sample_prior(NLAR1_PRIOR, rng)
            traj = make_traj(theta, seed=900 + seed, n=(60, 200)[seed % 2])
            st = suff_stats(traj)
            assert np.allclose(st.as_array(), reference_stats(traj), rtol=1e-12, atol=0.0)

    def test_csv_has_both_scale_columns(self):
        traj = make_traj((5.2, 0.015), seed=3, n=50)
        st = suff_stats(traj)
        text = stats_to_csv([st.as_array()])
        header, row = text.strip().split("\n")
        assert header == "alpha_hat,sigma2_hat,order,sigma_hat"
        vals = [float(v) for v in row.split(",")]
        assert vals[3] == pytest.approx(np.sqrt(vals[1]), rel=1e-15)
