import numpy as np
import pytest
from scipy.stats import kstest

from statforge.mcmc import McmcConfig, batch_means_se, metropolis_accept, metropolis_run
from statforge.models import (
    NLAR1_PRIOR,
    PriorSpec,
    draw_bare_noise,
    log_likelihood,
    simulate_dynamo,
    simulate_nlar1,
    stream,
)


class TestAcceptRule:
    def test_always_accepts_uphill(self):
        assert metropolis_accept(0.5, 0.999999)
        assert metropolis_accept(np.inf, 0.5)

    def test_rejects_impossible(self):
        assert not metropolis_accept(-np.inf, 1e-12)

    def test_three_state_detailed_balance(self):
        # discrete analog sharing the accept/reject code path
        target = np.array([0.2, 0.3, 0.5])
        log_t = np.log(target)
        rng = stream(99, 0)
        n = 10**6
        other = rng.integers(0, 2, size=n)       # pick one of the two others
        uo = rng.random(n)
        state = 0
        counts = np.zeros(3)
        for k in range(n):
            prop = (state + 1 + other[k]) % 3    # symmetric proposal
            if metropolis_accept(log_t[prop] - log_t[state], uo[k]):
                state = prop
            counts[state] += 1
        freq = counts / n
        assert np.all(np.abs(freq - target) < 0.01)


class TestPriorRecovery:
    def test_flat_likelihood_returns_prior(self):
        prior = PriorSpec(("a", "b"), (0.0, -1.0), (2.0, 1.0), x0=0.0)
        cfg = McmcConfig(chain_length=134_000, burn_in_frac=0.25, thin=10, seed=1)
        sample, rate = metropolis_run(lambda theta: 0.0, prior, None, cfg)
        assert sample.m >= 10_000
        for j, (lo, hi) in enumerate(zip(prior.lower, prior.upper)):
            stat = kstest(sample.draws[:, j], "uniform", args=(lo, hi - lo)).statistic
            assert stat < 0.02
        assert np.all(sample.draws >= prior.lower)
        assert np.all(sample.draws <= prior.upper)


class TestConjugateHarness:
    def make_harness(self, seed=5, n=400, alpha=0.8, sigma=0.5):
        rng = stream(seed, 1)
        x = np.empty(n + 1)
        x[0] = 1.0
        for i in range(n):
            x[i + 1] = alpha * x[i] + sigma * rng.standard_normal()
        prev, nxt = x[:-1], x[1:]
        sxx = float(np.dot(prev, prev))
        a_hat = float(np.dot(prev, nxt)) / sxx
        post_sd = sigma / np.sqrt(sxx)

        def loglik(theta):
            a = theta[0]
            r = nxt - a * prev
            return float(-0.5 * np.dot(r, r) / sigma**2)

        return loglik, a_hat, post_sd

    def test_posterior_mean_sd_within_two_percent(self):
        loglik, a_hat, post_sd = self.make_harness()
        prior = PriorSpec(("alpha",), (a_hat - 30 * post_sd,),
                          (a_hat + 30 * post_sd,), x0=0.0)
        cfg = McmcConfig(chain_length=200_000, seed=3)
        sample, rate = metropolis_run(loglik, prior, None, cfg)
        mean = sample.draws[:, 0].mean()
        sd = sample.draws[:, 0].std(ddof=1)
        assert abs(mean - a_hat) < 0.02 * abs(a_hat)
        assert abs(sd - post_sd) < 0.02 * post_sd


class TestBenchmarkModels:
    def test_nlar1_chain_behaviour(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 100, 31))
        cfg = McmcConfig(chain_length=30_000, seed=4)
        sample, rate = metropolis_run("nlar1", None, obs, cfg)
        assert 0.1 <= rate <= 0.5
        assert np.all(sample.draws >= NLAR1_PRIOR.lower)
        assert np.all(sample.draws <= NLAR1_PRIOR.upper)

    def test_dynamo_chain_behaviour(self):
        obs = simulate_dynamo((1.11, 0.15, 0.08), draw_bare_noise("dynamo", 100, 32))
        cfg = McmcConfig(chain_length=30_000, seed=6)
        sample, rate = metropolis_run("dynamo", None, obs, cfg)
        assert 0.1 <= rate <= 0.5
        assert sample.m > 1000

    def test_two_seeds_agree(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 100, 33))
        cfg_a = McmcConfig(chain_length=60_000, seed=7)
        cfg_b = McmcConfig(chain_length=60_000, seed=8)
        a, _ = metropolis_run("nlar1", None, obs, cfg_a)
        b, _ = metropolis_run("nlar1", None, obs, cfg_b)
        se = np.sqrt(batch_means_se(a.draws) ** 2 + batch_means_se(b.draws) ** 2)
        diff = np.abs(a.draws.mean(axis=0) - b.draws.mean(axis=0))
        assert np.all(diff < 3 * se)

    def test_model_id_matches_per_call_likelihood(self):
        # the chain built on the precomputed likelihood must be bit-identical
        # to one that evaluates the likelihood afresh at every step
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 100, 34))
        cfg = McmcConfig(chain_length=4000, seed=9)
        a, rate_a = metropolis_run("nlar1", None, obs, cfg)
        b, rate_b = metropolis_run(lambda th: log_likelihood(obs, th, "nlar1"),
                                   NLAR1_PRIOR, None, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert rate_a == rate_b
        assert a.manifest["frozen_log_factor"] == b.manifest["frozen_log_factor"]


class TestConfig:
    def test_invalid_burn_in(self):
        with pytest.raises(ValueError):
            McmcConfig(burn_in_frac=1.0)

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            McmcConfig(proposal_scales=np.array([0.0, 1.0]))
