import numpy as np
import pytest
from scipy.stats import kstest

from statforge.errors import DegenerateLikelihoodError, StatforgeError
from statforge import mcmc
from statforge.mcmc import (
    START_TRIES,
    McmcConfig,
    convergence,
    metropolis_accept,
    metropolis_run,
)
from statforge.models import (
    NLAR1_PRIOR,
    PriorSpec,
    draw_bare_noise,
    log_likelihood,
    simulate_dynamo,
    simulate_nlar1,
    stream,
)


def mc_standard_error(sample):
    """Monte-Carlo standard error sd / sqrt(bulk ESS) of each posterior mean;
    the draws are stored chain after chain."""
    chains = sample.draws.reshape(mcmc.CHAINS, -1, sample.draws.shape[1])
    _, ess = convergence(chains)
    return sample.draws.std(axis=0, ddof=1) / np.sqrt(ess)


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


class TestStartingPoint:
    PRIOR = PriorSpec(("a", "b"), (0.0, -1.0), (2.0, 1.0), x0=0.0)

    def test_no_finite_likelihood_raises(self):
        cfg = McmcConfig(chain_length=96, seed=1)
        with pytest.raises(DegenerateLikelihoodError, match="finite likelihood") as info:
            metropolis_run(lambda theta: -np.inf, self.PRIOR, None, cfg)
        assert isinstance(info.value, StatforgeError)

    def test_every_chain_needs_a_start(self):
        # the first chain starts at once; the second finds nothing in 1001 draws
        calls = []

        def loglik(theta):
            calls.append(theta)
            return 0.0 if len(calls) == 1 else -np.inf

        with pytest.raises(DegenerateLikelihoodError, match="1001 prior draws"):
            metropolis_run(loglik, self.PRIOR, None, McmcConfig(chain_length=96, seed=1))
        assert len(calls) == 1 + START_TRIES == 1002


class SpyGenerator:
    """A generator that keeps every Gaussian step it hands out."""

    def __init__(self, gen):
        self.gen, self.steps = gen, []

    def standard_normal(self, size):
        z = self.gen.standard_normal(size)
        self.steps.append(z)
        return z

    def random(self, size):
        return self.gen.random(size)


class TestSameWork:
    """K chains as rows do the work of ``chain_length`` single proposals.

    The likelihood is flat on a >= 1 and -inf below it, and adaptation is
    off, so every in-box proposal with a >= 1 is accepted and a loop over
    the recorded steps replays the chains exactly."""

    PRIOR = PriorSpec(("a", "b"), (0.0, -1.0), (2.0, 1.0), x0=0.0)
    SCALES = np.array([0.5, 0.3])

    def run(self, monkeypatch, chains, **kw):
        monkeypatch.setattr(mcmc, "CHAINS", chains)
        cfg = McmcConfig(proposal_scales=self.SCALES, adapt_interval=10**9, seed=4, **kw)
        spy = SpyGenerator(stream(cfg.seed, 0xBEEF))
        monkeypatch.setattr(mcmc, "stream", lambda *path: spy)
        calls = []      # (Gaussian steps drawn so far, theta)

        def loglik(theta):
            calls.append((len(spy.steps), np.array(theta)))
            return 0.0 if theta[0] >= 1.0 else -np.inf

        sample, rate = metropolis_run(loglik, self.PRIOR, None, cfg)
        return cfg, spy.steps, calls, sample

    def replay(self, cfg, steps, starts):
        theta, inbox_total, path = starts.copy(), 0, []
        for z in steps:
            prop = theta + z * self.SCALES
            inbox = np.all((prop >= self.PRIOR.lower) & (prop <= self.PRIOR.upper), axis=1)
            inbox_total += int(inbox.sum())
            accept = inbox & (prop[:, 0] >= 1.0)
            theta[accept] = prop[accept]
            path.append(theta.copy())
        return inbox_total, np.array(path)

    @pytest.mark.parametrize("chains,chain_length,burn_in_frac,thin",
                             [(8, 4000, 0.25, 10), (3, 999, 0.3, 7), (1, 500, 0.0, 1)])
    def test_counts_and_order(self, monkeypatch, chains, chain_length, burn_in_frac, thin):
        cfg, steps, calls, sample = self.run(
            monkeypatch, chains=chains, chain_length=chain_length,
            burn_in_frac=burn_in_frac, thin=thin)
        # total proposals: one (K, p) Gaussian step per iteration
        assert all(z.shape == (chains, 2) for z in steps)
        assert sum(z.shape[0] for z in steps) == chain_length
        start_tries = [theta for n, theta in calls if n == 0]
        starts = np.array([theta for theta in start_tries if theta[0] >= 1.0])
        assert len(starts) == chains and len(start_tries) >= chains
        inbox_total, path = self.replay(cfg, steps, starts)
        assert len(calls) == inbox_total + len(start_tries)
        assert inbox_total < chain_length          # some proposals left the box
        # kept draws: chains x ceil((steps - burn) / thin), chain by chain
        per_chain = chain_length // chains
        burn = int(per_chain * burn_in_frac)
        n_keep = -(-(per_chain - burn) // thin)
        assert sample.m == chains * n_keep
        want = path[burn::thin].transpose(1, 0, 2).reshape(-1, 2)
        assert sample.draws.tobytes() == want.tobytes()
        assert len(sample.manifest["chain_acceptance"]) == chains
        assert sample.manifest["steps_per_chain"] == per_chain

    def test_length_not_divisible_by_chains(self):
        with pytest.raises(ValueError, match="multiple of the 8 chains"):
            McmcConfig(chain_length=1001)
        for bad in (0, -8):
            with pytest.raises(ValueError):
                McmcConfig(chain_length=bad)

    def test_one_chain_runs(self, monkeypatch):
        monkeypatch.setattr(mcmc, "CHAINS", 1)
        cfg = McmcConfig(chain_length=2000, seed=2)
        sample, rate = metropolis_run(lambda theta: 0.0, self.PRIOR, None, cfg)
        assert sample.m == 150 and 0.0 < rate < 1.0
        assert sample.manifest["steps_per_chain"] == 2000


class TestConvergence:
    def test_iid_chains(self):
        rng = stream(11, 0)
        for _ in range(3):
            draws = rng.standard_normal((8, 1000, 2))
            rhat, ess = convergence(draws)
            assert np.all(rhat < 1.01)
            assert np.all(np.abs(ess / 8000 - 1.0) < 0.15)

    def test_autocorrelated_chains(self):
        # AR(1) with phi = 0.8: ESS is about S (1 - phi) / (1 + phi)
        rng = stream(12, 0)
        x = np.zeros((8, 2000))
        noise = rng.standard_normal((8, 2000))
        for t in range(1, 2000):
            x[:, t] = 0.8 * x[:, t - 1] + noise[:, t]
        rhat, ess = convergence(x[:, :, None])
        assert rhat[0] < 1.02
        assert abs(ess[0] / (16000 * 0.2 / 1.8) - 1.0) < 0.25

    def test_shifted_chains(self):
        draws = stream(13, 0).standard_normal((8, 1000, 1))
        draws[:4] += 1.0
        rhat, _ = convergence(draws)
        assert rhat[0] > 1.1

    def test_different_spread_is_seen(self):
        # equal means, one chain four times wider: the folded R-hat sees it
        draws = stream(14, 0).standard_normal((4, 1000, 1))
        draws[0] *= 4.0
        assert convergence(draws)[0][0] > 1.01

    def test_constant_chain_gives_no_nan(self):
        draws = stream(15, 0).standard_normal((4, 500, 2))
        draws[:, :, 0] = 0.3          # one parameter never moves
        draws[2, :, 1] = 0.1          # and one chain of the other is stuck
        rhat, ess = convergence(draws)
        assert np.all(np.isfinite(rhat)) and np.all(np.isfinite(ess))
        assert rhat[0] == 1.0 and ess[0] == 2000
        assert rhat[1] > 1.01

    def test_too_few_draws(self):
        rhat, ess = convergence(np.zeros((8, 3, 2)))
        assert np.all(np.isnan(rhat)) and np.all(np.isnan(ess))

    def test_manifest_and_warning(self):
        # two narrow modes the proposals cannot cross: chains stick to
        # their starting mode and R-hat says so
        prior = PriorSpec(("a",), (0.0,), (10.0,), x0=0.0)

        def loglik(theta):
            return float(-0.5 * min((theta[0] - 2.0) ** 2, (theta[0] - 8.0) ** 2) / 0.01)

        cfg = McmcConfig(chain_length=16_000, proposal_scales=np.array([0.05]), seed=3)
        with pytest.warns(RuntimeWarning, match="R-hat"):
            sample, _ = metropolis_run(loglik, prior, None, cfg)
        man = sample.manifest
        assert man["rhat"][0] > 1.1
        assert len(man["ess_bulk"]) == 1 and len(man["chain_acceptance"]) == 8
        assert man["chains"] == 8 and man["steps_per_chain"] == 2000


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
        se = np.sqrt(mc_standard_error(a) ** 2 + mc_standard_error(b) ** 2)
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
