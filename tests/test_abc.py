import functools
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import statforge
from statforge.abcsampler import (
    NOISE_TAG,
    PROPOSAL_TAG,
    AbcConfig,
    Standardizer,
    _model_stat_sim,
    distance,
    fit_standardizer,
    rejection_abc,
    sabc_core,
    sabc_run,
    stats_fn_from_weights,
    stats_fn_subset,
    stats_fn_suffstats,
    standardizer_from_stats,
)
from statforge.diagnostics import wasserstein_1d
from statforge.errors import DegenerateStatisticError
from statforge.models import (
    NLAR1_PRIOR,
    PriorSpec,
    draw_bare_noise,
    model_spec,
    prior_for,
    prior_predictive,
    sample_prior,
    simulate_batch,
    simulate_nlar1,
    stream,
)

HARNESS_TAG = 7

N_Y = 25
SIGMA_Y = 1.0
HARNESS_PRIOR = PriorSpec(("theta",), (0.0,), (10.0,), x0=0.0)


def harness_stat_sim(seed):
    """y = theta + noise, statistic s = mean(y); per-particle streams."""

    def stat_sim(thetas, sweep, particles):
        out = np.empty((thetas.shape[0], 1))
        for i, pid in enumerate(particles):
            g = stream(seed, HARNESS_TAG, sweep, int(pid))
            out[i, 0] = thetas[i, 0] + SIGMA_Y * g.standard_normal(N_Y).mean()
        return out

    return stat_sim


def harness_observation(theta_true=4.3, seed=987):
    y = theta_true + SIGMA_Y * stream(seed, 9).standard_normal(N_Y)
    return np.array([y.mean()])


def harness_standardizer(seed=55):
    rng = stream(seed, 10)
    thetas = HARNESS_PRIOR.lower + rng.random((2000, 1)) * HARNESS_PRIOR.ranges
    stats = thetas + SIGMA_Y * rng.standard_normal((2000, N_Y)).mean(
        axis=1, keepdims=True)
    return standardizer_from_stats(stats, seed=seed)


class TestStandardizer:
    def test_constant_component_raises(self):
        stats = np.column_stack([np.ones(2000), np.random.default_rng(0).random(2000)])
        with pytest.raises(DegenerateStatisticError):
            standardizer_from_stats(stats)

    def test_standard_normal_scale(self):
        stats = np.random.default_rng(1).standard_normal((10**5, 3))
        std = standardizer_from_stats(stats)
        assert np.all(np.abs(std.scale - 1.0) < 0.02)

    def test_median_zero_on_fitting_sample(self):
        stats = np.random.default_rng(2).random((5001, 4))
        std = standardizer_from_stats(stats)
        assert np.all(np.abs(np.median(std.apply(stats), axis=0)) < 1e-12)

    def test_iqr_zero_falls_back_to_std(self):
        col = np.zeros(1000)
        col[:100] = 1.0  # q25 = q75 = 0 but std > 0
        stats = np.column_stack([col, np.random.default_rng(3).random(1000)])
        std = standardizer_from_stats(stats)
        assert std.scale[0] == pytest.approx(col.std())

    def test_fit_requires_enough_sims(self):
        with pytest.raises(ValueError):
            fit_standardizer("nlar1", stats_fn_suffstats(), m=100)


class TestDistance:
    def test_zero_at_equality(self):
        std = Standardizer(center=np.zeros(3), scale=np.ones(3), m=0, seed=0)
        s = np.array([1.0, 2.0, 3.0])
        total, comp = distance(s, s, std)
        assert total == 0.0 and np.all(comp == 0.0)

    def test_one_scale_unit(self):
        std = Standardizer(center=np.zeros(3), scale=np.array([2.0, 5.0, 0.1]),
                           m=0, seed=0)
        s_obs = np.array([1.0, 1.0, 1.0])
        s_sim = np.array([3.0, 1.0, 1.0])  # off by one scale unit in comp 0
        total, comp = distance(s_sim, s_obs, std)
        assert total == pytest.approx(1.0)
        assert np.allclose(comp, [1.0, 0.0, 0.0])

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            center, scale = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
            std = Standardizer(center=center, scale=scale, m=0, seed=0)
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            expected = np.sqrt(sum(((a[i] - center[i]) / scale[i]
                                    - (b[i] - center[i]) / scale[i]) ** 2
                                   for i in range(4)))
            total, _ = distance(a, b, std)
            assert abs(total - expected) < 1e-12

    def test_batch_rows_are_single_rows(self):
        # (B, q) statistics give (B,) totals and (B, q) parts; a (q,) row
        # gives a float and the (q,) parts of that row, bit for bit
        rng = np.random.default_rng(5)
        std = Standardizer(center=rng.standard_normal(3),
                           scale=rng.uniform(0.5, 2.0, 3), m=0, seed=0)
        stats, s_obs = rng.standard_normal((7, 3)), rng.standard_normal(3)
        totals, parts = distance(stats, s_obs, std)
        assert totals.shape == (7,) and parts.shape == (7, 3)
        for i in range(7):
            total, part = distance(stats[i], s_obs, std)
            assert isinstance(total, float) and total == totals[i]
            assert np.array_equal(part, parts[i])


class TestSabcHarness:
    def run_sabc(self, seed=11, budget=20_000, population=200):
        cfg = AbcConfig(population=population, budget=budget, velocity=0.3,
                        proposal_scale=0.5, seed=seed)
        s_obs = harness_observation()
        std = harness_standardizer()
        return sabc_core(harness_stat_sim(seed), HARNESS_PRIOR, s_obs, std, cfg), s_obs

    def test_conjugate_posterior_mean(self):
        (sample, record), s_obs = self.run_sabc()
        post_sd = SIGMA_Y / np.sqrt(N_Y)
        assert abs(sample.draws[:, 0].mean() - s_obs[0]) < 2 * post_sd
        # the ABC posterior should concentrate, not collapse or stay prior-wide
        assert post_sd / 3 < sample.draws[:, 0].std() < 4 * post_sd

    def test_tolerance_trace_nonincreasing(self):
        (sample, record), _ = self.run_sabc(seed=13)
        assert np.all(np.diff(record.tolerance_trace) <= 1e-15)

    def test_deterministic(self):
        (a, _), _ = self.run_sabc(seed=17, budget=5000, population=100)
        (b, _), _ = self.run_sabc(seed=17, budget=5000, population=100)
        assert np.array_equal(a.draws, b.draws)

    def test_budget_respected(self):
        (sample, record), _ = self.run_sabc(seed=19, budget=3000, population=100)
        assert sample.manifest["sims_used"] <= 3000

    def test_agreement_with_rejection(self):
        (sabc_sample, _), s_obs = self.run_sabc(seed=23)
        # matched-budget rejection baseline on the same harness
        rng = stream(23, 12)
        n_sims = 20_000
        thetas = HARNESS_PRIOR.lower + rng.random((n_sims, 1)) * HARNESS_PRIOR.ranges
        stats = thetas + SIGMA_Y * rng.standard_normal((n_sims, N_Y)).mean(
            axis=1, keepdims=True)
        std = harness_standardizer()
        d = np.abs(std.apply(stats) - std.apply(s_obs[None, :]))[:, 0]
        keep = np.argsort(d)[:200]
        w1 = wasserstein_1d(sabc_sample.draws[:, 0], thetas[keep, 0])
        assert w1 / HARNESS_PRIOR.ranges[0] < 0.05


class TestStagnationFlag:
    """Zero acceptances flag stagnation only in a sweep the budget did not cut short."""

    POP = 20
    S_OBS = np.array([0.0])
    STD = Standardizer(center=np.zeros(1), scale=np.ones(1), m=0, seed=0)

    def run(self, budget):
        # the initial population sits at distance 1; every later proposal
        # lands at distance 1e6 and is always rejected
        sizes = []

        def stat_sim(thetas, sweep, particles):
            sizes.append(len(particles))
            return np.full((thetas.shape[0], 1), 1.0 if sweep == 0 else 1e6)

        cfg = AbcConfig(population=self.POP, budget=budget, seed=3)
        sample, record = sabc_core(stat_sim, HARNESS_PRIOR, self.S_OBS, self.STD, cfg)
        return sample.manifest, record, sizes

    def test_cut_short_final_sweep_not_flagged(self):
        # room for one simulation after the initial population: sweep 1 has
        # more in-box proposals than that and is cut short
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            man, record, sizes = self.run(budget=self.POP + 1)
        assert sizes == [self.POP, 1]
        assert man["sims_used"] == self.POP + 1
        assert record.acceptance_trace.tolist() == [0.0]
        assert man["stagnated"] is False

    def test_full_sweep_flagged(self):
        with pytest.warns(RuntimeWarning, match="stagnated"):
            man, record, sizes = self.run(budget=100 * self.POP)
        assert len(sizes) == 2
        assert man["stagnated"] is True
        assert man["sweeps"] == 1


class TestProposalStreams:
    def test_first_sweep_matches_per_particle_streams(self):
        # reference: particle i's proposal in sweep 1 is row i of the
        # (population, p) standard-normal block of stream(seed, PROPOSAL_TAG, 1)
        seed, pop = 37, 50
        seen = {}

        def stat_sim(thetas, sweep, particles):
            seen[sweep] = (thetas.copy(), np.array(particles))
            return thetas.copy()

        cfg = AbcConfig(population=pop, budget=2 * pop, seed=seed)
        std = Standardizer(center=np.zeros(1), scale=np.ones(1), m=0, seed=0)
        sabc_core(stat_sim, HARNESS_PRIOR, np.array([4.0]), std, cfg)
        init = seen[0][0]
        assert np.array_equal(init, sample_prior(HARNESS_PRIOR, stream(seed, 0), size=pop))
        scale = np.maximum(cfg.proposal_scale * np.std(init, axis=0),
                           1e-12 * HARNESS_PRIOR.ranges)
        block = stream(seed, PROPOSAL_TAG, 1).standard_normal((pop, 1))
        want = np.array([init[i] + block[i] * scale for i in range(pop)])
        props, particles = seen[1]
        inbox = np.flatnonzero((want >= HARNESS_PRIOR.lower).all(axis=1)
                               & (want <= HARNESS_PRIOR.upper).all(axis=1))
        assert np.array_equal(particles, inbox)
        assert np.array_equal(props, want[particles])


class TestModelStatSim:
    # ascending, non-contiguous particle ids, as in-box candidates are
    PARTICLES = np.array([0, 2, 3, 7, 11, 40])

    @pytest.fixture
    def pool(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_noise_matches_per_particle_streams(self, model_id, pool):
        # reference: particle i simulates with row i of the sweep's noise block
        prior = prior_for(model_id)
        particles = self.PARTICLES
        thetas = sample_prior(prior, stream(8, 1), size=particles.size)
        seed, sweep, n = 29, 4, 60
        sim = _model_stat_sim(model_spec(model_id), lambda x, x0: x, seed, n, 50, pool)
        g = stream(seed, NOISE_TAG, sweep)
        shape = (particles[-1] + 1, n)
        block = g.random((*shape, 2)) if model_id == "dynamo" else g.standard_normal((*shape, 1))
        want = simulate_batch(model_id, thetas, block[particles], x0=prior.x0)
        assert np.array_equal(sim(thetas, sweep, particles), want)

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_row_independent_of_other_candidates(self, model_id, pool):
        # a particle's noise row is the same whether it is simulated among a
        # candidate subset or among all particles of the population
        pop, seed, sweep, n = 64, 3, 2, 40
        thetas = sample_prior(prior_for(model_id), stream(8, 2), size=pop)
        sim = _model_stat_sim(model_spec(model_id), lambda x, x0: x, seed, n, pop, pool)
        everyone = sim(thetas, sweep, np.arange(pop))
        subset = self.PARTICLES
        assert np.array_equal(sim(thetas[subset], sweep, subset), everyone[subset])

    class LazyPool:
        """Runs a submitted call only when its result is asked for, so a block
        read without waiting still holds the sweep before's rows."""

        def submit(self, fn, *args, **kwargs):
            return SimpleNamespace(result=functools.partial(fn, *args, **kwargs))

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_skipped_sweep_draws_its_own_noise(self, model_id, lazy, pool):
        # sweep 2 calls no sim (no candidates), so the block filled ahead for
        # it must not reach sweep 3; sweep 4 then uses the block filled ahead
        pool = self.LazyPool() if lazy else pool
        spec, pop, seed, n = model_spec(model_id), 48, 5, 30
        thetas = sample_prior(spec.prior, stream(8, 3), size=pop)
        sim = _model_stat_sim(spec, lambda x, x0: x, seed, n, pop, pool)
        for sweep, particles in ((1, self.PARTICLES), (3, np.array([1, 5, 6, 29, 47])),
                                 (4, self.PARTICLES[1:])):
            size = (pop, n, spec.noise_channels)
            rows = spec.noise_draw(stream(seed, NOISE_TAG, sweep), size)[particles]
            want = simulate_batch(spec, thetas[particles], rows, x0=spec.prior.x0)
            assert np.array_equal(sim(thetas[particles], sweep, particles), want), sweep


class TestRejectionAbc:
    def test_keep_fraction_one_returns_prior_sample(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 50, 1))
        sample, record = rejection_abc("nlar1", None, stats_fn_suffstats(), obs,
                                       n_sims=1500, keep_fraction=1.0,
                                       seed=3, n_steps=50)
        assert sample.m == 1500
        # kept set is the full prior sample (sorted by distance)
        rng = stream(3, 0xE)
        expected = NLAR1_PRIOR.lower + rng.random((1500, 2)) * NLAR1_PRIOR.ranges
        assert np.array_equal(np.sort(sample.draws[:, 0]), np.sort(expected[:, 0]))

    def test_output_size(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 50, 2))
        sample, _ = rejection_abc("nlar1", None, stats_fn_suffstats(), obs,
                                  n_sims=1333, keep_fraction=0.1, seed=5,
                                  n_steps=50)
        assert sample.m == round(0.1 * 1333)

    def test_invalid_keep_fraction(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 50, 2))
        with pytest.raises(ValueError):
            rejection_abc("nlar1", None, stats_fn_suffstats(), obs, 100, 0.0)

    def test_conjugate_mean_via_ranking(self):
        # rejection on the harness implemented through the library distance
        s_obs = harness_observation()
        std = harness_standardizer()
        rng = stream(31, 13)
        thetas = HARNESS_PRIOR.lower + rng.random((20_000, 1)) * HARNESS_PRIOR.ranges
        stats = thetas + SIGMA_Y * rng.standard_normal((20_000, N_Y)).mean(
            axis=1, keepdims=True)
        d = np.array([distance(stats[i], s_obs, std)[0] for i in range(0, 20_000, 10)])
        keep = np.argsort(d)[:100]
        kept_thetas = thetas[::10][keep, 0]
        assert abs(kept_thetas.mean() - s_obs[0]) < 2 * SIGMA_Y / np.sqrt(N_Y)


class TestRankingInvariance:
    def test_restandardized_rankings_identical(self):
        rng = np.random.default_rng(6)
        stats = rng.standard_normal((3000, 3)) * np.array([3.0, 0.2, 40.0])
        s_obs = stats[0]
        std = standardizer_from_stats(stats)
        d1 = np.array([distance(s, s_obs, std)[0] for s in stats[:500]])
        # rescale the statistic space by the fitted standardizer, refit
        zstats = std.apply(stats)
        std2 = standardizer_from_stats(zstats)
        z_obs = std.apply(s_obs)
        d2 = np.array([distance(z, z_obs, std2)[0] for z in zstats[:500]])
        assert np.array_equal(np.argsort(d1, kind="stable"),
                              np.argsort(d2, kind="stable"))


class TestStatsFns:
    def test_suffstats_fn_shape(self):
        fn = stats_fn_suffstats()
        x = np.random.default_rng(0).random((4, 60))
        assert fn(x, 0.25).shape == (4, 3)

    def test_subset(self):
        fn = stats_fn_subset(stats_fn_suffstats(), [0, 1])
        x = np.random.default_rng(1).random((4, 60))
        assert fn(x, 0.25).shape == (4, 2)

    def test_weights_fn(self):
        from statforge.encoder import init_encoder

        weights = init_encoder(3, np.random.default_rng(2)).arrays()
        fn = stats_fn_from_weights(weights)
        x = np.random.default_rng(3).random((4, 60))
        assert fn(x, 0.25).shape == (4, 3)

    def test_sabc_run_on_model(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 100, 21))
        cfg = AbcConfig(population=100, budget=3000, seed=2, n_steps=100)
        sample, record = sabc_run("nlar1", None, stats_fn_suffstats(), obs, cfg)
        assert sample.m == 100
        assert np.all(sample.draws >= NLAR1_PRIOR.lower)
        assert np.all(sample.draws <= NLAR1_PRIOR.upper)
        assert sample.component_distances.shape == (100, 3)
        assert np.all(np.diff(record.tolerance_trace) <= 1e-15)

    def test_no_thread_outlives_the_call(self):
        obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 100, 21))
        cfg = AbcConfig(population=100, budget=1000, seed=2, n_steps=100)
        before = threading.active_count()
        sabc_run("nlar1", None, stats_fn_suffstats(), obs, cfg)
        assert threading.active_count() == before
        suffstats, calls, during = stats_fn_suffstats(), 0, None

        def failing(x, x0):
            # calls 1 and 2 fit the standardizer and encode the observation;
            # call 3, the first population's, runs while sweep 1's noise fills
            nonlocal calls, during
            calls += 1
            if calls == 3:
                during = threading.active_count()
                raise RuntimeError("statistics failed")
            return suffstats(x, x0)

        with pytest.raises(RuntimeError, match="statistics failed"):
            sabc_run("nlar1", None, failing, obs, cfg)
        assert during == before + 1
        assert threading.active_count() == before


# Two short SABC runs in a fresh interpreter; prints whether
# `keep_freed_memory` took effect and the minor page faults of the second.
WARM_SABC_FAULTS = """
import resource
from statforge.abcsampler import AbcConfig, sabc_run, stats_fn_suffstats
from statforge.models import draw_bare_noise, simulate_nlar1
obs = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 200, 21))
cfg = AbcConfig(population=1000, budget=5000, seed=1, n_steps=200)
sabc_run("nlar1", None, stats_fn_suffstats(), obs, cfg)
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
kept = sabc_run("nlar1", None, stats_fn_suffstats(), obs, cfg)[0].manifest["keep_freed_memory"]
print(kept, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def test_warm_sabc_call_faults_few_pages():
    # without kept freed memory the second call faults in 11,000 to 15,000
    # fresh pages, with it almost none
    env = {**os.environ, "PYTHONPATH": str(Path(statforge.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", WARM_SABC_FAULTS], capture_output=True,
                         text=True, env=env, check=True, timeout=300)
    kept, faults = out.stdout.split()
    if kept != "True":
        pytest.skip("keep_freed_memory has no effect here (no glibc mallopt)")
    assert int(faults) < 500


class TestFloat32EncoderStatistics:
    """ABC's encoder statistics run in float32: float64 out, within 1e-5 of
    each component's float64 spread, and a non-finite trajectory still
    raises."""

    @pytest.fixture
    def weights(self):
        from statforge.encoder import encoder_subset, init_encoder

        return encoder_subset(init_encoder(3, stream(11, 0)))

    @pytest.mark.parametrize("model, n_steps", [("dynamo", 100), ("nlar1", 200)])
    def test_within_1e5_of_the_float64_spread(self, weights, model, n_steps):
        from statforge.encoder import encode_batch

        spec = model_spec(model)
        _, _, x = prior_predictive(spec, 1000, n_steps, stream(12, 0))
        want = encode_batch(x, weights)
        got = stats_fn_from_weights(weights)(x, spec.prior.x0)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert not np.array_equal(got, want)  # it did run in float32
        spread = np.std(want, axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-5 * spread)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])  # 1e39 overflows float32
    def test_non_finite_input_raises(self, weights, bad):
        from statforge.errors import TrainingDivergedError

        x = np.random.default_rng(14).standard_normal((20, 100))
        x[7, 40] = bad
        # numpy warns of the cast's overflow; what matters is the raise
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError,
                                                       match="non-finite"):
            stats_fn_from_weights(weights)(x, 0.0)
