import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from statforge.errors import (
    DegenerateLikelihoodError,
    InvalidParameterError,
    SimulationDivergedError,
)
from dataclasses import replace

from statforge.models import (
    DEFAULT_DYNAMO_MAP,
    DIVERGENCE_GUARD,
    DYNAMO,
    DYNAMO_PRIOR,
    MODEL_IDS,
    NLAR1,
    NLAR1_PRIOR,
    TRUE_THETA,
    BareNoise,
    DynamoMap,
    ModelSpec,
    PriorSpec,
    Trajectory,
    bifurcation_sweep,
    cluster_values,
    draw_bare_noise,
    draw_noise_batch,
    f_nlar1,
    load_trajectory_batch,
    log_likelihood,
    log_likelihood_fn,
    model_spec,
    prior_for,
    sample_prior,
    save_trajectory_batch,
    simulate,
    simulate_batch,
    simulate_dynamo,
    simulate_nlar1,
    stream,
    trajectory_from_csv,
    trajectory_to_csv,
    transition_density,
)


class TestSimulateNlar1:
    def test_zero_noise_first_step(self):
        noise = BareNoise(channels=np.ones((5, 1)), seed=0)
        traj = simulate_nlar1((5.3, 0.0), noise, x0=0.25)
        assert traj.x[0] == pytest.approx(5.3 * 0.25**2 * 0.75, abs=0.0)
        assert traj.x[0] == pytest.approx(0.2484375, abs=1e-15)

    def test_zero_fixed_point_decay(self):
        noise = BareNoise(channels=np.zeros((50, 1)), seed=0)
        traj = simulate_nlar1((4.2, 0.0), noise, x0=0.01)
        diffs = np.diff(np.concatenate([[0.01], traj.x]))
        assert np.all(diffs <= 0)  # strict until the iterate underflows to 0
        assert np.all(diffs[:3] < 0)
        assert traj.x[-1] < 1e-20

    def test_one_step_monte_carlo_mean(self):
        # oracle: E[x_1] = alpha*f(x0); sample mean over independent draws
        n = 10**5
        rng = np.random.default_rng(11)
        eps = rng.standard_normal((n, 1, 1))
        x = simulate_batch("nlar1", np.tile([5.3, 0.015], (n, 1)), eps, x0=0.25)
        assert abs(x[:, 0].mean() - 0.2484375) < 3 * 0.015 / np.sqrt(n)

    def test_determinism(self):
        a = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 200, 42), x0=0.25)
        b = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 200, 42), x0=0.25)
        assert np.array_equal(a.x, b.x)

    def test_negative_sigma_rejected(self):
        noise = draw_bare_noise("nlar1", 10, 0)
        with pytest.raises(InvalidParameterError):
            simulate_nlar1((5.0, -0.01), noise)

    def test_divergence_carries_step_index(self):
        noise = BareNoise(channels=np.zeros((10, 1)), seed=0)
        with pytest.raises(SimulationDivergedError) as err:
            simulate_nlar1((5.3, 0.0), noise, x0=-200.0)
        assert err.value.step >= 1


class TestSimulateDynamo:
    def test_deterministic_corner(self):
        noise = BareNoise(channels=np.random.default_rng(0).random((20, 2)), seed=0)
        traj = simulate_dynamo((1.11, 0.0, 0.0), noise, x0=1.0)
        x = 1.0
        for n in range(20):
            x = 1.11 * float(DEFAULT_DYNAMO_MAP(x))
            assert traj.x[n] == x

    def test_one_step_monte_carlo_mean(self):
        n = 10**5
        rng = np.random.default_rng(5)
        uv = rng.random((n, 1, 2))
        alpha, delta, eps = 1.11, 0.15, 0.08
        x = simulate_batch("dynamo", np.tile([alpha, delta, eps], (n, 1)), uv, x0=1.0)
        f1 = float(DEFAULT_DYNAMO_MAP(1.0))
        expected = (alpha + delta / 2.0) * f1 + eps / 2.0
        se = x[:, 0].std(ddof=1) / np.sqrt(n)
        assert abs(x[:, 0].mean() - expected) < 3 * se

    def test_vanishing_multiplicative_branch(self):
        # f2(0) = 0 exactly, so the next state is eps * v in [0, eps]
        noise = BareNoise(channels=np.random.default_rng(1).random((1, 2)), seed=1)
        traj = simulate_dynamo((1.2, 0.2, 0.08), noise, x0=0.0, n_steps=1)
        assert 0.0 <= traj.x[0] <= 0.08

    def test_negative_delta_or_eps_rejected(self):
        noise = draw_bare_noise("dynamo", 10, 0)
        for theta in ((1.11, -0.01, 0.08), (1.11, 0.15, -0.01)):
            with pytest.raises(InvalidParameterError):
                simulate_dynamo(theta, noise)


def reference_nlar1(theta, noise, x0=None, n_steps=None):
    """Per-step scalar loop of the nlar1 map: the oracle for ``simulate_nlar1``."""
    alpha, sigma = theta
    x0 = NLAR1_PRIOR.x0 if x0 is None else x0
    n_steps = noise.n_steps if n_steps is None else n_steps
    eps = noise.channels[:n_steps, 0]
    x = np.empty(n_steps)
    cur = float(x0)
    for n in range(n_steps):
        cur = alpha * cur * cur * (1.0 - cur) + sigma * eps[n]
        if not np.isfinite(cur) or abs(cur) > DIVERGENCE_GUARD:
            raise SimulationDivergedError(n + 1, cur)
        x[n] = cur
    return x


def reference_dynamo(theta, noise, x0=None, n_steps=None, f2=DEFAULT_DYNAMO_MAP):
    """Per-step scalar loop of the dynamo map: the oracle for ``simulate_dynamo``."""
    alpha, delta, eps_amp = theta
    x0 = DYNAMO_PRIOR.x0 if x0 is None else x0
    n_steps = noise.n_steps if n_steps is None else n_steps
    u = noise.channels[:n_steps, 0]
    v = noise.channels[:n_steps, 1]
    x = np.empty(n_steps)
    cur = float(x0)
    for n in range(n_steps):
        cur = (alpha + delta * u[n]) * float(f2(cur)) + eps_amp * v[n]
        if not np.isfinite(cur) or abs(cur) > DIVERGENCE_GUARD:
            raise SimulationDivergedError(n + 1, cur)
        x[n] = cur
    return x


class TestSimulatorOracle:
    """The single-trajectory simulators are B=1 rows of ``simulate_batch``;
    they must give the bytes of the per-step scalar loops above."""

    CASES = {"nlar1": (simulate_nlar1, reference_nlar1, 0.6),
             "dynamo": (simulate_dynamo, reference_dynamo, 0.3)}

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_prior_draws_match_oracle(self, model_id):
        sim, ref, other_x0 = self.CASES[model_id]
        thetas = sample_prior(prior_for(model_id), stream(61, 0), size=60)
        for k, theta in enumerate(thetas):
            noise = draw_bare_noise(model_id, 120, 700 + k)
            for kwargs in ({}, {"n_steps": 45}, {"x0": other_x0}):
                got = sim(theta, noise, **kwargs)
                want = ref(theta, noise, **kwargs)
                assert got.x.tobytes() == want.tobytes(), (k, kwargs)
                assert got.x0 == kwargs.get("x0", prior_for(model_id).x0)

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_divergence_step_matches_oracle(self, model_id):
        sim, ref, _ = self.CASES[model_id]
        theta = TRUE_THETA[model_id]
        for bad_step in (0, 7, 39):
            channels = draw_bare_noise(model_id, 50, bad_step).channels.copy()
            channels[bad_step, -1] = np.inf
            noise = BareNoise(channels=channels, seed=0)
            with pytest.raises(SimulationDivergedError) as got:
                sim(theta, noise)
            with pytest.raises(SimulationDivergedError) as want:
                ref(theta, noise)
            assert got.value.step == want.value.step == bad_step + 1
        if model_id == "nlar1":
            # escaping orbits: the guard trips a few steps after the start
            for x0 in (-2.0, -200.0):
                noise = draw_bare_noise(model_id, 50, 1)
                with pytest.raises(SimulationDivergedError) as got:
                    sim(theta, noise, x0=x0)
                with pytest.raises(SimulationDivergedError) as want:
                    ref(theta, noise, x0=x0)
                assert got.value.step == want.value.step
                assert got.value.value == want.value.value

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_wrong_theta_length_rejected(self, model_id):
        sim, _, _ = self.CASES[model_id]
        noise = draw_bare_noise(model_id, 10, 0)
        theta = TRUE_THETA[model_id]
        for bad in (theta[:-1], np.append(theta, 0.1)):
            with pytest.raises(InvalidParameterError):
                sim(bad, noise)


class TestTransitionDensityNlar1:
    def test_mode_height(self):
        theta = (5.3, 0.015)
        x = 0.4
        mode = 5.3 * f_nlar1(x)
        assert transition_density(NLAR1, mode, x, theta) == pytest.approx(
            1.0 / (0.015 * np.sqrt(2 * np.pi)), rel=1e-14)

    def test_normalization(self):
        theta = (5.0, 0.02)
        val, _ = quad(lambda y: transition_density(NLAR1, y, 0.3, theta),
                      -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-8

    def test_monte_carlo_histogram(self):
        # oracle: histogram of simulated one-step outputs, 50 bins
        theta = np.array([5.3, 0.015])
        x = 0.45
        n = 10**6
        rng = np.random.default_rng(2)
        samples = 5.3 * f_nlar1(x) + 0.015 * rng.standard_normal(n)
        edges = np.linspace(samples.min(), samples.max(), 51)
        counts, _ = np.histogram(samples, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        probs = transition_density(NLAR1, centers, x, theta) * width
        se = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / n)
        assert np.all(np.abs(counts / n - probs) <= 3 * se + 2e-4 * width)

    def test_sigma_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            transition_density(NLAR1, 0.1, 0.3, (5.0, 0.0))


class TestTransitionDensityDynamo:
    def test_outside_support(self):
        theta = (1.11, 0.15, 0.08)
        c = float(DEFAULT_DYNAMO_MAP(1.0))
        lo = 1.11 * c
        hi = lo + 0.15 * c + 0.08
        assert transition_density(DYNAMO, lo - 1e-9, 1.0, theta) == 0.0
        assert transition_density(DYNAMO, hi + 1e-9, 1.0, theta) == 0.0

    def test_delta_zero_single_uniform(self):
        theta = (1.11, 0.0, 0.08)
        c = float(DEFAULT_DYNAMO_MAP(1.0))
        inside = transition_density(DYNAMO, 1.11 * c + 0.04, 1.0, theta)
        assert inside == pytest.approx(1.0 / 0.08, rel=1e-12)
        assert transition_density(DYNAMO, 1.11 * c - 1e-9, 1.0, theta) == 0.0

    def test_zero_c_reduces_to_additive_uniform(self):
        theta = (1.11, 0.15, 0.08)
        assert transition_density(DYNAMO, 0.04, 0.0, theta) == pytest.approx(1 / 0.08)
        assert transition_density(DYNAMO, 0.09, 0.0, theta) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateLikelihoodError):
            transition_density(DYNAMO, 0.5, 0.0, (1.11, 0.15, 0.0))

    @pytest.mark.parametrize("case", range(10))
    def test_quadrature_and_monte_carlo(self, case):
        rng = np.random.default_rng(300 + case)
        theta = sample_prior(DYNAMO_PRIOR, rng)
        x = rng.uniform(0.6, 1.3)
        alpha, delta, eps = theta
        c = float(DEFAULT_DYNAMO_MAP(x))
        lo, hi = alpha * c, alpha * c + delta * c + eps
        pts = sorted({lo, lo + min(delta * c, eps), hi - min(delta * c, eps), hi})
        val, _ = quad(lambda y: transition_density(DYNAMO, y, x, theta),
                      lo, hi, points=pts, limit=200)
        assert abs(val - 1.0) < 1e-6
        # Monte-Carlo histogram oracle
        n = 10**6
        a = alpha + delta * rng.random(n)
        e = eps * rng.random(n)
        samples = a * c + e
        edges = np.linspace(lo, hi, 41)
        counts, _ = np.histogram(samples, bins=edges)
        probs = np.array([quad(lambda y: transition_density(DYNAMO, y, x, theta),
                               edges[i], edges[i + 1], points=pts)[0]
                          for i in range(40)])
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(counts / n - probs) <= 3 * se + 1e-7)


class TestLogLikelihood:
    def test_single_step(self):
        traj = Trajectory(x=np.array([0.3]), x0=0.25)
        theta = (5.3, 0.015)
        direct = np.log(transition_density(NLAR1, 0.3, 0.25, theta))
        assert log_likelihood(traj, theta, "nlar1") == pytest.approx(direct, rel=1e-14)

    def test_grid_argmax_matches_least_squares(self):
        # oracle: zero-intercept least squares of x_n on f(x_{n-1})
        noise = draw_bare_noise("nlar1", 200, 9)
        traj = simulate_nlar1((5.3, 0.015), noise, x0=0.25)
        f_prev = f_nlar1(traj.lagged())
        slope = float(np.linalg.lstsq(f_prev[:, None], traj.x, rcond=None)[0][0])
        grid = np.linspace(slope - 0.02, slope + 0.02, 4001)
        vals = [log_likelihood(traj, (a, 0.015), "nlar1") for a in grid]
        best = grid[int(np.argmax(vals))]
        assert abs(best - slope) <= (grid[1] - grid[0])

    def test_dynamo_support_violation(self):
        noise = draw_bare_noise("dynamo", 100, 12)
        traj = simulate_dynamo((1.11, 0.15, 0.08), noise, x0=1.0)
        # shrink the noise amplitudes: observed steps fall outside the support
        assert log_likelihood(traj, (1.11, 0.001, 0.001), "dynamo") == -np.inf

    def test_finite_where_the_density_product_underflows(self):
        # sigma = 0.005 on a trajectory simulated with sigma = 0.025: some
        # transition densities underflow to 0, their logs stay finite
        traj = simulate_nlar1((5.3, 0.025), draw_bare_noise("nlar1", 200, 0))
        alpha, sigma = 4.2, 0.005
        assert (transition_density(NLAR1, traj.x, traj.lagged(), (alpha, sigma)) == 0.0).any()
        z = (traj.x - alpha * f_nlar1(traj.lagged())) / sigma
        want = -0.5 * np.sum(z * z) - traj.n_steps * np.log(sigma * np.sqrt(2 * np.pi))
        got = log_likelihood(traj, (alpha, sigma), "nlar1")
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    def test_finite_at_generating_theta(self):
        for model_id, theta in (("nlar1", (5.3, 0.015)), ("dynamo", (1.11, 0.15, 0.08))):
            for seed in range(5):
                noise = draw_bare_noise(model_id, 150, seed)
                traj = simulate(model_id, theta, noise)
                assert np.isfinite(log_likelihood(traj, theta, model_id))


def transition_log_densities(model, traj, theta):
    """The spec's log-density of each transition, from the raw lagged states."""
    spec = model_spec(model)
    return spec.log_density(traj.x, spec.regressor(traj.lagged(), spec.f2), theta)


def reference_log_likelihood(traj, theta, model_id):
    """Per-call form: transition log-densities from the raw lagged states."""
    return float(np.sum(transition_log_densities(model_id, traj, theta)))


class TestLogLikelihoodFn:
    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_bit_identical_to_per_call_form(self, model_id):
        prior = prior_for(model_id)
        traj = simulate(model_id, TRUE_THETA[model_id],
                        draw_bare_noise(model_id, 150, 41))
        rng = stream(42, 0)
        # half from the prior box, half near the generating theta, where
        # the dynamo likelihood is mostly finite
        near = TRUE_THETA[model_id] * (1.0 + 0.05 * (rng.random((100, prior.dim)) - 0.5))
        thetas = np.vstack([sample_prior(prior, rng, size=100), near])
        loglik = log_likelihood_fn(traj, model_id)
        values = [loglik(theta) for theta in thetas]
        assert sum(np.isfinite(values)) >= 20
        for theta, value in zip(thetas, values):
            assert value == log_likelihood(traj, theta, model_id)
            assert value == reference_log_likelihood(traj, theta, model_id)

    def test_dynamo_support_violation(self):
        traj = simulate_dynamo((1.11, 0.15, 0.08), draw_bare_noise("dynamo", 100, 12))
        assert log_likelihood_fn(traj, "dynamo")((1.11, 0.001, 0.001)) == -np.inf

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_rows_match_single_theta(self, model_id):
        # K rows (K, p) give (K,) values, each the bits of that theta alone
        traj = simulate(model_id, TRUE_THETA[model_id], draw_bare_noise(model_id, 120, 43))
        rng = stream(44, 0)
        thetas = TRUE_THETA[model_id] * (1.0 + 0.1 * (rng.random((9, len(TRUE_THETA[model_id]))) - 0.5))
        loglik = log_likelihood_fn(traj, model_id)
        rows = loglik(thetas)
        assert rows.shape == (9,)
        singles = np.array([loglik(theta) for theta in thetas])
        assert rows.tobytes() == singles.tobytes()
        assert np.array_equal(loglik(thetas[3:4]), singles[3:4])
        if model_id == "dynamo":
            assert np.isfinite(rows).any() and not np.isfinite(rows).all()

    def test_nonpositive_sigma_raises(self):
        traj = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 50, 13))
        loglik = log_likelihood_fn(traj, "nlar1")
        for sigma in (0.0, -0.01):
            with pytest.raises(InvalidParameterError):
                loglik((5.3, sigma))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            log_likelihood_fn(Trajectory(x=np.zeros(3), x0=0.0), "nope")


class TestStream:
    def test_too_many_path_components(self):
        with pytest.raises(ValueError):
            stream(1, 2, 3, 4, 5)


class TestPrior:
    def test_degenerate_box_returns_point(self):
        prior = PriorSpec(("a",), (1.5,), (1.5,), x0=0.0)
        assert sample_prior(prior, np.random.default_rng(0)) == np.array([1.5])

    def test_uniform_moment(self):
        draws = sample_prior(NLAR1_PRIOR, np.random.default_rng(1), size=10**5)
        tol = 3 * (1.6 / np.sqrt(12)) / np.sqrt(10**5)
        assert abs(draws[:, 0].mean() - 5.0) < tol

    def test_support(self):
        draws = sample_prior(DYNAMO_PRIOR, np.random.default_rng(2), size=2000)
        assert np.all(draws >= DYNAMO_PRIOR.lower) and np.all(draws <= DYNAMO_PRIOR.upper)

    def test_invalid_box(self):
        with pytest.raises(InvalidParameterError):
            PriorSpec(("a",), (2.0,), (1.0,), x0=0.0)


class TestBareNoise:
    def test_distribution_independent_of_theta(self):
        # the API cannot depend on theta; KS-compare draws across seed sets
        a = draw_bare_noise("nlar1", 2000, 100).channels[:, 0]
        b = draw_bare_noise("nlar1", 2000, 200).channels[:, 0]
        assert ks_2samp(a, b).pvalue > 0.01
        u = draw_bare_noise("dynamo", 2000, 300).channels
        assert u.min() >= 0.0 and u.max() <= 1.0

    def test_reproducible_from_seed(self):
        n1 = draw_bare_noise("dynamo", 64, 77)
        n2 = draw_bare_noise("dynamo", 64, n1.seed)
        assert np.array_equal(n1.channels, n2.channels)

    def test_stream_disjoint(self):
        a = stream(1, 2, 3).random(8)
        b = stream(1, 2, 4).random(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, stream(1, 2, 3).random(8))


class TestOneStepMoments:
    def test_both_models_within_four_se(self):
        n = 10**5
        rng = np.random.default_rng(8)
        # nlar1 from a representative state
        noise = rng.standard_normal((n, 1, 1))
        x = simulate_batch("nlar1", np.tile([5.3, 0.015], (n, 1)), noise, x0=0.6)
        mean_th = 5.3 * f_nlar1(0.6)
        var_th = 0.015**2
        se_mean = x[:, 0].std(ddof=1) / np.sqrt(n)
        se_var = var_th * np.sqrt(2.0 / (n - 1))
        assert abs(x[:, 0].mean() - mean_th) < 4 * se_mean
        assert abs(x[:, 0].var(ddof=1) - var_th) < 4 * se_var
        # dynamo
        uv = rng.random((n, 1, 2))
        th = [1.11, 0.15, 0.08]
        x = simulate_batch("dynamo", np.tile(th, (n, 1)), uv, x0=1.0)
        c = float(DEFAULT_DYNAMO_MAP(1.0))
        mean_th = (th[0] + th[1] / 2) * c + th[2] / 2
        var_th = (th[1] * c) ** 2 / 12 + th[2] ** 2 / 12
        se_mean = x[:, 0].std(ddof=1) / np.sqrt(n)
        se_var = var_th * np.sqrt(2.0 / (n - 1)) * 2  # conservative for non-normal
        assert abs(x[:, 0].mean() - mean_th) < 4 * se_mean
        assert abs(x[:, 0].var(ddof=1) - var_th) < 4 * se_var


class TestBifurcationSweep:
    @pytest.mark.parametrize("n_transient, n_record", [(-1, 8), (10, 0), (10, -1)])
    def test_out_of_range_counts(self, n_transient, n_record):
        # n_transient = -1 used to leave the first recorded column unset
        with pytest.raises(ValueError):
            bifurcation_sweep("nlar1", [4.2], n_transient, n_record)

    def test_nlar1_zero_attractor(self):
        (pt,) = bifurcation_sweep("nlar1", [4.2], 500, 64, x0=0.01)
        assert np.all(np.abs(pt.values) < 1e-12)

    def test_nlar1_pre_bifurcation_from_nonzero_basin(self):
        # direct iteration oracle: from x0=0.25 the orbit lies below the
        # unstable fixed point and decays to 0; from the map's critical point
        # it settles on the single nonzero fixed point.
        (low,) = bifurcation_sweep("nlar1", [4.5], 2000, 64, x0=0.25)
        assert np.all(np.abs(low.values) < 1e-12)
        (pt,) = bifurcation_sweep("nlar1", [4.5], 2000, 64, x0=2.0 / 3.0)
        vals = cluster_values(pt.values, tol=1e-9)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_nlar1_period_two(self):
        (pt,) = bifurcation_sweep("nlar1", [5.5], 4000, 64, x0=0.25)
        vals = cluster_values(pt.values, tol=1e-9)
        assert len(vals) == 2

    def test_dynamo_structure(self):
        # calibrated constants: zero branch low, cascade to chaos by 1.4
        pts = bifurcation_sweep("dynamo", [0.92, 1.10, 1.22, 1.39], 3000, 256, x0=1.0)
        counts = [len(cluster_values(p.values, tol=1e-6)) for p in pts]
        assert counts[0] == 1 and pts[0].values.max() < 0.1   # zero-ish branch
        assert counts[1] == 1 and pts[1].values.min() > 0.5   # nonzero fixed point
        assert counts[2] == 2                                  # period-2
        assert counts[3] > 8                                   # chaotic band

    def test_divergence_not_fatal(self):
        pts = bifurcation_sweep("nlar1", [4.5, 1e9], 10, 4, x0=0.6)
        assert not pts[0].diverged and pts[1].diverged


def reference_bifurcation(model_id, alpha_grid, n_transient, n_record, x0=None):
    """Per-point scalar loop of the deterministic maps: the oracle for
    ``bifurcation_sweep``."""
    x0 = prior_for(model_id).x0 if x0 is None else x0
    eps_mean = float(TRUE_THETA["dynamo"][2]) / 2.0
    points = []
    for a in np.asarray(alpha_grid, dtype=float):
        x, rec = float(x0), []
        for i in range(n_transient + n_record):
            if model_id == "nlar1":
                x = a * x * x * (1.0 - x)
            else:
                x = a * float(DEFAULT_DYNAMO_MAP(x)) + eps_mean
            if not np.isfinite(x) or abs(x) > DIVERGENCE_GUARD:
                rec = None
                break
            if i >= n_transient:
                rec.append(x)
        points.append((float(a), rec))
    return points


class TestBifurcationOracle:
    @pytest.mark.parametrize("model_id,grid,x0s,steps", [
        ("nlar1", np.linspace(3.9, 6.2, 60), (None, 0.6, 2.0 / 3.0, -0.5, 1.0), (300, 32)),
        ("nlar1", [4.5, 1e9, -3.0, 7.0], (0.6,), (300, 32)),
        # 1e9 passes the guard at step 1 but stays finite until step 3
        ("nlar1", [4.5, 1e9], (0.6,), (0, 2)),
        ("dynamo", np.linspace(0.8, 1.5, 60), (None, 0.2, 2.0), (300, 32)),
    ])
    def test_matches_scalar_loops(self, model_id, grid, x0s, steps):
        for x0 in x0s:
            got = bifurcation_sweep(model_id, grid, *steps, x0=x0)
            want = reference_bifurcation(model_id, grid, *steps, x0=x0)
            assert len(got) == len(want)
            for pt, (alpha, rec) in zip(got, want):
                assert pt.alpha == alpha
                assert pt.diverged == (rec is None)
                expected = np.array([] if rec is None else rec)
                assert pt.values.tobytes() == expected.tobytes(), (alpha, x0)


CUSTOM_F2 = DynamoMap(x1=0.4, d1=0.2, x2=1.2, d2=0.3, source="config")


class TestModelSpec:
    def test_resolver(self):
        assert MODEL_IDS == ("nlar1", "dynamo")
        assert model_spec("nlar1") is NLAR1 and model_spec(DYNAMO) is DYNAMO
        for spec in (NLAR1, DYNAMO):
            assert isinstance(spec, ModelSpec)
            assert TRUE_THETA[spec.id] is spec.true_theta
            assert prior_for(spec.id) is spec.prior
            assert spec.prior.contains(spec.true_theta)
        assert NLAR1.f2 is None and DYNAMO.f2 is DEFAULT_DYNAMO_MAP
        for bad in ("nope", "NLAR1", None):
            with pytest.raises(ValueError, match="unknown model id"):
                model_spec(bad)

    def test_prior_override(self):
        box = PriorSpec(("alpha", "sigma"), (5.0, 0.01), (5.5, 0.02), x0=0.3)
        spec = model_spec("nlar1", box)
        assert spec.prior is box and spec.step is NLAR1.step
        assert model_spec(NLAR1, None) is NLAR1

    def test_noise_draw_per_model(self):
        for spec, draw in ((NLAR1, "standard_normal"), (DYNAMO, "random")):
            got = draw_noise_batch(spec, 3, 7, stream(4, 0))
            want = getattr(stream(4, 0), draw)((3, 7, spec.noise_channels))
            assert got.tobytes() == want.tobytes()

    def test_custom_f2_reaches_simulator_and_density(self):
        spec = replace(DYNAMO, f2=CUSTOM_F2)
        noise = draw_bare_noise(spec, 80, 5)
        theta = TRUE_THETA["dynamo"]
        traj = simulate(spec, theta, noise)
        want = reference_dynamo(theta, noise, f2=CUSTOM_F2)
        assert traj.x.tobytes() == want.tobytes()
        assert traj.x.tobytes() != simulate_dynamo(theta, noise).x.tobytes()
        log_dens = transition_log_densities(spec, traj, theta)
        ref = DYNAMO.log_density(traj.x, np.maximum(CUSTOM_F2(traj.lagged()), 0.0), theta)
        assert log_dens.tobytes() == ref.tobytes()
        dens = transition_density(spec, traj.x, traj.lagged(), theta)
        assert dens.tobytes() == np.exp(ref).tobytes()
        assert log_likelihood(traj, theta, spec) == float(log_dens.sum())
        assert log_likelihood(traj, theta, "dynamo") != log_likelihood(traj, theta, spec)

    @pytest.mark.parametrize("bad", [{"d1": 0.0}, {"d1": -0.15}, {"d2": 0.0},
                                     {"x1": np.nan}, {"x2": np.inf}, {"d2": np.nan}])
    def test_f2_constants_are_range_checked(self, bad):
        with pytest.raises(ValueError, match="f2"):
            DynamoMap(**bad)
        with pytest.raises(ValueError, match="f2"):
            replace(CUSTOM_F2, **bad)

    def test_record_is_json_ready(self):
        import json

        rec = json.loads(json.dumps(replace(DYNAMO, f2=CUSTOM_F2).record()))
        assert rec["id"] == "dynamo"
        assert rec["prior"]["names"] == ["alpha", "delta", "eps"]
        assert rec["f2"] == CUSTOM_F2.constants()
        assert json.loads(json.dumps(NLAR1.record()))["f2"] is None


class TestTrajectoryIO:
    def test_csv_roundtrip_bit_exact(self):
        traj = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 50, 4), x0=0.25)
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert back.x0 == traj.x0
        assert np.array_equal(back.x, traj.x)

    def test_binary_roundtrip(self, tmp_path):
        x = np.random.default_rng(0).random((7, 31))
        path = tmp_path / "batch.traj"
        save_trajectory_batch(path, x, x0=0.25)
        back, x0 = load_trajectory_batch(path)
        assert x0 == 0.25
        assert np.array_equal(back, x)

    @pytest.mark.parametrize("text", ["", "step,x\n", "step,x\n0,0.25\n1,oops\n",
                                      "step,x\n0,0.25\n1\n"])
    def test_malformed_csv_raises_value_error(self, text):
        with pytest.raises(ValueError, match="trajectory CSV"):
            trajectory_from_csv(text)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.traj"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 40)
        with pytest.raises(ValueError):
            load_trajectory_batch(path)


def test_import_and_nlar1_simulation_leave_scipy_special_unloaded():
    # scipy.special is most of `import statforge`'s time; it loads only
    # when the dynamo map or the R-hat diagnostics need it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import statforge

    env = {**os.environ, "PYTHONPATH": str(Path(statforge.__file__).parent.parent)}
    code = ("import sys, statforge\n"
            "statforge.simulate('nlar1', statforge.models.TRUE_THETA['nlar1'],\n"
            "                   statforge.draw_bare_noise('nlar1', 50, 0))\n"
            "print('scipy.special' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.split() == ["False"]
