"""Simulated-annealing ABC in summary-statistic space, plus a rejection baseline.

Statistics are standardized by robust prior-predictive location/scale so the
Euclidean distance treats components comparably.  The annealed sampler keeps
a particle population, perturbs particles with a Gaussian random walk scaled
to the population spread, accepts moves with probability
min(1, exp(-(d' - d) / tol)), and shrinks the tolerance after each sweep by
exp(-velocity * acceptance_rate) -- fast annealing while moves are easy,
automatic slowdown as the population tightens.  The schedule constants are
not dictated by theory; they are recorded in the run manifest.

Per-particle RNG streams are derived from (seed, purpose, sweep, particle), so
results do not depend on evaluation order.  A Philox stream is fixed by its
(key, counter), so each sweep builds one Philox per purpose with
``models.row_streams`` and moves its counter from particle to particle; the
draws are bit-identical to constructing ``stream(seed, purpose, sweep,
particle)`` afresh for every particle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DegenerateStatisticError
from .mcmc import metropolis_accept
from .models import (
    DEFAULT_N_STEPS,
    ModelSpec,
    PriorSpec,
    Trajectory,
    draw_noise_batch,
    model_spec,
    prior_predictive,
    row_streams,
    sample_prior,
    simulate_batch,
    stream,
)
from .samples import SampleSet

_INIT_SWEEP = 0
# The statistics only enter a distance whose tolerance ends near 0.1 of a
# standardised unit, so the encoder runs in float32 for ABC.
ENCODER_DTYPE = np.float32
# purpose tags keep proposal streams and simulation-noise streams disjoint
PROPOSAL_TAG = 1
NOISE_TAG = 2


@dataclass
class Standardizer:
    """Componentwise robust location/scale fitted on prior-predictive statistics."""

    center: np.ndarray
    scale: np.ndarray
    m: int
    seed: int

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.scale = np.asarray(self.scale, dtype=float)

    def apply(self, stats: np.ndarray) -> np.ndarray:
        return (np.asarray(stats, dtype=float) - self.center) / self.scale


@dataclass
class AbcConfig:
    population: int = 1000
    budget: int = 100_000
    velocity: float = 0.3
    proposal_scale: float = 0.5    # random-walk scale as a fraction of population std
    seed: int = 0
    n_steps: int = DEFAULT_N_STEPS

    def __post_init__(self):
        if self.population < 10:
            raise ValueError("population must be >= 10")
        if self.budget < self.population:
            raise ValueError("budget must cover at least the initial population")


@dataclass
class DistanceRecord:
    """Final per-particle distances plus the sampler traces."""

    component: np.ndarray          # (m, q) absolute standardized differences
    total: np.ndarray              # (m,)
    acceptance_trace: np.ndarray
    tolerance_trace: np.ndarray

    def __post_init__(self):
        self.component = np.atleast_2d(np.asarray(self.component, dtype=float))
        self.total = np.asarray(self.total, dtype=float)
        self.acceptance_trace = np.asarray(self.acceptance_trace, dtype=float)
        self.tolerance_trace = np.asarray(self.tolerance_trace, dtype=float)


def standardizer_from_stats(stats: np.ndarray, seed: int = 0) -> Standardizer:
    """Median center; IQR/1.349 scale with a std fallback for flat components."""
    stats = np.atleast_2d(np.asarray(stats, dtype=float))
    center = np.median(stats, axis=0)
    q75, q25 = np.percentile(stats, [75, 25], axis=0)
    scale = (q75 - q25) / 1.349
    flat = scale == 0.0
    if np.any(flat):
        fallback = np.std(stats, axis=0)
        scale = np.where(flat, fallback, scale)
        if np.any(scale == 0.0):
            raise DegenerateStatisticError(
                f"statistic components {np.flatnonzero(scale == 0.0)} have zero spread")
    return Standardizer(center=center, scale=scale, m=stats.shape[0], seed=seed)


def stats_fn_from_weights(weights):
    """Batch statistics via the trained encoder, computed in ENCODER_DTYPE.

    The encoder constants are cast once, here; the standardizer, the
    observation and every particle then get their statistics from the same
    float32 encoder, returned as float64.
    """
    from .encoder import encode_batch, encoder_constants

    constants = encoder_constants(weights, ENCODER_DTYPE)

    def fn(x: np.ndarray, x0: float) -> np.ndarray:
        return encode_batch(x, constants, dtype=ENCODER_DTYPE)

    return fn


def stats_fn_suffstats():
    """Batch statistics via the closed-form triple (alpha_hat, sigma2_hat, order)."""
    from .suffstats import stats_batch

    def fn(x: np.ndarray, x0: float) -> np.ndarray:
        return stats_batch(x, x0)

    return fn


def stats_fn_subset(fn, indices):
    """Restrict a statistics function to selected components."""
    indices = np.asarray(indices, dtype=int)

    def sub(x: np.ndarray, x0: float) -> np.ndarray:
        return fn(x, x0)[:, indices]

    return sub


def fit_standardizer(model, stats_fn, m: int = 2000, seed: int = 0,
                     n_steps: int = DEFAULT_N_STEPS) -> Standardizer:
    """Prior-predictive standardizer from m >= 1000 fresh simulations."""
    if m < 1000:
        raise ValueError("standardizer needs m >= 1000 prior-predictive simulations")
    spec = model_spec(model)
    _, _, x = prior_predictive(spec, m, n_steps, stream(seed, 0xF17))
    return standardizer_from_stats(stats_fn(x, spec.prior.x0), seed=seed)


def distance(s_sim, s_obs, std: Standardizer):
    """Euclidean norm of standardized differences, plus per-component parts."""
    diff = np.abs(std.apply(s_sim) - std.apply(s_obs))
    total = float(np.sqrt(np.sum(diff * diff)))
    return total, diff


def _distance_batch(stats: np.ndarray, s_obs: np.ndarray, std: Standardizer):
    diff = np.abs(std.apply(stats) - std.apply(s_obs)[None, :])
    return np.sqrt(np.sum(diff * diff, axis=1)), diff


def _model_stat_sim(spec: ModelSpec, stats_fn, seed: int, n_steps: int):
    """Per-particle-stream simulator: (thetas, sweep, particle ids) -> stats."""
    prior, draw = spec.prior, spec.noise_draw

    def sim(thetas: np.ndarray, sweep: int, particles: np.ndarray) -> np.ndarray:
        noise = np.empty((thetas.shape[0], n_steps, spec.noise_channels))
        for row, g in enumerate(row_streams(particles, seed, NOISE_TAG, sweep)):
            draw(g, out=noise[row])
        x = simulate_batch(spec, thetas, noise, x0=prior.x0)
        return stats_fn(x, prior.x0)

    return sim


def sabc_core(stat_sim, prior: PriorSpec, s_obs: np.ndarray, std: Standardizer,
              cfg: AbcConfig):
    """Annealed ABC over a generic statistic simulator.

    ``stat_sim(thetas, sweep, particle_ids)`` must return one statistics row
    per theta, using RNG streams derived from (seed, sweep, particle).

    Particle i's proposal in a sweep is drawn from ``stream(cfg.seed,
    PROPOSAL_TAG, sweep, i)``: a standard-normal step, then the uniform of
    its accept test.  The streams of one sweep come from one reused Philox
    (``models.row_streams``), which gives the same bits as a fresh stream
    per particle.  The last sweep may be cut short to stay within the
    budget; stagnation is flagged only when a sweep that was not cut short
    accepts nothing.
    """
    pop = cfg.population
    rng_init = stream(cfg.seed, _INIT_SWEEP)
    thetas = sample_prior(prior, rng_init, size=pop)
    stats = stat_sim(thetas, _INIT_SWEEP, np.arange(pop))
    dist, comp = _distance_batch(stats, s_obs, std)
    sims_used = pop
    tol = float(np.median(dist))
    acceptance_trace = []
    tolerance_trace = [tol]
    sweep = 0
    stagnated = False
    while sims_used < cfg.budget:
        sweep += 1
        spread = np.std(thetas, axis=0)
        scale = np.maximum(cfg.proposal_scale * spread, 1e-12 * prior.ranges)
        z = np.empty_like(thetas)
        u = np.empty(pop)
        for i, g in enumerate(row_streams(range(pop), cfg.seed, PROPOSAL_TAG, sweep)):
            g.standard_normal(out=z[i])
            u[i] = g.random()
        props = thetas + z * scale
        inbox = np.all((props >= prior.lower) & (props <= prior.upper), axis=1)
        candidates = np.flatnonzero(inbox)
        room = cfg.budget - sims_used
        cut_short = candidates.size > room
        if cut_short:
            candidates = candidates[:room]
        n_acc = 0
        if candidates.size:
            new_stats = stat_sim(props[candidates], sweep, candidates)
            new_dist, new_comp = _distance_batch(new_stats, s_obs, std)
            sims_used += candidates.size
            log_ratio = -(new_dist - dist[candidates]) / tol
            accept = metropolis_accept(log_ratio, u[candidates])
            rows = candidates[accept]
            thetas[rows] = props[rows]
            dist[rows] = new_dist[accept]
            comp[rows] = new_comp[accept]
            n_acc = int(accept.sum())
        rate = n_acc / pop
        acceptance_trace.append(rate)
        tol *= float(np.exp(-cfg.velocity * rate))
        tolerance_trace.append(tol)
        if n_acc == 0 and not cut_short:
            warnings.warn("SABC stagnated: zero acceptances over a full sweep",
                          RuntimeWarning)
            stagnated = True
            break
    record = DistanceRecord(component=comp, total=dist,
                            acceptance_trace=np.array(acceptance_trace),
                            tolerance_trace=np.array(tolerance_trace))
    manifest = {
        "method": "sabc",
        "config": asdict(cfg),
        "sims_used": sims_used,
        "sweeps": sweep,
        "final_tolerance": tol,
        "stagnated": stagnated,
        "standardizer": {"center": std.center.tolist(), "scale": std.scale.tolist(),
                         "m": std.m, "seed": std.seed},
    }
    sample = SampleSet(draws=thetas, method="sabc", param_names=prior.names,
                       distances=dist, component_distances=comp, manifest=manifest)
    return sample, record


def sabc_run(model, prior: PriorSpec | None, stats_fn,
             observation: Trajectory, cfg: AbcConfig,
             std: Standardizer | None = None):
    """Annealed ABC against one observed trajectory of a benchmark model.

    ``model`` is a ModelSpec or a model id; a ``prior`` replaces its prior.
    """
    spec = model_spec(model, prior)
    if std is None:
        std = fit_standardizer(spec, stats_fn, m=max(1000, cfg.population),
                               seed=cfg.seed, n_steps=cfg.n_steps)
    s_obs = stats_fn(observation.x[None, :], observation.x0)[0]
    stat_sim = _model_stat_sim(spec, stats_fn, cfg.seed, cfg.n_steps)
    return sabc_core(stat_sim, spec.prior, s_obs, std, cfg)


def rejection_abc(model, prior: PriorSpec | None, stats_fn,
                  observation: Trajectory, n_sims: int, keep_fraction: float,
                  std: Standardizer | None = None, seed: int = 0,
                  n_steps: int = DEFAULT_N_STEPS, chunk: int = 10_000):
    """Keep the smallest-distance fraction of prior-predictive simulations.

    ``model`` is a ModelSpec or a model id; a ``prior`` replaces its prior.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    spec = model_spec(model, prior)
    prior = spec.prior
    if std is None:
        std = fit_standardizer(spec, stats_fn, m=max(1000, min(n_sims, 2000)),
                               seed=seed, n_steps=n_steps)
    s_obs = stats_fn(observation.x[None, :], observation.x0)[0]
    rng = stream(seed, 0xE)
    thetas = sample_prior(prior, rng, size=n_sims)
    dist = np.empty(n_sims)
    comp = None
    for lo in range(0, n_sims, chunk):
        hi = min(lo + chunk, n_sims)
        noise = draw_noise_batch(spec, hi - lo, n_steps, rng)
        x = simulate_batch(spec, thetas[lo:hi], noise, x0=prior.x0)
        d, c = _distance_batch(stats_fn(x, prior.x0), s_obs, std)
        if comp is None:
            comp = np.empty((n_sims, c.shape[1]))
        dist[lo:hi] = d
        comp[lo:hi] = c
    keep = max(1, round(keep_fraction * n_sims))
    order = np.argsort(dist, kind="stable")[:keep]
    manifest = {"method": "rejection", "n_sims": n_sims,
                "keep_fraction": keep_fraction, "seed": seed}
    sample = SampleSet(draws=thetas[order], method="rejection",
                       param_names=prior.names, distances=dist[order],
                       component_distances=comp[order], manifest=manifest)
    record = DistanceRecord(component=comp[order], total=dist[order],
                            acceptance_trace=np.array([]),
                            tolerance_trace=np.array([]))
    return sample, record
