"""Simulated-annealing ABC in summary-statistic space, plus a rejection baseline.

Statistics are standardized by robust prior-predictive location/scale so the
Euclidean distance treats components comparably.  The annealed sampler keeps
a particle population, perturbs particles with a Gaussian random walk scaled
to the population spread, accepts moves with probability
min(1, exp(-(d' - d) / tol)), and shrinks the tolerance after each sweep by
exp(-velocity * acceptance_rate) -- fast annealing while moves are easy,
automatic slowdown as the population tightens.  The schedule constants are
not dictated by theory; they are recorded in the run manifest.

Each sweep draws from two counter-based streams, one per purpose:
``stream(seed, PROPOSAL_TAG, sweep)`` gives every particle's proposal step
and accept uniform, ``stream(seed, NOISE_TAG, sweep)`` the simulation noise.
Particle i uses row i of each block.  numpy fills a block in C order, so a
shorter block is a prefix of a longer one: a particle's draws depend only on
(seed, purpose, sweep, particle), not on which particles are candidates.

``sabc_run`` draws each sweep's noise block on a worker thread during the
sweep before (``_model_stat_sim``) and has glibc keep freed memory
(``tensor.keep_freed_memory``) so that a sweep reuses the pages of the one
before; neither changes a draw.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
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
    sample_prior,
    simulate_batch,
    stream,
)
from .samples import SampleSet
from .tensor import keep_freed_memory

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
        if not self.velocity >= 0.0:
            raise ValueError("velocity must be >= 0")
        if not self.proposal_scale > 0.0:
            raise ValueError("proposal_scale must be > 0")


@dataclass
class SweepTrace:
    """Per-sweep acceptance rate and tolerance of an ABC run; rejection ABC
    has no sweeps and leaves both empty."""

    acceptance_trace: np.ndarray
    tolerance_trace: np.ndarray


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
    """Euclidean norm of standardized differences, plus per-component parts.

    (B, q) statistics give (B,) totals and (B, q) parts; one (q,) row gives
    a float and its (q,) parts, computed as the B=1 batch.
    """
    s_sim = np.asarray(s_sim, dtype=float)
    diff = np.abs(std.apply(np.atleast_2d(s_sim)) - std.apply(s_obs))
    total = np.sqrt(np.sum(diff * diff, axis=1))
    if s_sim.ndim == 1:
        return float(total[0]), diff[0]
    return total, diff


def _model_stat_sim(spec: ModelSpec, stats_fn, seed: int, n_steps: int,
                    population: int, pool):
    """(thetas, sweep, ascending particle ids) -> stats; particle i simulates
    with row i of the noise block of ``stream(seed, NOISE_TAG, sweep)``.

    One (population, n_steps, c) block is kept.  Each call copies its rows
    out and has ``pool``'s worker fill the block for the next sweep while
    the candidates simulate; a call for any other sweep first refills it
    here.  The worker runs only ``spec.noise_draw``, on a generator built on
    this thread.  A C-order fill of all rows has a shorter fill's rows as its
    prefix, so a particle's row does not depend on when the block was filled.
    """
    x0 = spec.prior.x0
    block = np.empty((population, n_steps, spec.noise_channels))
    ahead, filling = None, None     # the sweep the worker fills the block for

    def sim(thetas: np.ndarray, sweep: int, particles: np.ndarray) -> np.ndarray:
        nonlocal ahead, filling
        if filling is not None:
            filling.result()
        if ahead != sweep:
            spec.noise_draw(stream(seed, NOISE_TAG, sweep), out=block)
        noise = block[particles]
        ahead = sweep + 1
        filling = pool.submit(spec.noise_draw, stream(seed, NOISE_TAG, ahead), out=block)
        x = simulate_batch(spec, thetas, noise, x0=x0)
        return stats_fn(x, x0)

    return sim


def sabc_core(stat_sim, prior: PriorSpec, s_obs: np.ndarray, std: Standardizer,
              cfg: AbcConfig):
    """Annealed ABC over a generic statistic simulator.

    ``stat_sim(thetas, sweep, particle_ids)`` must return one statistics row
    per theta, drawing the randomness of particle i from row i of the
    sweep's blocks; the ids come in ascending order.

    Each sweep draws the (population, p) standard-normal proposal steps and
    then the population's accept uniforms from ``stream(cfg.seed,
    PROPOSAL_TAG, sweep)``; particle i uses row i of both.  The last sweep
    may be cut short to stay within the budget; stagnation is flagged only
    when a sweep that was not cut short accepts nothing.
    """
    pop = cfg.population
    rng_init = stream(cfg.seed, _INIT_SWEEP)
    thetas = sample_prior(prior, rng_init, size=pop)
    stats = stat_sim(thetas, _INIT_SWEEP, np.arange(pop))
    dist, comp = distance(stats, s_obs, std)
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
        g = stream(cfg.seed, PROPOSAL_TAG, sweep)
        z = g.standard_normal(thetas.shape)
        u = g.random(pop)
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
            new_dist, new_comp = distance(new_stats, s_obs, std)
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
    trace = SweepTrace(acceptance_trace=np.array(acceptance_trace),
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
    return sample, trace


def sabc_run(model, prior: PriorSpec | None, stats_fn,
             observation: Trajectory, cfg: AbcConfig,
             std: Standardizer | None = None):
    """Annealed ABC against one observed trajectory of a benchmark model.

    ``model`` is a ModelSpec or a model id; a ``prior`` replaces its prior.
    The manifest records whether ``keep_freed_memory`` took effect.
    """
    freed_kept = keep_freed_memory()
    spec = model_spec(model, prior)
    if std is None:
        std = fit_standardizer(spec, stats_fn, m=max(1000, cfg.population),
                               seed=cfg.seed, n_steps=cfg.n_steps)
    s_obs = stats_fn(observation.x[None, :], observation.x0)[0]
    with ThreadPoolExecutor(max_workers=1) as pool:
        stat_sim = _model_stat_sim(spec, stats_fn, cfg.seed, cfg.n_steps,
                                   cfg.population, pool)
        sample, trace = sabc_core(stat_sim, spec.prior, s_obs, std, cfg)
    sample.manifest["keep_freed_memory"] = freed_kept
    return sample, trace


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
        d, c = distance(stats_fn(x, prior.x0), s_obs, std)
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
    return sample, SweepTrace(acceptance_trace=np.array([]), tolerance_trace=np.array([]))
