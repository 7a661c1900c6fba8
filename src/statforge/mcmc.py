"""Random-walk Metropolis over the exact likelihoods (the ground truth).

Componentwise Gaussian proposals with a global scale factor adapted toward a
0.234 acceptance rate during burn-in and frozen afterwards (adaptation after
burn-in would break detailed balance).  The prior is a flat box, so the
acceptance ratio reduces to the likelihood ratio with a support check;
proposals outside the box, or with -inf likelihood (hard support boundaries
of the dynamo density), are rejected outright.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DegenerateLikelihoodError
from .models import PriorSpec, Trajectory, log_likelihood_fn, model_spec, stream
from .samples import SampleSet


@dataclass
class McmcConfig:
    chain_length: int = 200_000
    burn_in_frac: float = 0.25
    thin: int = 10
    proposal_scales: np.ndarray | None = None   # None -> 0.1 * prior range
    seed: int = 0
    target_accept: float = 0.234
    adapt_interval: int = 100

    def __post_init__(self):
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ValueError("burn_in_frac must be in [0, 1)")
        if self.proposal_scales is not None:
            scales = np.asarray(self.proposal_scales, dtype=float)
            if np.any(scales <= 0):
                raise ValueError("proposal scales must be > 0")
            self.proposal_scales = scales


def metropolis_accept(log_ratio: float, u: float) -> bool:
    """Shared accept/reject rule: accept iff log(u) < log acceptance ratio."""
    return np.log(u) < log_ratio


def metropolis_run(model_or_loglik, prior: PriorSpec | None,
                   observation: Trajectory | None, cfg: McmcConfig):
    """Returns (SampleSet, post-burn-in acceptance rate).

    The first argument is a ModelSpec or a model id, whose exact likelihood
    of ``observation`` is sampled (a ``prior`` replaces the spec's), or
    directly a callable theta -> log-likelihood, which needs a ``prior``.
    Raises DegenerateLikelihoodError when no prior draw tried as a starting
    point has a finite likelihood.
    """
    if callable(model_or_loglik):
        loglik = model_or_loglik
        if prior is None:
            raise ValueError("a prior is required with a callable likelihood")
    else:
        spec = model_spec(model_or_loglik, prior)
        prior = spec.prior
        loglik = log_likelihood_fn(observation, spec)

    p = prior.dim
    lower, upper = prior.lower, prior.upper
    rng = stream(cfg.seed, 0xBEEF)
    burn = int(cfg.chain_length * cfg.burn_in_frac)
    base_scale = (cfg.proposal_scales if cfg.proposal_scales is not None
                  else 0.1 * prior.ranges)

    theta = prior.lower + rng.random(p) * prior.ranges
    ll = loglik(theta)
    tries = 0
    while not np.isfinite(ll):
        theta = prior.lower + rng.random(p) * prior.ranges
        ll = loglik(theta)
        tries += 1
        if tries > 1000:
            raise DegenerateLikelihoodError(
                "none of 1001 prior draws gives the observation a finite likelihood")

    log_factor = 0.0
    step_factor = np.exp(log_factor)
    kept = []
    window_acc = 0
    acc_post = 0
    for t in range(cfg.chain_length):
        prop = theta + rng.standard_normal(p) * base_scale * step_factor
        if (prop >= lower).all() and (prop <= upper).all():
            llp = loglik(prop)
            if metropolis_accept(llp - ll, rng.random()):
                theta, ll = prop, llp
                window_acc += 1
                if t >= burn:
                    acc_post += 1
        if t < burn and (t + 1) % cfg.adapt_interval == 0:
            rate = window_acc / cfg.adapt_interval
            log_factor = float(np.clip(log_factor + (rate - cfg.target_accept), -8.0, 8.0))
            step_factor = np.exp(log_factor)
            window_acc = 0
        elif t == burn - 1:
            window_acc = 0
        if t >= burn and (t - burn) % cfg.thin == 0:
            kept.append(theta.copy())

    n_post = cfg.chain_length - burn
    accept_rate = acc_post / max(n_post, 1)
    if accept_rate < 1e-3:
        warnings.warn(f"Metropolis mixing failure: acceptance {accept_rate:.2e} "
                      "after burn-in", RuntimeWarning)
    manifest = {"method": "metropolis", "config": {
        **asdict(cfg),
        "proposal_scales": None if cfg.proposal_scales is None
        else np.asarray(cfg.proposal_scales).tolist()},
        "acceptance_rate": accept_rate,
        "frozen_log_factor": log_factor}
    sample = SampleSet(draws=np.array(kept), method="metropolis",
                       param_names=prior.names, manifest=manifest)
    return sample, accept_rate


def batch_means_se(draws: np.ndarray, n_batches: int = 20) -> np.ndarray:
    """Monte-Carlo standard error of the chain mean via batch means."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] < 2 * n_batches:
        n_batches = max(2, draws.shape[0] // 2)
    usable = (draws.shape[0] // n_batches) * n_batches
    batches = draws[:usable].reshape(n_batches, -1, draws.shape[1]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)
