"""Random-walk Metropolis over the exact likelihoods (the ground truth).

``CHAINS`` chains (K = 8) advance together as the rows of a (K, p) array.
``chain_length`` is the total number of proposals over all chains, so each
chain takes ``chain_length / K`` steps.  Every step draws a
(K, p) Gaussian move and K uniforms, checks all rows against the prior box
and evaluates the likelihood of the in-box rows in one vectorised call.  The
prior is a flat box, so the acceptance ratio reduces to the likelihood ratio
with a support check; proposals outside the box, or with -inf likelihood
(hard support boundaries of the dynamo density), are rejected outright.

One global scale factor on the componentwise proposal scales adapts toward
a 0.234 acceptance rate during burn-in, from the acceptance pooled over all
chains, and is frozen afterwards (adaptation after burn-in would break
detailed balance).  The kept draws are ordered chain by chain: chain 0's
draws, then chain 1's, and so on.  Convergence is recorded per parameter as
the rank-normalised split-R-hat and bulk effective sample size of Vehtari,
Gelman, Simpson, Carpenter and Buerkner, "Rank-normalization, folding, and
localization", Bayesian Analysis 16 (2021).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DegenerateLikelihoodError
from .models import PriorSpec, Trajectory, log_likelihood_fn, model_spec, stream
from .samples import SampleSet

RHAT_WARN = 1.01        # R-hat above this raises a RuntimeWarning
START_TRIES = 1001      # prior draws a chain tries for a finite starting point
CHAINS = 8              # chains advanced together as array rows


@dataclass
class McmcConfig:
    """Run settings.  ``chain_length`` counts proposals over all chains;
    ``burn_in_frac``, ``thin`` and ``adapt_interval`` apply to the steps of
    each chain, so burn-in adaptation updates the scale factor every
    ``adapt_interval`` steps, which is ``adapt_interval * CHAINS`` proposals."""
    chain_length: int = 200_000     # total proposals, over all chains
    burn_in_frac: float = 0.25      # share of each chain's steps
    thin: int = 10                  # keep every thin-th step of each chain
    proposal_scales: np.ndarray | None = None   # None -> 0.1 * prior range
    seed: int = 0
    target_accept: float = 0.234
    adapt_interval: int = 100       # steps of each chain between scale updates

    def __post_init__(self):
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ValueError("burn_in_frac must be in [0, 1)")
        if self.chain_length < 1:
            raise ValueError("chain_length must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.chain_length % CHAINS:
            raise ValueError(f"chain_length {self.chain_length} is not a multiple "
                             f"of the {CHAINS} chains")
        if self.proposal_scales is not None:
            scales = np.asarray(self.proposal_scales, dtype=float)
            if np.any(scales <= 0):
                raise ValueError("proposal scales must be > 0")
            self.proposal_scales = scales


def metropolis_accept(log_ratio, u):
    """Shared accept/reject rule: accept iff log(u) < log acceptance ratio.
    Elementwise on arrays."""
    return np.log(u) < log_ratio


def _start(loglik, prior: PriorSpec, rng) -> tuple[np.ndarray, float]:
    """A prior draw with a finite likelihood, and that likelihood."""
    for _ in range(START_TRIES):
        theta = prior.lower + rng.random(prior.dim) * prior.ranges
        ll = loglik(theta)
        if np.isfinite(ll):
            return theta, ll
    raise DegenerateLikelihoodError(
        f"none of {START_TRIES} prior draws gives the observation a finite likelihood")


def metropolis_run(model_or_loglik, prior: PriorSpec | None,
                   observation: Trajectory | None, cfg: McmcConfig):
    """Returns (SampleSet, post-burn-in acceptance rate pooled over the chains).

    The first argument is a ModelSpec or a model id, whose exact likelihood
    of ``observation`` is sampled (a ``prior`` replaces the spec's), or
    directly a callable theta -> log-likelihood, which needs a ``prior``; the
    callable is called once per in-box proposal with one (p,) theta.
    Raises DegenerateLikelihoodError when a chain finds no finite likelihood
    in ``START_TRIES`` prior draws.
    """
    if callable(model_or_loglik):
        loglik = model_or_loglik
        if prior is None:
            raise ValueError("a prior is required with a callable likelihood")

        def loglik_rows(rows):
            return np.array([loglik(row) for row in rows], dtype=float)
    else:
        spec = model_spec(model_or_loglik, prior)
        prior = spec.prior
        loglik = loglik_rows = log_likelihood_fn(observation, spec)

    k, p, steps = CHAINS, prior.dim, cfg.chain_length // CHAINS
    lower, upper = prior.lower, prior.upper
    rng = stream(cfg.seed, 0xBEEF)
    burn = int(steps * cfg.burn_in_frac)
    base_scale = (cfg.proposal_scales if cfg.proposal_scales is not None
                  else 0.1 * prior.ranges)

    theta = np.empty((k, p))
    ll = np.empty(k)
    for c in range(k):
        theta[c], ll[c] = _start(loglik, prior, rng)

    log_factor = 0.0
    scale = base_scale * np.exp(log_factor)
    kept = np.empty((k, len(range(burn, steps, cfg.thin)), p))
    window_acc = 0
    acc_post = np.zeros(k, dtype=np.int64)
    for t in range(steps):
        prop = theta + rng.standard_normal((k, p)) * scale
        u = rng.random(k)
        inbox = ((prop >= lower) & (prop <= upper)).all(axis=1)
        llp = np.full(k, -np.inf)
        if inbox.any():
            llp[inbox] = loglik_rows(prop[inbox])
        acc = metropolis_accept(llp - ll, u)
        np.copyto(theta, prop, where=acc[:, None])
        np.copyto(ll, llp, where=acc)
        if t < burn:
            window_acc += np.count_nonzero(acc)
            if (t + 1) % cfg.adapt_interval == 0:
                rate = window_acc / (cfg.adapt_interval * k)
                log_factor = float(np.clip(log_factor + (rate - cfg.target_accept),
                                           -8.0, 8.0))
                scale = base_scale * np.exp(log_factor)
                window_acc = 0
        else:
            acc_post += acc
            if (t - burn) % cfg.thin == 0:
                kept[:, (t - burn) // cfg.thin] = theta

    chain_accept = acc_post / (steps - burn)
    accept_rate = float(chain_accept.mean())
    if accept_rate < 1e-3:
        warnings.warn(f"Metropolis mixing failure: acceptance {accept_rate:.2e} "
                      "after burn-in", RuntimeWarning)
    rhat, ess = convergence(kept)
    if np.any(rhat > RHAT_WARN):
        warnings.warn(f"Metropolis chains disagree: split-R-hat {np.round(rhat, 4).tolist()} "
                      f"exceeds {RHAT_WARN}", RuntimeWarning)
    manifest = {"method": "metropolis", "config": {
        **asdict(cfg),
        "proposal_scales": None if cfg.proposal_scales is None
        else np.asarray(cfg.proposal_scales).tolist()},
        "chains": k,
        "steps_per_chain": steps,
        "acceptance_rate": accept_rate,
        "chain_acceptance": chain_accept.tolist(),
        "rhat": rhat.tolist(),
        "ess_bulk": ess.tolist(),
        "frozen_log_factor": log_factor}
    sample = SampleSet(draws=kept.reshape(-1, p), method="metropolis",
                       param_names=prior.names, manifest=manifest)
    return sample, accept_rate


# ---------------------------------------------------------------------------
# Convergence: rank-normalised split-R-hat and bulk ESS (Vehtari et al. 2021)
# ---------------------------------------------------------------------------

def _split(chains: np.ndarray) -> np.ndarray:
    """(M, n) -> (2M, n // 2): each chain's first and second halves, the
    middle draw of an odd-length chain dropped."""
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half:]])


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks, ties given their average rank."""
    # imported here: scipy.special takes most of `import statforge`'s time
    from scipy.special import ndtri

    flat = chains.ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], flat.size] - 1
    tie_rank = (first + last) / 2.0 + 1.0           # 1-based average rank
    ranks = np.empty(flat.size)
    ranks[order] = np.repeat(tie_rank, last - first + 1)
    return ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(chains.shape)


def _variances(chains: np.ndarray) -> tuple[float, float]:
    """Within-chain variance W and the pooled estimate var+ of (M, n) chains."""
    n = chains.shape[1]
    within = float(chains.var(axis=1, ddof=1).mean())
    between_over_n = float(chains.mean(axis=1).var(ddof=1))
    return within, (n - 1) / n * within + between_over_n


def _rhat(chains: np.ndarray) -> float:
    if np.ptp(chains) == 0.0:           # every draw equal: nothing to disagree on
        return 1.0
    within, var_plus = _variances(chains)
    return float(np.sqrt(var_plus / within)) if within > 0.0 else float("inf")


def _ess(chains: np.ndarray) -> float:
    """Effective sample size of (M, n) chains from their pooled autocorrelation,
    summed with Geyer's initial monotone sequence."""
    m, n = chains.shape
    if np.ptp(chains) == 0.0:
        return float(m * n)
    within, var_plus = _variances(chains)
    centred = chains - chains.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(centred, n=2 * n, axis=1)
    acov = np.fft.irfft(spectrum * spectrum.conj(), n=2 * n, axis=1)[:, :n] / n
    rho = 1.0 - (within - acov.mean(axis=0) * n / (n - 1)) / var_plus
    pairs = rho[:n - n % 2].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[:nonpositive[0] if nonpositive.size else pairs.size]
    tau = -1.0 + 2.0 * np.minimum.accumulate(pairs).sum()
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))


def convergence(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-parameter (R-hat, bulk ESS) of (chains, draws, p) draws.

    R-hat is the larger of the rank-normalised split-R-hat of the draws and
    of their distances from the median (the folded draws, which see a
    difference in spread); the bulk ESS is that of the rank-normalised split
    chains.  A parameter whose draws are all equal gets R-hat 1 and an ESS
    equal to the draw count; chains each constant at different values get
    a huge or infinite R-hat.  Both are NaN (undefined) with fewer than 4 draws
    per chain.
    """
    if draws.shape[1] < 4:
        return np.full(draws.shape[2], np.nan), np.full(draws.shape[2], np.nan)
    rhat, ess = [], []
    for j in range(draws.shape[2]):
        split = _split(draws[:, :, j])
        folded = np.abs(split - np.median(split))
        z = _rank_normalize(split)
        rhat.append(max(_rhat(z), _rhat(_rank_normalize(folded))))
        ess.append(_ess(z))
    return np.array(rhat), np.array(ess)
