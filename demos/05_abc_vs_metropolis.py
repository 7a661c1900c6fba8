"""Likelihood-free inference against the exact-likelihood ground truth.

Uses the closed-form statistic triple (no network training needed) inside
the annealed ABC sampler on a synthetic nlar1 observation, runs the exact
Metropolis sampler on the same observation, and compares the posteriors
with per-marginal Wasserstein-1 distances.  Small budgets keep this under
about a minute; the acceptance-level run uses a 1e5-simulation budget.

Run:  python3 demos/05_abc_vs_metropolis.py
"""

import numpy as np

from statforge.abcsampler import AbcConfig, rejection_abc, sabc_run, stats_fn_suffstats
from statforge.diagnostics import distance_quantiles, marginal_wasserstein
from statforge.mcmc import McmcConfig, metropolis_run
from statforge.models import NLAR1_PRIOR, TRUE_THETA, draw_bare_noise, simulate_nlar1
from statforge.suffstats import suff_stats

theta_true = TRUE_THETA["nlar1"]
obs = simulate_nlar1(theta_true, draw_bare_noise("nlar1", 200, 2024), x0=0.25)
st = suff_stats(obs)
print(f"observation at theta={tuple(theta_true)}; "
      f"attractor: {'nonzero' if st.order > 1e-3 else 'zero'}")

print("\nMetropolis ground truth (40k steps)...")
mc, rate = metropolis_run("nlar1", None, obs, McmcConfig(chain_length=40_000, seed=5))
print(f"  kept {mc.m} draws, acceptance {rate:.2f}, "
      f"mean={np.round(mc.draws.mean(axis=0), 4)}, "
      f"sd={np.round(mc.draws.std(axis=0), 5)}")

print("\nSimulated-annealing ABC with (alpha_hat, sigma2_hat, order), 2e4 sims...")
cfg = AbcConfig(population=500, budget=20_000, velocity=0.3, seed=7, n_steps=200)
sabc, _ = sabc_run("nlar1", None, stats_fn_suffstats(), obs, cfg)
print(f"  sweeps={sabc.manifest['sweeps']}, final tolerance="
      f"{sabc.manifest['final_tolerance']:.3g}")
print(f"  mean={np.round(sabc.draws.mean(axis=0), 4)}, "
      f"sd={np.round(sabc.draws.std(axis=0), 5)}")
print(f"  99% distance quantiles per statistic: "
      f"{np.round(distance_quantiles(sabc.component_distances, 0.99), 3)}")

print("\nRejection-ABC baseline at the same budget (keep 2.5%)...")
rej, _ = rejection_abc("nlar1", None, stats_fn_suffstats(), obs, n_sims=20_000,
                       keep_fraction=0.025, seed=7, n_steps=200)
print(f"  mean={np.round(rej.draws.mean(axis=0), 4)}, "
      f"sd={np.round(rej.draws.std(axis=0), 5)}")

print("\nWasserstein-1 to the Metropolis posterior (fraction of prior range):")
totals = {}
for name, sample in (("SABC", sabc), ("rejection", rej)):
    raw, normed = marginal_wasserstein(sample, mc, NLAR1_PRIOR)
    totals[name] = normed.sum()
    print(f"  {name:10s} alpha: {normed[0]:.4f}   sigma: {normed[1]:.4f}")
closer = min(totals, key=totals.get)
print(f"\n{closer} is closer to the Metropolis posterior at this budget "
      f"(summed W1 {totals[closer]:.4f} against {max(totals.values()):.4f})")
