"""Short training runs of both autoencoders (a few minutes total).

These runs are far below convergence; they demonstrate the on-the-fly
training loop, the loss decomposition, and the interfaces for encoding and
reconstruction.  Desk-scale runs that actually reach tight regressions use
~2e4 steps (see tests/test_acceptance.py) and the original setting trained
for days.

Run:  python3 demos/04_train_autoencoders_small.py
"""

import numpy as np

from statforge.enca import EncaConfig, enca_decode, train_enca
from statforge.encoder import encode, encoder_subset
from statforge.inca import IncaConfig, predict_theta, train_inca
from statforge.models import TRUE_THETA, draw_bare_noise, draw_noise_batch, \
    prior_for, sample_prior, simulate, simulate_batch, stream

print("=" * 70)
print("1. ENCA: encoder + noise-conditional recurrent decoder (600 steps)")
print("=" * 70)
cfg = EncaConfig(q=3, minibatch=32, steps=600, seed=1, n_steps=50, log_every=100)
result = train_enca("nlar1", cfg)
print(f"{'step':>6} {'loss':>9} {'regression':>11} {'reconstruction':>14}")
for row in result.log:
    print(f"{row['step']:>6} {row['loss']:>9.4f} {row['regression']:>11.4f} "
          f"{row['reconstruction']:>14.4f}")

theta = TRUE_THETA["nlar1"]
noise = draw_bare_noise("nlar1", 50, 99)
traj = simulate("nlar1", theta, noise)
s = encode(traj, encoder_subset(result.store.arrays()))
rec = enca_decode(s, noise, result.store.arrays())
err = np.mean((rec - traj.x) ** 2) / np.mean(traj.x**2)
print(f"\nheld-out trajectory: s = {np.round(s, 4)}")
print(f"relative reconstruction MSE after 600 steps: {err:.3f} "
      "(tightens with longer training)")

print()
print("=" * 70)
print("2. INCA: replica encoding + learned weighted aggregation (600 steps)")
print("=" * 70)
cfg = IncaConfig(q=3, n_replicas=5, theta_batch=12, steps=600, seed=2,
                 n_steps=50, log_every=100)
result = train_inca("nlar1", cfg)
print(f"{'step':>6} {'loss':>9} {'replica_term':>13} {'aggregate_term':>15}")
for row in result.log:
    print(f"{row['step']:>6} {row['loss']:>9.3f} {row['replica_term']:>13.3f} "
          f"{row['aggregate_term']:>15.3f}")

prior = prior_for("nlar1")
rng = stream(55, 0)
theta = sample_prior(prior, rng)
reps = simulate_batch("nlar1", np.tile(theta, (5, 1)),
                      draw_noise_batch("nlar1", 5, 50, rng), x0=prior.x0)
est = predict_theta(result.store.arrays(), reps, p=2)
print(f"\nheld-out replica set: true theta = {np.round(theta, 4)}, "
      f"aggregated estimate = {np.round(est, 4)}")
