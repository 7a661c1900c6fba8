"""Implicit noise conditional autoencoder.

Instead of bare noise, the decoder sees n replica statistics encoded from
independent realizations at the same parameter values.  A small MLP maps each
replica's auxiliary statistics to a scalar weight in (0,1); the parameter
estimate is the weighted average of the replica regressors, so it always
stays inside their convex hull.  Loss: per-replica regression residuals plus
the aggregated estimate's residual, both as squared relative errors.

Replica sums are evaluated in a canonical order (rows sorted
lexicographically), which makes `aggregate` and `inca_loss` bit-exactly
invariant under any permutation of the replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .encoder import encode_batch, encode_forward, init_encoder
from .errors import StatforgeError
from .models import (
    DEFAULT_N_STEPS,
    draw_noise_batch,
    model_spec,
    sample_prior,
    simulate_batch,
    stream,
)

# (name, units, activation) acting on the q-p auxiliary statistics
WNET_LAYERS = (
    ("fc1", 3, "leakyrelu"),
    ("fc2", 10, "leakyrelu"),
    ("fc3", 3, "leakyrelu"),
    ("fc4", 1, "sigmoid"),
)


@dataclass
class IncaConfig:
    q: int = 3
    n_replicas: int = 5
    theta_batch: int = 60
    steps: int = 1000
    lr: float = 1e-3
    seed: int = 0
    n_steps: int = DEFAULT_N_STEPS
    log_every: int = 100

    def __post_init__(self):
        for name in ("q", "n_replicas", "theta_batch", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and > 0")


def init_inca(model, q: int, rng: np.random.Generator) -> T.ParameterStore:
    store = init_encoder(q, rng)
    d_in = q - model_spec(model).prior.dim
    if d_in > 0:
        for name, units, _act in WNET_LAYERS:
            store.add(f"wnet.{name}.weight",
                      T.glorot_uniform(rng, (d_in, units), d_in, units))
            store.add(f"wnet.{name}.bias", np.zeros(units))
            d_in = units
    return store


def weight_fn_forward(weights, aux):
    """Differentiable weight net on auxiliary statistics (..., q-p) -> (..., 1)."""
    out = T.astensor(aux)
    for name, _units, act in WNET_LAYERS:
        out = T.dense(out, T.astensor(weights[f"wnet.{name}.weight"]),
                      T.astensor(weights[f"wnet.{name}.bias"]), act)
    return out


def weight_fn(aux, weights) -> np.ndarray:
    """Replica weights in (0,1); with no auxiliary statistics every w is 0.5."""
    aux = np.asarray(aux, dtype=float)
    if aux.shape[-1] == 0:
        return np.full(aux.shape[:-1], 0.5)
    return weight_fn_forward(weights, T.Tensor(aux)).data[..., 0]


def _canonical_order(stats: np.ndarray, w: np.ndarray) -> np.ndarray:
    # lexicographic row order (statistics columns first, weight as tiebreaker)
    keys = [w] + [stats[:, j] for j in range(stats.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def aggregate(stats, w, p: int) -> np.ndarray:
    """Weighted replica average (p,) of the first p statistics, Σ w_j s_j / Σ w_j."""
    stats = np.atleast_2d(np.asarray(stats, dtype=float))
    w = np.asarray(w, dtype=float)
    order = _canonical_order(stats, w)
    ws = w[order]
    total = float(np.sum(ws))
    if total < 1e-300:
        raise StatforgeError("degenerate replica weights: sum underflows")
    num = np.sum(ws[:, None] * stats[order, :p], axis=0)
    return num / total


def inca_loss(stats, theta_hat, theta) -> float:
    """Replica regression residuals plus aggregate residual (relative errors)."""
    stats = np.atleast_2d(np.asarray(stats, dtype=float))
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[0]
    rel = (stats[:, :p] - theta) / theta
    order = _canonical_order(stats, np.zeros(stats.shape[0]))
    term1 = float(np.sum((rel * rel)[order]))
    term2 = float(np.sum(((theta_hat - theta) / theta) ** 2))
    return term1 + term2


def training_losses(store, thetas, x, p: int):
    """Loss tensors for one (theta-batch, replicas) minibatch."""
    n_theta, n_rep, n_steps = x.shape
    q = store["encoder.conv3.bias"].data.shape[0]
    s = encode_forward(store.params, T.Tensor(x[..., None]))  # (B, n, q)
    theta_b = thetas[:, None, :]
    rel = T.mul(T.sub(s[:, :, :p], theta_b), 1.0 / theta_b)
    term1 = T.mul(T.tsum(T.mul(rel, rel)), 1.0 / n_theta)
    if q > p:
        w = weight_fn_forward(store.params, s[:, :, p:])  # (B, n, 1)
    else:
        w = T.Tensor(np.full((n_theta, n_rep, 1), 0.5))
    num = T.tsum(T.mul(w, s[:, :, :p]), axis=1)  # (B, p)
    den = T.tsum(w, axis=1)                      # (B, 1)
    theta_hat = T.div(num, den)
    rel2 = T.mul(T.sub(theta_hat, thetas), 1.0 / thetas)
    term2 = T.mul(T.tsum(T.mul(rel2, rel2)), 1.0 / n_theta)
    return T.add(term1, term2), term1, term2, theta_hat


def train_inca(model, cfg: IncaConfig) -> T.TrainResult:
    """Per step: draw theta batch, simulate n replicas each, encode, aggregate.

    ``model`` is a ModelSpec or a model id; its prior and f2 drive every
    simulation.
    """
    spec = model_spec(model)
    prior = spec.prior
    store = init_inca(spec, cfg.q, stream(cfg.seed, 1))
    data_rng = stream(cfg.seed, 2)
    meta = {
        "model": spec.record(),
        "architecture": "inca",
        "config": asdict(cfg),
        "init": "glorot-uniform conv/dense",
        "conv3_bias": True,
    }

    def batch_losses():
        # not prior_predictive: the noise rows follow the repeated thetas
        thetas = sample_prior(prior, data_rng, size=cfg.theta_batch)
        rep_thetas = np.repeat(thetas, cfg.n_replicas, axis=0)
        noise = draw_noise_batch(spec, rep_thetas.shape[0], cfg.n_steps, data_rng)
        x = simulate_batch(spec, rep_thetas, noise, x0=prior.x0)
        x = x.reshape(cfg.theta_batch, cfg.n_replicas, cfg.n_steps)
        loss, term1, term2, _ = training_losses(store, thetas, x, prior.dim)
        return loss, {"replica_term": term1, "aggregate_term": term2}

    return T.train(store, batch_losses, cfg.steps, cfg.lr, cfg.log_every, meta)


def predict_theta(weights, x_replicas: np.ndarray, p: int) -> np.ndarray:
    """Aggregated estimate for one replica set (n, N) of trajectories."""
    stats = encode_batch(x_replicas, weights)
    w = weight_fn(stats[:, p:], weights)
    return aggregate(stats, w, p)
