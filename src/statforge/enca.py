"""Explicit noise conditional autoencoder.

The encoder compresses a trajectory into q statistics; the decoder gets those
statistics tiled over time together with the exact bare-noise record that
generated the trajectory, and reconstructs the trajectory with a two-layer
bidirectional LSTM plus a per-step linear readout.  Joint loss: mean squared
relative error of the parameter regressors plus mean squared relative
reconstruction error.

Reconstruction denominators are floored at c_x because trajectory values can
sit arbitrarily close to zero in the zero attractor; the default floor is
5% of the prior-predictive standard deviation of |x| from a pilot run.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .encoder import encode_forward, init_encoder
from .models import DEFAULT_N_STEPS, BareNoise, model_spec, prior_predictive, stream


@dataclass
class EncaConfig:
    q: int = 3
    minibatch: int | None = None   # None -> the spec's enca_minibatch
    steps: int = 1000
    lr: float = 1e-3
    seed: int = 0
    n_steps: int = DEFAULT_N_STEPS
    c_x: float | None = None       # None -> pilot estimate
    log_every: int = 100

    def __post_init__(self):
        for name in ("q", "minibatch", "log_every"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and > 0")
        if self.c_x is not None and not (np.isfinite(self.c_x) and self.c_x > 0.0):
            raise ValueError("c_x must be finite and > 0")


def _init_bilstm(store: T.ParameterStore, prefix: str, c_in: int, units: int,
                 rng: np.random.Generator):
    for tag in ("f", "b"):
        store.add(f"{prefix}wx_{tag}",
                  T.glorot_uniform(rng, (c_in, 4 * units), c_in, 4 * units))
        store.add(f"{prefix}wh_{tag}",
                  T.glorot_uniform(rng, (units, 4 * units), units, 4 * units))
        bias = np.zeros(4 * units)
        bias[units:2 * units] = 1.0  # forget-gate bias
        store.add(f"{prefix}b_{tag}", bias)


def init_enca(model, q: int, rng: np.random.Generator) -> T.ParameterStore:
    store = init_encoder(q, rng)
    c = model_spec(model).noise_channels
    _init_bilstm(store, "decoder.bilstm1.", q + c, 16, rng)
    _init_bilstm(store, "decoder.bilstm2.", 32, 16, rng)
    store.add("decoder.fc.weight", T.glorot_uniform(rng, (32, 1), 32, 1))
    store.add("decoder.fc.bias", np.zeros(1))
    return store


def _bilstm_params(weights, prefix: str):
    return tuple(T.astensor(weights[f"{prefix}{k}"])
                 for k in ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b"))


def decode_forward(weights, s, noise: np.ndarray):
    """Differentiable decoder: summaries (B, q) + noise (B, N, c) -> (B, N).

    Decoder step t is paired with the noise row that generated x_t.
    """
    s = T.astensor(s)
    noise = np.asarray(noise, dtype=float)
    n_steps = noise.shape[-2]
    expected = weights["decoder.bilstm1.wx_f"]
    in_dim = (expected.data if isinstance(expected, T.Tensor) else np.asarray(expected)).shape[0]
    if s.shape[-1] + noise.shape[-1] != in_dim:
        raise ValueError(
            f"decoder expects per-step feature dim {in_dim}, got "
            f"q={s.shape[-1]} plus c={noise.shape[-1]}")
    h = T.concat([T.tile_time(s, n_steps), T.Tensor(noise)], axis=-1)
    h = T.bilstm(h, *_bilstm_params(weights, "decoder.bilstm1."))
    h = T.bilstm(h, *_bilstm_params(weights, "decoder.bilstm2."))
    y = T.dense(h, T.astensor(weights["decoder.fc.weight"]),
                T.astensor(weights["decoder.fc.bias"]), "linear")
    return T.reshape(y, y.shape[:-1])


def enca_decode(s, noise: BareNoise, weights) -> np.ndarray:
    """Reconstruct one trajectory (N,) from its statistics and bare noise."""
    s = np.asarray(s, dtype=float)
    return decode_forward(weights, T.Tensor(s[None, :]), noise.channels[None]).data[0]


def estimate_cx(model, n_pilot: int = 10_000, n_steps: int = DEFAULT_N_STEPS,
                seed: int = 0) -> float:
    """Denominator floor: 0.05 * prior-predictive std of |x| over a pilot run."""
    _, _, x = prior_predictive(model, n_pilot, n_steps, stream(seed, 0xC0))
    return 0.05 * float(np.std(np.abs(x)))


def training_losses(store, thetas, noise, x, c_x: float):
    """Forward pass + loss tensors for one minibatch; returns (loss, reg, rec)."""
    batch, n_steps = x.shape
    p = thetas.shape[1]
    s = encode_forward(store.params, T.Tensor(x[..., None]))
    rel = T.mul(T.sub(s[:, :p], thetas), 1.0 / thetas)
    reg = T.mul(T.tsum(T.mul(rel, rel)), 1.0 / (batch * p))
    x_hat = decode_forward(store.params, s, noise)
    denom = np.maximum(np.abs(x), c_x)
    rrel = T.mul(T.sub(x_hat, x), 1.0 / denom)
    rec = T.mul(T.tsum(T.mul(rrel, rrel)), 1.0 / (batch * n_steps))
    return T.add(reg, rec), reg, rec


def train_enca(model, cfg: EncaConfig) -> T.TrainResult:
    """On-the-fly training: fresh prior draws and noise every step.

    ``model`` is a ModelSpec or a model id; its prior and f2 drive every
    simulation.  Single-threaded and bit-reproducible for a fixed seed.
    Raises TrainingDivergedError (carrying the last checkpoint) if the loss
    or a gradient goes non-finite.
    """
    spec = model_spec(model)
    minibatch = cfg.minibatch if cfg.minibatch is not None else spec.enca_minibatch
    store = init_enca(spec, cfg.q, stream(cfg.seed, 1))
    data_rng = stream(cfg.seed, 2)
    c_x = cfg.c_x if cfg.c_x is not None else estimate_cx(
        spec, n_steps=cfg.n_steps, seed=cfg.seed)
    meta = {
        "model": spec.record(),
        "architecture": "enca",
        "config": {**asdict(cfg), "minibatch": minibatch},
        "c_x": c_x,
        "init": "glorot-uniform conv/dense, uniform lstm with forget bias 1.0",
        "conv3_bias": True,
    }

    def batch_losses():
        thetas, noise, x = prior_predictive(spec, minibatch, cfg.n_steps, data_rng)
        loss, reg, rec = training_losses(store, thetas, noise, x, c_x)
        return loss, {"regression": reg, "reconstruction": rec}

    return T.train(store, batch_losses, cfg.steps, cfg.lr, cfg.log_every, meta)
