"""Shared convolutional encoder mapping a trajectory to q summary statistics.

The stack is conv(3,16,relu) x2, maxpool(2), conv(3,32,relu) x2,
conv(3,q,linear), global average pooling.  Global pooling makes the output
dimension independent of the input length, so the same weights handle any
N >= 16 and the trainable parameter count never depends on N.

The first p components of the output are trained to regress the model
parameters; the remaining q-p are free auxiliary statistics.  Both
autoencoders use this encoder unchanged; the replica variant simply applies
it elementwise along an extra leading axis.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .models import Trajectory

# (name, kernel, filters-or-None (None = q), activation)
ENCODER_LAYERS = (
    ("conv1_1", 3, 16, "relu"),
    ("conv1_2", 3, 16, "relu"),
    ("maxpool", 2, None, None),
    ("conv2_1", 3, 32, "relu"),
    ("conv2_2", 3, 32, "relu"),
    ("conv3", 3, "q", "linear"),
    ("globpool", None, None, None),
)

# shortest input surviving the stack: L=18 -> 16 -> 14 -> 7 -> 5 -> 3 -> 1
MIN_INPUT_LENGTH = 18


def init_encoder(q: int, rng: np.random.Generator,
                 store: T.ParameterStore | None = None,
                 c_in: int = 1, prefix: str = "encoder.") -> T.ParameterStore:
    """Glorot-uniform kernels, zero biases (conv3 keeps a bias as well)."""
    store = store or T.ParameterStore()
    channels = c_in
    for name, k, filters, _act in ENCODER_LAYERS:
        if filters is None:
            continue
        n_out = q if filters == "q" else filters
        fan_in, fan_out = k * channels, k * n_out
        store.add(prefix + name + ".kernel",
                  T.glorot_uniform(rng, (k, channels, n_out), fan_in, fan_out))
        store.add(prefix + name + ".bias", np.zeros(n_out))
        channels = n_out
    return store


def encode_forward(weights, x, prefix: str = "encoder.", trace: list | None = None):
    """Differentiable forward pass; ``x`` is a Tensor (..., L, C)."""
    x = T.astensor(x)
    if x.shape[-2] < MIN_INPUT_LENGTH:
        raise ValueError(
            f"input length {x.shape[-2]} too short for the conv/pool stack "
            f"(minimum {MIN_INPUT_LENGTH})")
    out = x
    for name, _k, filters, act in ENCODER_LAYERS:
        if name == "maxpool":
            out = T.maxpool1d(out, window=2)
        elif name == "globpool":
            out = T.global_avg_pool(out)
        else:
            out = T.conv1d_valid(out, T.astensor(weights[prefix + name + ".kernel"]),
                                 T.astensor(weights[prefix + name + ".bias"]))
            if act == "relu":
                out = T.relu(out)
        if trace is not None:
            trace.append((name, out.shape))
    return out


def shape_trace(n_steps: int, q: int, lead_shape: tuple = (1,), c_in: int = 1):
    """Layer-by-layer output shapes for a given input length."""
    rng = np.random.default_rng(0)
    store = init_encoder(q, rng, c_in=c_in)
    x = np.zeros(lead_shape + (n_steps, c_in))
    trace: list = []
    encode_forward(store.params, T.Tensor(x), trace=trace)
    return trace


def encoder_constants(weights, dtype=np.float64) -> dict:
    """The encoder's kernels and biases as graph-free ``dtype`` tensors.

    Trainable tensors in ``weights`` are read as constants; arrays already
    of ``dtype`` are shared, not copied.
    """
    return {key: T.Tensor(np.asarray(T.astensor(weights[key]).data, dtype=dtype))
            for name, _k, filters, _act in ENCODER_LAYERS if filters is not None
            for key in (f"encoder.{name}.kernel", f"encoder.{name}.bias")}


def encode_batch(x: np.ndarray, weights, dtype=np.float64) -> np.ndarray:
    """(B, N) or (B, N, C) trajectories -> (B, q) float64 statistics (no graph).

    The weights and the trajectories are cast to ``dtype`` and the forward
    pass runs in it, so inference never builds a graph, whatever holds the
    weights.  float64 (the default) gives the bits of the training graph's
    forward pass; float32 is for callers whose statistics need no more.
    """
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 2:
        x = x[..., None]
    out = encode_forward(encoder_constants(weights, dtype), T.Tensor(x)).data
    return out.astype(np.float64, copy=False)


def encode(traj, weights) -> np.ndarray:
    """Summary statistics (q,) of one trajectory."""
    x = traj.x if isinstance(traj, Trajectory) else np.asarray(traj, dtype=float)
    return encode_batch(x[None, :], weights)[0]


def encoder_subset(weights) -> dict:
    """Encoder-only view of a weights mapping (for ABC-side export)."""
    arrays = weights.arrays() if isinstance(weights, T.ParameterStore) else weights
    sub = {k: np.asarray(v) for k, v in arrays.items() if k.startswith("encoder.")}
    if not sub:
        raise ValueError("no encoder.* entries in weights")
    return sub


def infer_q(weights) -> int:
    """Output dimension encoded in the conv3 kernel shape."""
    arrays = weights.arrays() if isinstance(weights, T.ParameterStore) else weights
    return int(np.asarray(arrays["encoder.conv3.kernel"]).shape[-1])
