"""The tensor engine and the three network architectures.

Walks the encoder shape trace for a length-200 input, shows the ENCA decoder
and the INCA weight-net shapes, counts trainable parameters (independent of
the input length), and validates a composite-network gradient against
central finite differences.

Run:  python3 demos/03_autodiff_and_architectures.py
"""

import numpy as np

import statforge.tensor as T
from statforge.enca import decode_forward, init_enca
from statforge.encoder import encoder_subset, init_encoder, shape_trace
from statforge.inca import WNET_LAYERS, init_inca

print("=" * 70)
print("1. Encoder shape trace, length-200 input (batch 8)")
print("=" * 70)
for name, shape in shape_trace(200, q=3, lead_shape=(8,)):
    print(f"  {name:10s} -> {shape}")
print("with a replica axis (batch 8, n=5):")
for name, shape in shape_trace(200, q=3, lead_shape=(8, 5))[-2:]:
    print(f"  {name:10s} -> {shape}")

print()
print("=" * 70)
print("2. Decoder shapes")
print("=" * 70)
rng = np.random.default_rng(0)
enca = init_enca("nlar1", 3, rng)
s = T.Tensor(np.zeros((8, 3)))
noise = np.zeros((8, 200, 1))
x_hat = decode_forward(enca.params, s, noise)
print(f"  ENCA: summaries (8, 3) + noise (8, 200, 1) -> reconstruction {x_hat.shape}")
inca = init_inca("nlar1", 4, np.random.default_rng(1))  # p=2 -> 2 auxiliaries
h = T.Tensor(np.zeros((8, 5, 2)))
for name, units, act in WNET_LAYERS:
    h = T.dense(h, inca[f"wnet.{name}.weight"], inca[f"wnet.{name}.bias"], act)
    print(f"  INCA weight net {name}: -> {h.shape} ({act})")

print()
print("=" * 70)
print("3. Parameter counts (length-invariant by construction)")
print("=" * 70)
enc = init_encoder(3, np.random.default_rng(2))
print(f"  encoder q=3:            {T.count_parameters(enc):6d}")
print(f"  ENCA total (nlar1, q=3): {T.count_parameters(init_enca('nlar1', 3, np.random.default_rng(3))):6d}")
print(f"  INCA total (nlar1, q=4): {T.count_parameters(init_inca('nlar1', 4, np.random.default_rng(4))):6d}")
print("  (the encoder never sees the trajectory length: global average pooling)")

print()
print("=" * 70)
print("4. Gradient check: conv -> pool -> dense chain vs finite differences")
print("=" * 70)
rng = np.random.default_rng(5)
x = T.Tensor(rng.standard_normal((2, 20, 1)))
k = T.Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True)
kb = T.Tensor(np.zeros(4), requires_grad=True)
w = T.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
b = T.Tensor(np.zeros(2), requires_grad=True)


def forward():
    h = T.relu(T.conv1d_valid(x, k, kb))
    h = T.global_avg_pool(T.maxpool1d(h))
    return T.tsum(T.power(T.dense(h, w, b, "tanh"), 2.0))


loss = forward()
T.backward(loss)
worst = 0.0
h_step = 1e-4
for t in (k, kb, w, b):
    flat = t.data.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h_step
        up = float(forward().data)
        flat[i] = orig - h_step
        dn = float(forward().data)
        flat[i] = orig
        fd = (up - dn) / (2 * h_step)
        an = t.grad.ravel()[i]
        ref = max(abs(fd), abs(an), 1e-6)
        worst = max(worst, abs(fd - an) / ref)
print(f"  max relative gradient error over all parameters: {worst:.2e}")
