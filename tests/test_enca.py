import numpy as np
import pytest

from conftest import fd_gradient_subset

import statforge.tensor as T
from statforge.enca import (
    EncaConfig,
    decode_forward,
    enca_decode,
    estimate_cx,
    init_enca,
    train_enca,
    training_losses,
)
from statforge.encoder import encode_forward
from statforge.models import draw_bare_noise, draw_noise_batch, sample_prior, \
    simulate_batch, prior_for, stream


def enca_loss(s, theta, x_hat, x, c_x: float) -> float:
    """Numpy oracle of one sample's joint loss: regression plus reconstruction term."""
    s, theta, x_hat, x = (np.asarray(a, dtype=float) for a in (s, theta, x_hat, x))
    p = theta.shape[0]
    reg = float(np.mean(((s[:p] - theta) / theta) ** 2))
    denom = np.maximum(np.abs(x), c_x)
    rec = float(np.mean(((x_hat - x) / denom) ** 2))
    return reg + rec


@pytest.fixture
def store():
    return init_enca("nlar1", 3, np.random.default_rng(0))


class TestDecodeShapes:
    def test_table_shapes(self, store):
        s = T.Tensor(np.random.default_rng(1).random((4, 3)))
        noise = np.random.default_rng(2).standard_normal((4, 200, 1))
        h = T.concat([T.tile_time(s, 200), T.Tensor(noise)], axis=-1)
        assert h.shape == (4, 200, 4)
        out = decode_forward(store.params, s, noise)
        assert out.shape == (4, 200)

    def test_dynamo_channel_dim(self):
        st = init_enca("dynamo", 3, np.random.default_rng(3))
        s = T.Tensor(np.zeros((2, 3)))
        noise = np.random.default_rng(0).random((2, 50, 2))
        assert decode_forward(st.params, s, noise).shape == (2, 50)

    def test_channel_mismatch_raises(self, store):
        with pytest.raises(ValueError):
            decode_forward(store.params, T.Tensor(np.zeros((1, 3))),
                           np.zeros((1, 50, 2)))

    def test_zero_decoder_weights_zero_output(self, store):
        for name in store.names():
            if name.startswith("decoder."):
                store[name].data[:] = 0.0
        noise = draw_bare_noise("nlar1", 60, 4)
        rec = enca_decode(np.array([0.2, 0.4, 0.1]), noise, store.params)
        assert np.all(rec == 0.0)
        assert rec.shape == (60,)


class TestEncaLoss:
    def test_exact_fit_zero(self):
        x = np.random.default_rng(0).random(50)
        theta = np.array([5.3, 0.015])
        assert enca_loss(np.array([5.3, 0.015, 0.7]), theta, x, x, c_x=0.05) == 0.0

    def test_single_relative_error(self):
        theta = np.array([5.0, 0.02])
        s = np.array([10.0, 0.02, 0.0])  # first regressor off by a factor 2
        x = np.ones(10)
        assert enca_loss(s, theta, x, x, c_x=0.05) == pytest.approx(0.5)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q, n = 2, 4, 30
            theta = rng.uniform(0.5, 2.0, p)
            s = rng.standard_normal(q)
            x = rng.standard_normal(n)
            x_hat = x + 0.1 * rng.standard_normal(n)
            c_x = 0.07
            # straight-line re-implementation of the loss formula
            expected = sum((s[a] - theta[a]) ** 2 / theta[a] ** 2 for a in range(p)) / p
            expected += sum((x_hat[i] - x[i]) ** 2 / max(abs(x[i]), c_x) ** 2
                            for i in range(n)) / n
            got = enca_loss(s, theta, x_hat, x, c_x)
            assert abs(got - expected) < 1e-12

    def test_denominator_floor_active(self):
        theta = np.array([1.0])
        x = np.array([1e-9])          # far below the floor
        x_hat = np.array([0.05])
        val = enca_loss(np.array([1.0]), theta, x_hat, x, c_x=0.05)
        assert val == pytest.approx(((0.05 - 1e-9) / 0.05) ** 2, rel=1e-9)

    @pytest.mark.parametrize("model_id", ["nlar1", "dynamo"])
    def test_training_loss_is_batch_mean_of_oracle(self, model_id):
        # the tensor loss of a minibatch is the mean of the per-sample oracle
        rng = np.random.default_rng(5)
        store = init_enca(model_id, 4, rng)
        prior = prior_for(model_id)
        thetas = sample_prior(prior, rng, size=6)
        noise = draw_noise_batch(model_id, 6, 40, rng)
        x = simulate_batch(model_id, thetas, noise, x0=prior.x0)
        loss, _, _ = training_losses(store, thetas, noise, x, c_x=0.03)
        s = encode_forward(store.params, T.Tensor(x[..., None]))
        x_hat = decode_forward(store.params, s, noise).data
        per_sample = [enca_loss(s.data[b], thetas[b], x_hat[b], x[b], 0.03)
                      for b in range(6)]
        assert float(loss.data) == pytest.approx(np.mean(per_sample), rel=1e-12)


class TestDecoderGradients:
    def test_reconstruction_loss_fd_subset(self):
        # N=10 instance; finite differences on sampled coordinates of every
        # decoder tensor
        rng = np.random.default_rng(11)
        store = init_enca("nlar1", 2, rng)
        s_fixed = rng.random((2, 2))
        noise = rng.standard_normal((2, 10, 1))
        target = rng.random((2, 10))

        names = [n for n in store.names() if n.startswith("decoder.")]

        def loss_value():
            x_hat = decode_forward(store.params, T.Tensor(s_fixed), noise)
            return float(T.tsum(T.power(T.sub(x_hat, target), 2.0)).data)

        store.zero_grad()
        x_hat = decode_forward(store.params, T.Tensor(s_fixed), noise)
        T.backward(T.tsum(T.power(T.sub(x_hat, target), 2.0)))
        arrays = [store[n].data for n in names]
        coords = {i: np.random.default_rng(50 + i).choice(
            a.size, size=min(6, a.size), replace=False)
            for i, a in enumerate(arrays)}
        numeric = fd_gradient_subset(loss_value, arrays, coords)
        for i, name in enumerate(names):
            g = store[name].grad.ravel()
            for flat_idx, fd in numeric[i]:
                ref = max(abs(fd), abs(g[flat_idx]), 1e-6)
                assert abs(g[flat_idx] - fd) / ref < 1e-4, name

    def test_frozen_zero_decoder_gives_pure_regression(self):
        # auxiliary statistics receive zero gradient when the decoder is zero
        rng = np.random.default_rng(4)
        store = init_enca("nlar1", 3, rng)
        for name in store.names():
            if name.startswith("decoder."):
                store[name].data[:] = 0.0
        prior = prior_for("nlar1")
        thetas = sample_prior(prior, rng, size=8)
        noise = draw_noise_batch("nlar1", 8, 30, rng)
        x = simulate_batch("nlar1", thetas, noise, x0=prior.x0)
        store.zero_grad()
        loss, reg, rec = training_losses(store, thetas, noise, x, c_x=0.05)
        T.backward(loss)
        # reconstruction term is constant (x_hat == 0), so conv3 auxiliary
        # slices see gradient only from the regression term, which is zero
        # for components beyond p
        k3 = store["encoder.conv3.kernel"].grad
        b3 = store["encoder.conv3.bias"].grad
        assert np.all(k3[:, :, 2] == 0.0)
        assert b3[2] == 0.0
        assert np.any(k3[:, :, 0] != 0.0)


class TestTraining:
    def test_zero_steps_returns_initialization(self):
        cfg = EncaConfig(q=3, minibatch=8, steps=0, seed=5, n_steps=30, c_x=0.05)
        result = train_enca("nlar1", cfg)
        fresh = init_enca("nlar1", 3, stream(5, 1))
        for name in fresh.names():
            assert np.array_equal(result.store[name].data, fresh[name].data)
        assert result.log == []

    def test_smoke_loss_decreases(self):
        cfg = EncaConfig(q=3, minibatch=32, steps=200, seed=7, n_steps=50,
                         log_every=1)
        result = train_enca("nlar1", cfg)
        losses = np.array([row["loss"] for row in result.log])
        first, last = losses[:50].mean(), losses[-50:].mean()
        assert last < first

    def test_reproducible_bitwise(self):
        cfg = EncaConfig(q=2, minibatch=8, steps=10, seed=3, n_steps=30, c_x=0.05)
        a = train_enca("nlar1", cfg)
        b = train_enca("nlar1", cfg)
        for name in a.store.names():
            assert np.array_equal(a.store[name].data, b.store[name].data)

    def test_minibatch_permutation_invariant_loss(self):
        rng = np.random.default_rng(9)
        store = init_enca("nlar1", 3, rng)
        prior = prior_for("nlar1")
        thetas = sample_prior(prior, rng, size=12)
        noise = draw_noise_batch("nlar1", 12, 25, rng)
        x = simulate_batch("nlar1", thetas, noise, x0=prior.x0)
        loss_a, _, _ = training_losses(store, thetas, noise, x, c_x=0.05)
        perm = np.random.default_rng(1).permutation(12)
        loss_b, _, _ = training_losses(store, thetas[perm], noise[perm], x[perm],
                                       c_x=0.05)
        assert abs(loss_a.data - loss_b.data) < 1e-12

    def test_cx_estimate_positive(self):
        c_x = estimate_cx("nlar1", n_pilot=500, n_steps=50, seed=0)
        assert 0.0 < c_x < 1.0
