import numpy as np
import pytest

import statforge.tensor as T
from statforge.encoder import (
    encode,
    encode_batch,
    encode_forward,
    encoder_subset,
    infer_q,
    init_encoder,
    shape_trace,
)
from statforge.models import draw_bare_noise, simulate_nlar1


@pytest.fixture
def weights():
    return init_encoder(3, np.random.default_rng(1)).arrays()


class TestShapes:
    def test_table_trace_enca(self):
        trace = shape_trace(200, q=3, lead_shape=(8,))
        expected = [
            ("conv1_1", (8, 198, 16)),
            ("conv1_2", (8, 196, 16)),
            ("maxpool", (8, 98, 16)),
            ("conv2_1", (8, 96, 32)),
            ("conv2_2", (8, 94, 32)),
            ("conv3", (8, 92, 3)),
            ("globpool", (8, 3)),
        ]
        assert trace == expected

    def test_table_trace_inca_replica_axis(self):
        trace = shape_trace(200, q=3, lead_shape=(8, 5))
        assert trace[0] == ("conv1_1", (8, 5, 198, 16))
        assert trace[-1] == ("globpool", (8, 5, 3))

    def test_minimum_length(self, weights):
        with pytest.raises(ValueError):
            encode_batch(np.zeros((1, 17)), weights)
        out = encode_batch(np.zeros((1, 18)), weights)
        assert out.shape == (1, 3)


class TestEncode:
    def test_zero_weights_zero_output(self):
        weights = {k: np.zeros_like(v)
                   for k, v in init_encoder(4, np.random.default_rng(0)).arrays().items()}
        traj = simulate_nlar1((5.3, 0.015), draw_bare_noise("nlar1", 64, 2))
        assert np.array_equal(encode(traj, weights), np.zeros(4))

    def test_deterministic_pure(self, weights):
        traj = simulate_nlar1((5.0, 0.01), draw_bare_noise("nlar1", 100, 5))
        assert np.array_equal(encode(traj, weights), encode(traj, weights))

    def test_length_covariance(self, weights):
        for n in (18, 50, 100, 200):
            assert encode_batch(np.random.default_rng(n).random((2, n)), weights).shape == (2, 3)

    def test_continuity_small_perturbation(self, weights):
        rng = np.random.default_rng(3)
        x = rng.random(100)
        base = encode(x, weights)
        for _ in range(10):
            delta = rng.standard_normal(100) * 1e-7
            moved = encode(x + delta, weights)
            assert np.max(np.abs(moved - base)) < 1e-3


class TestReplicas:
    def test_single_replica_matches_encode(self, weights):
        traj = simulate_nlar1((5.2, 0.02), draw_bare_noise("nlar1", 80, 9))
        out = encode_batch(traj.x[None], weights)
        assert out.shape == (1, 3)
        assert np.array_equal(out[0], encode(traj, weights))

    def test_permutation_equivariance(self, weights):
        x = np.random.default_rng(11).random((5, 64))
        out = encode_batch(x, weights)
        perm = np.array([3, 0, 4, 1, 2])
        out_p = encode_batch(x[perm], weights)
        assert np.array_equal(out_p, out[perm])

    def test_shape(self, weights):
        out = encode_batch(np.random.default_rng(0).random((5, 200)), weights)
        assert out.shape == (5, 3)


class TestParameterCount:
    def closed_form(self, q, c_in=1):
        total = 0
        channels = c_in
        for filters in (16, 16, 32, 32, q):
            total += 3 * channels * filters + filters
            channels = filters
        return total

    def test_closed_form_q3(self, weights):
        assert T.count_parameters(weights) == self.closed_form(3) == 5811

    def test_count_independent_of_input_length(self, weights):
        n_params = T.count_parameters(weights)
        for n in (100, 200):
            encode_batch(np.zeros((1, n)), weights)  # same weights serve any N
        assert T.count_parameters(weights) == n_params

    def test_q_increment(self):
        rng = np.random.default_rng(0)
        c3 = T.count_parameters(init_encoder(3, rng).arrays())
        c4 = T.count_parameters(init_encoder(4, np.random.default_rng(0)).arrays())
        assert c4 - c3 == 3 * 32 + 1  # one conv3 filter slice plus one bias


class TestExport:
    def test_encoder_subset_and_infer_q(self, weights):
        mixed = dict(weights)
        mixed["decoder.fc.weight"] = np.zeros((32, 1))
        sub = encoder_subset(mixed)
        assert set(sub) == set(weights)
        assert infer_q(sub) == 3

    def test_subset_requires_encoder_keys(self):
        with pytest.raises(ValueError):
            encoder_subset({"decoder.fc.weight": np.zeros((32, 1))})

    def test_gradient_flow_through_encoder(self):
        # conv weights receive gradients through the full stack
        store = init_encoder(2, np.random.default_rng(4))
        x = T.Tensor(np.random.default_rng(5).random((2, 32, 1)))
        s = encode_forward(store.params, x)
        T.backward(T.tsum(T.mul(s, s)))
        for name in store.names():
            assert store[name].grad is not None
            assert np.any(store[name].grad != 0.0) or name.endswith("bias")
