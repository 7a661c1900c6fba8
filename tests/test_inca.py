import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, max_grad_error

import statforge.tensor as T
from statforge.errors import StatforgeError
from statforge.inca import (
    IncaConfig,
    aggregate,
    inca_loss,
    init_inca,
    predict_theta,
    train_inca,
    training_losses,
    weight_fn,
    weight_fn_forward,
)
from statforge.models import stream

# trains the 40-step INCA run and prints a digest of its weights and its
# recorded BLAS thread count
THREAD_RUN = """
import hashlib, json
from statforge.inca import IncaConfig, train_inca
result = train_inca("nlar1", IncaConfig(q=3, n_replicas=5, theta_batch=12,
                                        steps=40, seed=9, n_steps=100))
digest = hashlib.sha256()
for name, array in sorted(result.store.arrays().items()):
    digest.update(name.encode() + array.tobytes())
print(json.dumps([digest.hexdigest(), result.meta["blas_threads"]]))
"""


@pytest.fixture
def wnet():
    return init_inca("nlar1", 4, np.random.default_rng(0))  # p=2, q=4


class TestWeightFn:
    def test_zero_network_gives_half(self):
        st = init_inca("nlar1", 4, np.random.default_rng(1))
        for name in st.names():
            if name.startswith("wnet."):
                st[name].data[:] = 0.0
        out = weight_fn(np.random.default_rng(0).standard_normal((5, 2)), st.params)
        assert np.all(out == 0.5)

    def test_open_unit_interval(self, wnet):
        aux = np.random.default_rng(2).standard_normal((100, 2)) * 50
        out = weight_fn(aux, wnet.params)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_q_equals_p_constant(self):
        st = init_inca("nlar1", 2, np.random.default_rng(3))
        assert all(not n.startswith("wnet.") for n in st.names())
        out = weight_fn(np.zeros((7, 0)), st.params)
        assert np.all(out == 0.5)

    def test_shapes_follow_decoder_table(self, wnet):
        aux = T.Tensor(np.zeros((8, 5, 2)))
        out = aux
        expect = [(8, 5, 3), (8, 5, 10), (8, 5, 3), (8, 5, 1)]
        from statforge.inca import WNET_LAYERS
        for (name, _u, act), shape in zip(WNET_LAYERS, expect):
            out = T.dense(out, wnet[f"wnet.{name}.weight"],
                          wnet[f"wnet.{name}.bias"], act)
            assert out.shape == shape

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(700 + seed)
        st = init_inca("nlar1", 4, rng)
        aux = rng.standard_normal((3, 2))
        names = [n for n in st.names() if n.startswith("wnet.")]

        def loss():
            st.zero_grad()
            out = weight_fn_forward(st.params, T.Tensor(aux))
            lossv = T.tsum(T.power(out, 2.0))
            return lossv

        lv = loss()
        T.backward(lv)
        analytic = [st[n].grad for n in names]
        numeric = fd_gradient(lambda: float(loss().data), [st[n].data for n in names])
        assert max_grad_error(analytic, numeric) < 1e-4


class TestAggregate:
    def test_equal_weights_is_mean(self):
        stats = np.random.default_rng(0).random((5, 4))
        est = aggregate(stats, np.full(5, 0.3), p=2)
        assert np.allclose(est, stats[:, :2].mean(axis=0), rtol=1e-12)

    def test_one_hot_limit(self):
        stats = np.random.default_rng(1).random((4, 3))
        w = np.full(4, 1e-12)
        w[2] = 1.0 - 1e-12
        est = aggregate(stats, w, p=2)
        assert np.allclose(est, stats[2, :2], atol=1e-9)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, q, p = 6, 4, 3
            stats = rng.standard_normal((n, q))
            w = rng.uniform(0.01, 0.99, n)
            expected = np.array([
                sum(w[j] * stats[j, a] for j in range(n)) / sum(w[j] for j in range(n))
                for a in range(p)])
            got = aggregate(stats, w, p=p)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_convex_hull(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            stats = rng.standard_normal((5, 3))
            w = rng.uniform(1e-3, 1.0, 5)
            est = aggregate(stats, w, p=2)
            lo = stats[:, :2].min(axis=0)
            hi = stats[:, :2].max(axis=0)
            assert np.all(est >= lo - 1e-12) and np.all(est <= hi + 1e-12)

    def test_weight_scaling_invariance(self):
        stats = np.random.default_rng(3).random((5, 3))
        w = np.random.default_rng(4).uniform(0.1, 0.9, 5)
        a = aggregate(stats, w, p=2)
        b = aggregate(stats, 3.7 * w, p=2)
        assert np.allclose(a, b, rtol=1e-13)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(8)
        stats = rng.random((7, 4))
        w = rng.uniform(0.05, 0.95, 7)
        base = aggregate(stats, w, p=2)
        for _ in range(10):
            perm = rng.permutation(7)
            assert np.array_equal(aggregate(stats[perm], w[perm], p=2), base)

    def test_degenerate_weights_guard(self):
        stats = np.zeros((3, 3))
        with pytest.raises(StatforgeError):
            aggregate(stats, np.zeros(3), p=2)


class TestIncaLoss:
    def test_perfect_replicas_zero(self):
        theta = np.array([5.1, 0.02])
        stats = np.tile(np.concatenate([theta, [0.3]]), (5, 1))
        est = aggregate(stats, np.full(5, 0.5), p=2)
        assert inca_loss(stats, est, theta) == 0.0

    def test_single_replica_factor_two(self):
        theta = np.array([2.0])
        stats = np.array([[4.0]])  # s = 2 theta, q = p = 1
        est = aggregate(stats, np.array([0.7]), p=1)
        assert inca_loss(stats, est, theta) == pytest.approx(2.0)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, q, p = 5, 4, 3
            theta = rng.uniform(0.5, 2.0, p)
            stats = rng.standard_normal((n, q))
            theta_hat = rng.standard_normal(p)
            expected = sum((stats[j, a] - theta[a]) ** 2 / theta[a] ** 2
                           for j in range(n) for a in range(p))
            expected += sum((theta_hat[a] - theta[a]) ** 2 / theta[a] ** 2
                            for a in range(p))
            got = inca_loss(stats, theta_hat, theta)
            assert abs(got - expected) / expected < 1e-12

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(2)
        stats = rng.random((6, 4))
        theta = np.array([1.1, 0.9, 1.3])
        est = rng.random(3)
        base = inca_loss(stats, est, theta)
        for _ in range(10):
            perm = rng.permutation(6)
            assert inca_loss(stats[perm], est, theta) == base


class TestTraining:
    def test_zero_steps_returns_initialization(self):
        cfg = IncaConfig(q=3, n_replicas=3, theta_batch=4, steps=0, seed=2,
                         n_steps=30)
        result = train_inca("nlar1", cfg)
        fresh = init_inca("nlar1", 3, stream(2, 1))
        for name in fresh.names():
            assert np.array_equal(result.store[name].data, fresh[name].data)

    def test_smoke_loss_decreases(self):
        cfg = IncaConfig(q=3, n_replicas=3, theta_batch=16, steps=200, seed=4,
                         n_steps=50, log_every=1)
        result = train_inca("nlar1", cfg)
        losses = np.array([row["loss"] for row in result.log])
        assert losses[-50:].mean() < losses[:50].mean()

    def test_reproducible_bitwise(self):
        cfg = IncaConfig(q=4, n_replicas=2, theta_batch=4, steps=8, seed=6,
                         n_steps=30)
        a = train_inca("nlar1", cfg)
        b = train_inca("nlar1", cfg)
        for name in a.store.names():
            assert np.array_equal(a.store[name].data, b.store[name].data)

    def test_weights_independent_of_blas_threads(self):
        # one process per OpenBLAS thread count; training pins one thread
        src = str(Path(T.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = subprocess.run([sys.executable, "-c", THREAD_RUN], env=env,
                                 capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout))
        assert runs[0][0] == runs[1][0]
        if runs[0][1]["in_effect"] is not None:
            assert runs[0][1] == runs[1][1] == {
                "requested": 1, "applied": True, "in_effect": 1}

    def test_training_loss_matches_op_evaluation(self):
        # tensor-path loss equals the straight-line ops within 1e-12
        rng = np.random.default_rng(10)
        store = init_inca("nlar1", 4, rng)
        thetas = np.array([[5.0, 0.02], [5.5, 0.01]])
        x = rng.random((2, 3, 40))
        loss, _, _, _ = training_losses(store, thetas, x, p=2)
        from statforge.encoder import encode_batch
        total = 0.0
        for i in range(2):
            stats = encode_batch(x[i], store.arrays())
            w = weight_fn(stats[:, 2:], store.arrays())
            est = aggregate(stats, w, p=2)
            total += inca_loss(stats, est, thetas[i])
        assert abs(float(loss.data) - total / 2) < 1e-12

    def test_predict_theta_inside_hull(self):
        rng = np.random.default_rng(3)
        store = init_inca("nlar1", 3, rng)
        x = rng.random((5, 60))
        est = predict_theta(store.arrays(), x, p=2)
        from statforge.encoder import encode_batch
        stats = encode_batch(x, store.arrays())
        assert np.all(est >= stats[:, :2].min(axis=0) - 1e-12)
        assert np.all(est <= stats[:, :2].max(axis=0) + 1e-12)
