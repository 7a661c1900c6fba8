import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import fd_gradient, max_grad_error

import statforge.tensor as T
from statforge.enca import EncaConfig, decode_forward, init_enca, train_enca, training_losses
from statforge.encoder import ENCODER_LAYERS, encode_batch, encode_forward, init_encoder
from statforge.inca import IncaConfig, init_inca, train_inca
from statforge.inca import training_losses as inca_training_losses
from statforge.errors import TrainingDivergedError


def grads_of(loss_fn, tensors):
    """Run the autodiff path and return gradients in tensor order."""
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    T.backward(loss)
    return [t.grad for t in tensors]


def check_op(build_loss, arrays, seeds=1, tol=1e-4):
    """Compare autodiff gradients of a scalar loss against finite differences."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    analytic = grads_of(lambda: build_loss(tensors), tensors)
    numeric = fd_gradient(lambda: float(build_loss(tensors).data),
                          [t.data for t in tensors])
    err = max_grad_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err}"


class TestPrimitives:
    def test_sum_of_squares_grad(self):
        p = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = T.tsum(T.mul(p, p))
        T.backward(loss)
        assert np.array_equal(p.grad, 2 * p.data)

    def test_detached_tensor_has_no_grad(self):
        p = T.Tensor(np.ones(3), requires_grad=True)
        c = T.Tensor(np.ones(3))  # constant
        loss = T.tsum(T.mul(p, c))
        T.backward(loss)
        assert c.grad is None
        assert np.array_equal(p.grad, np.ones(3))

    def test_broadcast_add(self, rng):
        x = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        check_op(lambda ts: T.tsum(T.mul(T.add(ts[0], ts[1]), T.add(ts[0], ts[1]))),
                 [x, b])

    def test_div_and_pow(self, rng):
        a = rng.uniform(0.5, 2.0, (3, 3))
        b = rng.uniform(0.5, 2.0, (3, 3))
        check_op(lambda ts: T.tsum(T.div(T.power(ts[0], 3.0), ts[1])), [a, b])

    def test_getitem_scatter(self, rng):
        x = rng.standard_normal((4, 6))
        check_op(lambda ts: T.tsum(T.mul(ts[0][:, :3], ts[0][:, :3])), [x])

    def test_concat_and_tile(self, rng):
        s = rng.standard_normal((2, 3))
        n = rng.standard_normal((2, 5, 2))
        check_op(lambda ts: T.tsum(T.power(
            T.concat([T.tile_time(ts[0], 5), ts[1]], axis=-1), 2.0)), [s, n])

    def test_float32_kept_only_without_gradients(self):
        x32 = np.ones(3, np.float32)
        assert T.Tensor(x32).data.dtype == np.float32
        assert T.Tensor(x32).detach().data.dtype == np.float32
        assert T.Tensor(x32, requires_grad=True).data.dtype == np.float64
        for other in (np.ones(3, np.float16), np.arange(3), [1, 2], 1.5):
            assert T.Tensor(other).data.dtype == np.float64

    def test_backward_requires_scalar(self):
        p = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(T.mul(p, p))


class TestConv1d:
    def test_output_length(self, rng):
        x = T.Tensor(rng.standard_normal((2, 200, 1)))
        k = T.Tensor(rng.standard_normal((3, 1, 16)))
        out = T.conv1d_valid(x, k, T.Tensor(np.zeros(16)))
        assert out.shape == (2, 198, 16)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((3, 50, 1))
        k = np.ones((1, 1, 1))
        out = T.conv1d_valid(T.Tensor(x), T.Tensor(k), T.Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x)

    def test_too_short_raises(self, rng):
        with pytest.raises(ValueError):
            T.conv1d_valid(T.Tensor(np.zeros((1, 2, 1))),
                           T.Tensor(np.zeros((3, 1, 4))), T.Tensor(np.zeros(4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 9, 3))
        k = rng.standard_normal((3, 3, 4))
        b = rng.standard_normal(4)
        check_op(lambda ts: T.tsum(T.power(T.conv1d_valid(*ts), 2.0)), [x, k, b])

    def test_gradients_4d_input(self, rng):
        # the replica encoder runs with an extra leading axis
        x = rng.standard_normal((2, 3, 8, 2))
        k = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        check_op(lambda ts: T.tsum(T.power(T.conv1d_valid(*ts), 2.0)), [x, k, b])


class TestPooling:
    def test_maxpool_shape_and_constant(self, rng):
        x = T.Tensor(np.full((1, 196, 16), 2.5))
        out = T.maxpool1d(x, 2)
        assert out.shape == (1, 98, 16)
        assert np.all(out.data == 2.5)

    def test_maxpool_truncates_odd(self):
        x = T.Tensor(np.arange(14, dtype=float).reshape(1, 7, 2))
        out = T.maxpool1d(x, 2)
        assert out.shape == (1, 3, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_maxpool_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((2, 8, 3))
        check_op(lambda ts: T.tsum(T.power(T.maxpool1d(ts[0]), 2.0)), [x])

    def test_globpool_constant(self):
        out = T.global_avg_pool(T.Tensor(np.full((4, 92, 3), 1.25)))
        assert out.shape == (4, 3)
        assert np.all(out.data == 1.25)

    @pytest.mark.parametrize("seed", range(10))
    def test_globpool_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.standard_normal((2, 6, 3))
        check_op(lambda ts: T.tsum(T.power(T.global_avg_pool(ts[0]), 2.0)), [x])


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((5, 4))
        out = T.dense(T.Tensor(x), T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)))
        assert np.allclose(out.data, x)

    def test_leaky_relu_slope(self):
        x = T.Tensor(np.array([[-2.0, 3.0]]))
        out = T.dense(x, T.Tensor(np.eye(2)), T.Tensor(np.zeros(2)), "leakyrelu")
        assert out.data[0, 0] == pytest.approx(-0.6)
        assert out.data[0, 1] == 3.0

    @pytest.mark.parametrize("activation", ["linear", "relu", "leakyrelu", "tanh",
                                            "sigmoid"])
    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_all_activations(self, activation, seed):
        rng = np.random.default_rng(300 + seed)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        check_op(lambda ts: T.tsum(T.power(T.dense(*ts, activation), 2.0)), [x, w, b])

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            T.dense(T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((2, 2))),
                    T.Tensor(np.zeros(2)), "gelu")


class TestBilstm:
    def _params(self, rng, c_in, units):
        return [rng.standard_normal((c_in, 4 * units)) * 0.4,
                rng.standard_normal((units, 4 * units)) * 0.4,
                rng.standard_normal(4 * units) * 0.1,
                rng.standard_normal((c_in, 4 * units)) * 0.4,
                rng.standard_normal((units, 4 * units)) * 0.4,
                rng.standard_normal(4 * units) * 0.1]

    def test_output_channels(self, rng):
        x = rng.standard_normal((3, 200, 4))
        params = self._params(rng, 4, 16)
        out = T.bilstm(T.Tensor(x), *[T.Tensor(p) for p in params])
        assert out.shape == (3, 200, 32)

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(1).standard_normal((2, 10, 3))
        zeros = [np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8)] * 2
        out = T.bilstm(T.Tensor(x), *[T.Tensor(z) for z in zeros])
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_bptt_gradients(self, seed):
        # L=5, units=2 instance against central finite differences
        rng = np.random.default_rng(400 + seed)
        x = rng.standard_normal((2, 5, 3))
        params = self._params(rng, 3, 2)
        check_op(lambda ts: T.tsum(T.power(T.bilstm(*ts), 2.0)), [x] + params)

    def test_time_reversal_symmetry(self, rng):
        # swapping direction weights and flipping time flips the halves
        x = rng.standard_normal((1, 7, 2))
        pf = self._params(rng, 2, 3)[:3]
        pb = self._params(rng, 2, 3)[:3]
        out = T.bilstm(T.Tensor(x), *[T.Tensor(p) for p in pf + pb]).data
        flipped = T.bilstm(T.Tensor(x[:, ::-1]), *[T.Tensor(p) for p in pb + pf]).data
        assert np.allclose(out[:, :, :3], flipped[:, ::-1, 3:], atol=1e-14)
        assert np.allclose(out[:, :, 3:], flipped[:, ::-1, :3], atol=1e-14)


class TestCompositeNetwork:
    @pytest.mark.parametrize("seed", range(3))
    def test_conv_pool_dense_chain(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.standard_normal((2, 12, 2))
        k = rng.standard_normal((3, 2, 4))
        kb = rng.standard_normal(4)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)

        def loss(ts):
            xx, kk, kkb, ww, bb = ts
            h = T.conv1d_valid(xx, kk, kkb)
            h = T.relu(h)
            h = T.maxpool1d(h)
            h = T.global_avg_pool(h)
            h = T.dense(h, ww, bb, "tanh")
            return T.tsum(T.power(h, 2.0))

        check_op(loss, [x, k, kb, w, b])


# ---------------------------------------------------------------------------
# Oracles: the conv, max-pool and ReLU formulas the layers were first written
# with (tensordot over sliding windows, argmax plus take_along_axis,
# np.where).  The layers build their arrays differently but must give the
# same bytes, forward and backward.
# ---------------------------------------------------------------------------

def oracle_conv1d(x, kernel, bias):
    win = sliding_window_view(x, kernel.shape[0], axis=-2)  # (..., L-k+1, C_in, k)
    return np.tensordot(win, kernel, axes=((-1, -2), (0, 1))) + bias


def oracle_conv1d_grads(x, kernel, g):
    """(dx, dK) of a valid conv1d for upstream gradient g."""
    k = kernel.shape[0]
    win = sliding_window_view(x, k, axis=-2)
    batch_axes = tuple(range(g.ndim - 1))
    dk = np.tensordot(win, g, axes=(batch_axes[:-1] + (g.ndim - 2,), batch_axes))
    pad = [(0, 0)] * g.ndim
    pad[-2] = (k - 1, k - 1)
    gwin = sliding_window_view(np.pad(g, pad), k, axis=-2)  # (..., L, C_out, k)
    dx = np.tensordot(gwin, kernel[::-1], axes=((-1, -2), (0, 2)))
    return dx, dk.transpose(1, 0, 2)


def _pool_windows(x, window):
    n_out = x.shape[-2] // window
    trimmed = x[..., : n_out * window, :]
    shaped = trimmed.reshape(trimmed.shape[:-2] + (n_out, window, x.shape[-1]))
    return trimmed, shaped, shaped.argmax(axis=-2)  # ties: first index


def oracle_maxpool(x, window=2):
    _, shaped, arg = _pool_windows(x, window)
    return np.take_along_axis(shaped, arg[..., None, :], axis=-2)[..., 0, :]


def oracle_maxpool_grad(x, g, window=2):
    trimmed, shaped, arg = _pool_windows(x, window)
    gfull = np.zeros_like(shaped)
    np.put_along_axis(gfull, arg[..., None, :], g[..., None, :], axis=-2)
    dx = np.zeros_like(x)
    dx[..., : trimmed.shape[-2], :] = gfull.reshape(trimmed.shape)
    return dx


def oracle_relu(x):
    return np.where(x > 0, x, 0.0)


def oracle_encode(x, weights, prefix="encoder."):
    """The encoder stack composed from the oracle layers."""
    out = x
    for name, _k, _filters, act in ENCODER_LAYERS:
        if name == "maxpool":
            out = oracle_maxpool(out)
        elif name == "globpool":
            out = out.mean(axis=-2)
        else:
            out = oracle_conv1d(out, weights[prefix + name + ".kernel"].data,
                                weights[prefix + name + ".bias"].data)
            if act == "relu":
                out = oracle_relu(out)
    return out


# Oracles: the conv, max-pool and ReLU backward as written before the layers
# drew their arrays from the buffer pool (np.pad, im2col by reshape copy,
# np.tensordot, two zeros_like, g * mask), and the encoder's backward
# composed from them with every gradient accumulated into zeros.

def plain_im2col(a, k):
    length, chans = a.shape[-2:]
    rows = sliding_window_view(a.reshape(-1, length * chans), k * chans, axis=-1)
    return rows[:, ::chans].reshape(-1, k * chans)


def plain_conv1d_backward(x, kernel, g):
    """(dx, dK, db) of `conv1d_valid` for upstream gradient g."""
    k, c_in, c_out = kernel.shape
    win = sliding_window_view(x, k, axis=-2)
    batch_axes = tuple(range(g.ndim - 1))
    dk = np.tensordot(win, g, axes=(batch_axes[:-1] + (g.ndim - 2,), batch_axes))
    pad = [(0, 0)] * g.ndim
    pad[-2] = (k - 1, k - 1)
    krev = np.ascontiguousarray(kernel[::-1].transpose(0, 2, 1))
    dx = np.dot(plain_im2col(np.pad(g, pad), k), krev.reshape(k * c_out, c_in))
    return dx.reshape(x.shape[:-1] + (c_in,)), dk.transpose(1, 0, 2), g.sum(axis=batch_axes)


def plain_maxpool_backward(x, g, window=2):
    n_out = x.shape[-2] // window
    trimmed = x[..., : n_out * window, :]
    shaped = trimmed.reshape(trimmed.shape[:-2] + (n_out, window, trimmed.shape[-1]))
    arg = shaped.argmax(axis=-2)
    gfull = np.zeros_like(shaped)
    np.put_along_axis(gfull, arg[..., None, :], g[..., None, :], axis=-2)
    gx = np.zeros_like(x)
    gx[..., : n_out * window, :] = gfull.reshape(trimmed.shape)
    return gx


def into_zeros(g):
    return np.zeros_like(g) + g


def plain_encode_grads(x, weights, g, prefix="encoder."):
    """Gradients of sum(encode(x) * g) w.r.t. every parameter, by the
    formulas above; the input x is a constant."""
    inputs, out = [], x
    for name, _k, _filters, act in ENCODER_LAYERS:
        inputs.append(out)
        if name == "maxpool":
            out = oracle_maxpool(out)
        elif name == "globpool":
            out = out.mean(axis=-2)
        else:
            out = oracle_conv1d(out, weights[prefix + name + ".kernel"].data,
                                weights[prefix + name + ".bias"].data)
            if act == "relu":
                inputs.append(out)
                out = oracle_relu(out)
    grads = {}
    grad = into_zeros(np.broadcast_to(g[..., None, :] / inputs[-1].shape[-2],
                                      inputs[-1].shape).copy())
    inputs.pop()
    for name, _k, _filters, act in reversed(ENCODER_LAYERS[:-1]):
        if name == "maxpool":
            grad = into_zeros(plain_maxpool_backward(inputs.pop(), grad))
            continue
        if act == "relu":
            grad = into_zeros(grad * (inputs.pop() > 0))
        kernel = weights[prefix + name + ".kernel"].data
        dx, dk, db = plain_conv1d_backward(inputs.pop(), kernel, grad)
        grads[prefix + name + ".kernel"] = into_zeros(dk)
        grads[prefix + name + ".bias"] = into_zeros(db)
        grad = into_zeros(dx)
    return grads


def signed_zeros(rng, a, share=0.2):
    """a with about `share` of its entries set to +0.0 and as many to -0.0."""
    a = a.copy()
    a[rng.random(a.shape) < share] = 0.0
    a[rng.random(a.shape) < share] = -0.0
    return a


# ---------------------------------------------------------------------------
# Oracles: the LSTM cell loops as first written (strided gate passes, fresh
# arrays for every intermediate).  `bilstm` computes its gates in place and
# reuses its buffers across calls but must give the same bytes, forward and
# backward.
# ---------------------------------------------------------------------------

def oracle_lstm_forward(x, wx, wh, b):
    d, batch, n_steps, c_in = x.shape
    hidden = wh.shape[1]
    h3 = 3 * hidden
    xw = np.matmul(x.reshape(d, batch * n_steps, c_in), wx)
    xw = xw.reshape(d, batch, n_steps, 4 * hidden) + b[:, None, None, :]
    xw = np.ascontiguousarray(xw.transpose(2, 0, 1, 3))  # (T, D, B, 4H)
    h_seq = np.zeros((n_steps + 1, d, batch, hidden))
    c_seq = np.zeros((n_steps + 1, d, batch, hidden))
    gates = np.empty((n_steps, d, batch, 4 * hidden))
    tanh_c = np.empty((n_steps, d, batch, hidden))
    for t in range(n_steps):
        z = xw[t]
        z += h_seq[t] @ wh
        gate = gates[t]
        np.multiply(z[..., :h3], 0.5, out=gate[..., :h3])
        np.tanh(gate[..., :h3], out=gate[..., :h3])
        gate[..., :h3] += 1.0
        gate[..., :h3] *= 0.5
        np.tanh(z[..., h3:], out=gate[..., h3:])
        i = gate[..., :hidden]
        f = gate[..., hidden:2 * hidden]
        o = gate[..., 2 * hidden:h3]
        g = gate[..., h3:]
        c = c_seq[t + 1]
        np.multiply(f, c_seq[t], out=c)
        c += i * g
        tc = tanh_c[t]
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_seq[t + 1])
    cache = (x, wx, wh, h_seq, c_seq, gates, tanh_c)
    return h_seq[1:], cache


def oracle_lstm_backward(cache, d_out):
    x, wx, wh, h_seq, c_seq, gates, tanh_c = cache
    d, batch, n_steps, c_in = x.shape
    hidden = wh.shape[1]
    h3 = 3 * hidden
    d_xw = np.empty((n_steps, d, batch, 4 * hidden))
    d_wh = np.zeros_like(wh)
    dh_next = np.zeros((d, batch, hidden))
    dc_next = np.zeros((d, batch, hidden))
    for t in range(n_steps - 1, -1, -1):
        gate = gates[t]
        i = gate[..., :hidden]
        f = gate[..., hidden:2 * hidden]
        o = gate[..., 2 * hidden:h3]
        g = gate[..., h3:]
        tc = tanh_c[t]
        dh = d_out[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = d_xw[t]
        dz[..., :hidden] = (dc * g) * i * (1.0 - i)
        dz[..., hidden:2 * hidden] = (dc * c_seq[t]) * f * (1.0 - f)
        dz[..., 2 * hidden:h3] = do * o * (1.0 - o)
        dz[..., h3:] = (dc * i) * (1.0 - g * g)
        dc_next = dc * f
        d_wh += h_seq[t].transpose(0, 2, 1) @ dz
        dh_next = dz @ wh.transpose(0, 2, 1)
    d_xw_flat = np.ascontiguousarray(d_xw.transpose(1, 2, 0, 3)).reshape(
        d, batch * n_steps, 4 * hidden)
    x_flat = x.reshape(d, batch * n_steps, c_in)
    d_wx = np.matmul(x_flat.transpose(0, 2, 1), d_xw_flat)
    d_b = d_xw_flat.sum(axis=1)
    d_x = np.matmul(d_xw_flat, wx.transpose(0, 2, 1)).reshape(x.shape)
    return d_x, d_wx, d_wh, d_b


def oracle_bilstm(x, params, g):
    """Output of a (B, T, C) BiLSTM and the gradients of x and the six
    parameters for upstream gradient g, composed as `bilstm` composes them."""
    wxf, whf, bf, wxb, whb, bb = params
    batch, n_steps = x.shape[:2]
    hidden = whf.shape[0]
    out, cache = oracle_lstm_forward(np.stack([x, x[:, ::-1]]), np.stack([wxf, wxb]),
                                     np.stack([whf, whb]), np.stack([bf, bb]))
    y = np.concatenate([out[:, 0], out[::-1, 1]], axis=-1).transpose(1, 0, 2)
    gt = g.transpose(1, 0, 2)
    d_out = np.empty((n_steps, 2, batch, hidden))
    d_out[:, 0] = gt[..., :hidden]
    d_out[:, 1] = gt[::-1, :, hidden:]
    dx2, dwx2, dwh2, db2 = oracle_lstm_backward(cache, d_out)
    grads = [dx2[0] + dx2[1][:, ::-1], dwx2[0], dwh2[0], db2[0],
             dwx2[1], dwh2[1], db2[1]]
    # gradients accumulate into zeros, which turns -0.0 into +0.0
    return y, [np.zeros_like(a) + a for a in grads]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def forward_backward(op, arrays, g):
    """Layer output and the gradients of every input for upstream gradient g."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    T.backward(T.tsum(T.mul(out, T.Tensor(g))))
    return out.data, [t.grad for t in tensors]


def lstm_params(rng, c_in, units, scale=0.4):
    return [rng.standard_normal((c_in, 4 * units)) * scale,
            rng.standard_normal((units, 4 * units)) * scale,
            rng.standard_normal(4 * units) * scale,
            rng.standard_normal((c_in, 4 * units)) * scale,
            rng.standard_normal((units, 4 * units)) * scale,
            rng.standard_normal(4 * units) * scale]


def assert_bilstm_bytes(x, params, g):
    out, grads = forward_backward(T.bilstm, [x] + params, g)
    ref_out, ref_grads = oracle_bilstm(x, params, np.zeros_like(g) + g)
    assert same_bytes(out, ref_out)
    for k, (got, want) in enumerate(zip(grads, ref_grads)):
        assert same_bytes(got, want), k


class TestLayerOracles:
    @pytest.mark.parametrize("lead", [(), (7,), (12, 5)], ids=["2d", "3d", "4d"])
    @pytest.mark.parametrize("c_in", [1, 16])
    @pytest.mark.parametrize("c_out", [3, 16, 32])
    def test_conv1d_bytes(self, lead, c_in, c_out):
        rng = np.random.default_rng(c_in * 100 + c_out + len(lead))
        x = rng.standard_normal(lead + (50, c_in))
        kernel = rng.standard_normal((3, c_in, c_out))
        bias = rng.standard_normal(c_out)
        g = rng.standard_normal(lead + (48, c_out))
        out, (dx, dk, _) = forward_backward(T.conv1d_valid, [x, kernel, bias], g)
        ref_dx, ref_dk = oracle_conv1d_grads(x, kernel, g)
        assert same_bytes(out, oracle_conv1d(x, kernel, bias))
        assert same_bytes(dx, ref_dx)
        assert same_bytes(dk, ref_dk)

    def test_conv1d_single_trajectory_bytes(self, rng):
        # one window row per trajectory: the im2col matrix could alias x
        for lead in [(1,), (1, 1)]:
            x = rng.standard_normal(lead + (3, 16))
            kernel = rng.standard_normal((3, 16, 32))
            bias = rng.standard_normal(32)
            g = rng.standard_normal(lead + (1, 32))
            out, (dx, dk, _) = forward_backward(T.conv1d_valid, [x, kernel, bias], g)
            ref = (oracle_conv1d(x, kernel, bias),) + oracle_conv1d_grads(x, kernel, g)
            assert all(same_bytes(a, b) for a, b in zip((out, dx, dk), ref))

    def test_conv1d_noncontiguous_input_bytes(self, rng):
        x = rng.standard_normal((6, 40, 32))[:, ::-1, ::2]
        kernel = rng.standard_normal((3, 16, 16))
        bias = rng.standard_normal(16)
        g = rng.standard_normal((6, 38, 16))
        assert not x.flags.c_contiguous
        out, (dx, dk, _) = forward_backward(T.conv1d_valid, [x, kernel, bias], g)
        ref = (oracle_conv1d(x, kernel, bias),) + oracle_conv1d_grads(x, kernel, g)
        assert all(same_bytes(a, b) for a, b in zip((out, dx, dk), ref))

    @pytest.mark.parametrize("length", [9, 17, 98])
    def test_maxpool_bytes_with_ties(self, length):
        # small integers make exact ties in most windows; odd lengths drop
        # the trailing element
        rng = np.random.default_rng(length)
        x = rng.integers(-2, 3, (4, length, 16)).astype(float)
        g = rng.standard_normal((4, length // 2, 16))
        out, (dx,) = forward_backward(T.maxpool1d, [x], g)
        assert same_bytes(out, oracle_maxpool(x))
        assert same_bytes(dx, oracle_maxpool_grad(x, g))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tracked", [False, True], ids=["inference", "graph"])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_maxpool_matches_the_reduce_bytes(self, dtype, tracked, window, monkeypatch):
        # odd length (a trailing row dropped), a NaN, ties and signed zeros
        x = np.random.default_rng(window).integers(-2, 3, (5, 13, 4)).astype(dtype)
        x[0, 2, 1] = np.nan
        x[1, :6, 2] = [-0.0, 0.0, 0.0, -0.0, -0.0, -0.0]
        n_out = 13 // window
        want = x[:, :n_out * window].reshape(5, n_out, window, 4).max(axis=-2)
        if tracked:
            want = want.astype(np.float64)
        with pytest.raises(TrainingDivergedError, match="maxpool1d"):
            T.maxpool1d(T.Tensor(x, requires_grad=tracked), window)
        # past the finite check, the NaN itself must come out as the reduce has it
        monkeypatch.setattr(T, "_check_finite", lambda data, where: None)
        got = T.maxpool1d(T.Tensor(x, requires_grad=tracked), window)
        assert got.requires_grad == tracked
        assert np.isnan(got.data[0, 2 // window, 1])
        assert same_bytes(got.data, want)

    def test_maxpool_tie_gradient_goes_to_first_index(self):
        x = np.array([[[2.0], [2.0], [-1.0], [-1.0], [5.0]]])
        out, (dx,) = forward_backward(T.maxpool1d, [x], np.array([[[3.0], [4.0]]]))
        assert np.array_equal(out, [[[2.0], [-1.0]]])
        assert np.array_equal(dx[0, :, 0], [3.0, 0.0, 4.0, 0.0, 0.0])

    @pytest.mark.parametrize("width", [1, 16])
    def test_relu_negative_zero_is_positive_zero(self, width):
        # every position of every length up to 33, so both the vector body
        # and the scalar tail of np.maximum are covered
        for n in range(1, 34):
            for pos in range(n):
                a = np.full((n, width), 1.5)
                a[pos] = -0.0
                out = T.relu(T.Tensor(a)).data
                assert not np.any(np.signbit(out[pos])), (n, pos)
                assert same_bytes(out, oracle_relu(a))

    def test_relu_bytes(self, rng):
        for n in range(1, 34):
            x = rng.standard_normal((n, 16))
            x[rng.random((n, 16)) < 0.2] = 0.0
            x[rng.random((n, 16)) < 0.2] = -0.0
            g = rng.standard_normal((n, 16))
            out, (dx,) = forward_backward(T.relu, [x], g)
            assert same_bytes(out, oracle_relu(x))
            # gradients accumulate into zeros, which turns -0.0 into +0.0
            assert same_bytes(dx, np.zeros_like(g) + g * (x > 0))

    @pytest.mark.parametrize("lead", [(7,), (12, 5)], ids=["3d", "4d"])
    def test_conv1d_grads_match_plain_formulas(self, lead):
        # the input is an intermediate node, so its gradient is the pooled
        # accumulator the backward hands over
        rng = np.random.default_rng(len(lead))
        x = signed_zeros(rng, rng.standard_normal(lead + (30, 16)))
        kernel = signed_zeros(rng, rng.standard_normal((3, 16, 32)))
        bias = rng.standard_normal(32)
        g = signed_zeros(rng, rng.standard_normal(lead + (28, 32)), 0.4)
        x_leaf = T.Tensor(x, requires_grad=True)
        params = [T.Tensor(a, requires_grad=True) for a in (kernel, bias)]
        for _ in range(2):   # the second pass runs on pooled buffers
            for t in [x_leaf] + params:
                t.grad = None
            x_node = T.reshape(x_leaf, x.shape)
            out = T.conv1d_valid(x_node, *params)
            T.backward(T.tsum(T.mul(out, T.Tensor(g))))
            dx, dk, db = plain_conv1d_backward(x, kernel, g)
            assert same_bytes(x_leaf.grad, into_zeros(into_zeros(dx)))
            assert same_bytes(params[0].grad, into_zeros(dk))
            assert same_bytes(params[1].grad, into_zeros(db))
            assert not np.signbit(x_leaf.grad[x_leaf.grad == 0]).any()

    @pytest.mark.parametrize("length", [9, 98])
    def test_maxpool_relu_grads_match_plain_formulas(self, length):
        rng = np.random.default_rng(length)
        x = signed_zeros(rng, rng.integers(-2, 3, (4, length, 16)).astype(float))
        g = signed_zeros(rng, rng.standard_normal((4, length // 2, 16)), 0.4)
        x_leaf = T.Tensor(x, requires_grad=True)
        for _ in range(2):
            x_leaf.grad = None
            out = T.maxpool1d(T.relu(T.reshape(x_leaf, x.shape)))
            T.backward(T.tsum(T.mul(out, T.Tensor(g))))
            relu_grad = into_zeros(plain_maxpool_backward(oracle_relu(x), g))
            want = into_zeros(into_zeros(relu_grad * (x > 0)))
            assert same_bytes(out.data, oracle_maxpool(oracle_relu(x)))
            assert same_bytes(x_leaf.grad, want)

    def test_matmul_grads_match_plain_formulas(self):
        rng = np.random.default_rng(12)
        x = signed_zeros(rng, rng.standard_normal((64, 100, 32)))
        w = signed_zeros(rng, rng.standard_normal((32, 1)))
        g = signed_zeros(rng, rng.standard_normal((64, 100, 1)), 0.4)
        x_leaf, w_leaf = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
        for _ in range(2):
            x_leaf.grad = w_leaf.grad = None
            out = T.matmul(T.reshape(x_leaf, x.shape), w_leaf)
            T.backward(T.tsum(T.mul(out, T.Tensor(g))))
            assert same_bytes(x_leaf.grad, into_zeros(into_zeros(g @ w.T)))
            assert same_bytes(w_leaf.grad, into_zeros(x.reshape(-1, 32).T @ g.reshape(-1, 1)))

    def test_inca_encoder_grads_match_plain_formulas(self):
        rng = np.random.default_rng(11)
        store = init_encoder(3, rng)
        x = signed_zeros(rng, rng.standard_normal((12, 5, 100, 1)))
        g = rng.standard_normal((12, 5, 3))
        want = plain_encode_grads(x, store.params, g)
        for _ in range(2):
            store.zero_grad()
            s = encode_forward(store.params, T.Tensor(x))
            T.backward(T.tsum(T.mul(s, T.Tensor(g))))
            for name, grad in want.items():
                assert same_bytes(store[name].grad, grad), name

    def test_encode_batch_bytes(self):
        rng = np.random.default_rng(4)
        store = init_encoder(3, rng)
        x = rng.standard_normal((1000, 100))
        s = encode_batch(x, store.params)
        assert same_bytes(s, oracle_encode(x[..., None], store.params))

    @pytest.mark.parametrize("c_in", [4, 32])
    def test_enca_shapes_bytes(self, c_in):
        rng = np.random.default_rng(c_in)
        x = rng.standard_normal((64, 100, c_in))
        g = rng.standard_normal((64, 100, 32))
        # twice, so the second call runs on the buffers the first gave back
        for _ in range(2):
            assert_bilstm_bytes(x, lstm_params(rng, c_in, 16), g)

    @pytest.mark.parametrize("batch, n_steps, units, c_in",
                             [(1, 1, 1, 1), (1, 1, 1, 3), (1, 7, 1, 2),
                              (3, 1, 2, 1), (2, 5, 3, 2)])
    def test_edge_shapes_bytes(self, batch, n_steps, units, c_in):
        rng = np.random.default_rng(batch * 1000 + n_steps * 10 + units)
        x = rng.standard_normal((batch, n_steps, c_in))
        g = rng.standard_normal((batch, n_steps, 2 * units))
        assert_bilstm_bytes(x, lstm_params(rng, c_in, units), g)

    def test_single_trajectory_bytes(self, rng):
        x = rng.standard_normal((9, 4))
        params = lstm_params(rng, 4, 3)
        g = rng.standard_normal((9, 6))
        out, grads = forward_backward(T.bilstm, [x] + params, g)
        ref_out, ref_grads = oracle_bilstm(x[None], params, g[None])
        assert same_bytes(out, ref_out[0])
        assert same_bytes(grads[0], ref_grads[0][0])
        assert all(same_bytes(a, b) for a, b in zip(grads[1:], ref_grads[1:]))

    @pytest.mark.parametrize("bias", [0.0, -0.0])
    def test_zero_weights_signed_zero_inputs_bytes(self, bias):
        # zero pre-activations of either sign reach tanh on the cell columns
        rng = np.random.default_rng(5)
        x = np.where(rng.random((4, 12, 3)) < 0.5, 0.0, -0.0)
        x[rng.random(x.shape) < 0.3] = 1.5
        params = [np.zeros((3, 8)), np.zeros((2, 8)), np.full(8, bias)] * 2
        g = rng.standard_normal((4, 12, 4))
        g[rng.random(g.shape) < 0.3] = -0.0
        assert_bilstm_bytes(x, params, g)

    def test_gate_affine_bytes(self, rng):
        # the one-pass gate activation against the per-block passes, on
        # signed zeros, subnormals and saturating values
        hidden = 16
        z = rng.standard_normal((2, 64, 4 * hidden)) * 10.0
        picks = rng.random(z.shape)
        z[picks < 0.1] = -0.0
        z[(picks >= 0.1) & (picks < 0.2)] = 0.0
        z[(picks >= 0.2) & (picks < 0.25)] = -5e-324
        z[(picks >= 0.25) & (picks < 0.3)] = 800.0
        scale, shift = T._gate_affine(hidden)
        got = z.copy()
        got *= scale
        np.tanh(got, out=got)
        got += shift
        got *= scale
        h3 = 3 * hidden
        want = np.empty_like(z)
        want[..., :h3] = 0.5 * (np.tanh(0.5 * z[..., :h3]) + 1.0)
        want[..., h3:] = np.tanh(z[..., h3:])
        assert same_bytes(got, want)
        assert np.signbit(got[..., h3:][z[..., h3:] == 0]).any()

    def test_signed_zero_inputs_bytes(self, rng):
        x = rng.standard_normal((8, 20, 4))
        x[rng.random(x.shape) < 0.3] = 0.0
        x[rng.random(x.shape) < 0.3] = -0.0
        params = lstm_params(rng, 4, 5)
        params[2][rng.random(20) < 0.5] = -0.0
        assert_bilstm_bytes(x, params, rng.standard_normal((8, 20, 10)))


def lstm_caches(loss):
    """The BPTT caches of every BiLSTM node of a graph, from its closures."""
    caches, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        fn = node._backward
        if fn is not None and "cache" in fn.__code__.co_freevars:
            cell = fn.__closure__[fn.__code__.co_freevars.index("cache")]
            caches.append(cell.cell_contents)
        stack.extend(node._parents)
    return caches


def enca_step(store, seed, batch=16, n_steps=40):
    """One ENCA training step (forward, backward, Adam) on fixed data."""
    rng = np.random.default_rng(seed)
    thetas = np.column_stack([rng.uniform(4.2, 5.8, batch), rng.uniform(0.05, 0.5, batch)])
    noise = rng.standard_normal((batch, n_steps, 1))
    x = rng.standard_normal((batch, n_steps))
    store.zero_grad()
    loss = training_losses(store, thetas, noise, x, 0.05)[0]
    T.backward(loss)
    T.adam_step(store, store.gradients())


class TestLstmBuffers:
    def test_layers_of_one_graph_share_no_memory(self):
        store = init_enca("nlar1", 3, np.random.default_rng(0))
        for seed in range(2):  # fill the spare list first
            enca_step(store, seed)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((16, 40, 1))
        s = T.Tensor(rng.random((16, 3)), requires_grad=True)
        out = decode_forward(store.params, s, noise)
        loss = T.tsum(out)
        caches = lstm_caches(loss)
        assert len(caches) == 2
        for b in caches[1]:
            assert not any(np.shares_memory(a, b) for a in caches[0] + (out.data,))

    def test_forward_only_output_survives_training(self):
        store = init_enca("nlar1", 3, np.random.default_rng(1))
        enca_step(store, 0)
        rng = np.random.default_rng(8)
        s = rng.random((16, 3))
        noise = rng.standard_normal((16, 40, 1))
        y = decode_forward(store.params, T.Tensor(s), noise).data
        h = T.bilstm(T.Tensor(rng.random((16, 40, 4))),
                     *[store[f"decoder.bilstm1.{k}"]
                       for k in ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")]).data
        before = y.copy(), h.copy()
        for seed in range(1, 4):
            enca_step(store, seed)
        assert same_bytes(y, before[0]) and same_bytes(h, before[1])

    def test_pending_graph_keeps_its_cache(self):
        # a graph built but not yet differentiated keeps its buffers while
        # other graphs train; its gradients equal those of a fresh graph
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 15, 3))
        params = lstm_params(rng, 3, 4)
        g = rng.standard_normal((6, 15, 8))
        tensors = [T.Tensor(a, requires_grad=True) for a in [x] + params]
        pending = T.tsum(T.mul(T.bilstm(*tensors), T.Tensor(g)))
        for seed in range(3):
            other = lstm_params(np.random.default_rng(seed), 3, 4)
            forward_backward(T.bilstm, [x] + other, g)
        T.backward(pending)
        _, ref = oracle_bilstm(x, params, g)
        assert all(same_bytes(t.grad, r) for t, r in zip(tensors, ref))

    def test_spare_list_bound(self, monkeypatch):
        # a pool far smaller than the graphs' buffers stays within its bound
        monkeypatch.setattr(T, "POOL", T.BufferPool(4000))
        rng = np.random.default_rng(10)
        graphs = []
        for n_steps in (3, 4, 5):
            for _ in range(3):
                tensors = [T.Tensor(a, requires_grad=True)
                           for a in [rng.standard_normal((2, n_steps, 3))]
                           + lstm_params(rng, 3, 2)]
                graphs.append(T.tsum(T.bilstm(*tensors)))
        for loss in graphs:
            T.backward(loss)
            assert 0 < T.POOL.nbytes <= 4000
            assert sum(b.nbytes for bufs in T.POOL.idle.values() for b in bufs) == T.POOL.nbytes
            assert T.POOL.sizes == sorted(T.POOL.idle)

    def test_second_enca_step_allocates_less(self, monkeypatch):
        monkeypatch.setattr(T, "POOL", T.BufferPool(T.POOL_MAX_BYTES))
        store = init_enca("nlar1", 3, np.random.default_rng(2))
        growth = []
        tracemalloc.start()
        try:
            for seed in range(2):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                enca_step(store, seed, batch=64, n_steps=100)
                growth.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        # the warm step takes the LSTM buffers back instead of allocating them
        assert growth[1] < growth[0] - 20e6, growth


def inca_step(store, seed, theta_batch=12, n_rep=5, n_steps=100):
    """One INCA training step (forward, backward, Adam) on fixed data."""
    rng = np.random.default_rng(seed)
    thetas = np.column_stack([rng.uniform(4.2, 5.8, theta_batch),
                              rng.uniform(0.05, 0.5, theta_batch)])
    x = rng.standard_normal((theta_batch, n_rep, n_steps))
    store.zero_grad()
    loss = inca_training_losses(store, thetas, x, 2)[0]
    T.backward(loss)
    T.adam_step(store, store.gradients())


def graph_nodes(loss):
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def pool_snapshot():
    return ({size: [id(b) for b in bufs] for size, bufs in T.POOL.idle.items()},
            T.POOL.nbytes, T.POOL.counts())


class TestBufferPool:
    def test_warm_inca_step_allocates_nothing(self, monkeypatch):
        monkeypatch.setattr(T, "POOL", T.BufferPool(T.POOL_MAX_BYTES))
        cfg = IncaConfig(q=3, n_replicas=5, theta_batch=12, n_steps=100, steps=1,
                         seed=3, log_every=1)
        cold = train_inca("nlar1", cfg).meta["buffer_pool"]
        warm = train_inca("nlar1", cfg).meta["buffer_pool"]
        assert cold["misses"] > 0
        assert warm == {"hits": cold["hits"] + cold["misses"], "misses": 0}

    def test_warm_enca_step_allocates_nothing(self, monkeypatch):
        monkeypatch.setattr(T, "POOL", T.BufferPool(T.POOL_MAX_BYTES))
        cfg = EncaConfig(q=3, minibatch=64, n_steps=100, steps=1, seed=4, c_x=0.05,
                         log_every=1)
        cold = train_enca("nlar1", cfg).meta["buffer_pool"]
        warm = train_enca("nlar1", cfg).meta["buffer_pool"]
        assert cold["misses"] > 0
        assert warm == {"hits": cold["hits"] + cold["misses"], "misses": 0}

    def test_inference_leaves_the_pool_alone(self):
        store = init_inca("nlar1", 3, np.random.default_rng(5))
        inca_step(store, 0)
        assert T.POOL.nbytes > 0
        before = pool_snapshot()
        x = np.random.default_rng(6).standard_normal((1000, 100))
        encode_batch(x, store.arrays())
        encode_batch(x, store.params)
        assert pool_snapshot() == before

    def test_layers_of_one_inca_graph_share_no_memory(self):
        store = init_inca("nlar1", 3, np.random.default_rng(0))
        for seed in range(2):  # fill the pool first
            inca_step(store, seed)
        rng = np.random.default_rng(7)
        thetas = np.column_stack([rng.uniform(4.2, 5.8, 12), rng.uniform(0.05, 0.5, 12)])
        loss = inca_training_losses(store, thetas, rng.standard_normal((12, 5, 100)), 2)[0]
        nodes = graph_nodes(loss)
        pooled = [n.data for n in nodes if n._pooled]
        assert len(pooled) == 10   # the conv, relu and maxpool outputs
        for a in pooled:
            for n in nodes:
                if n.data is not a and np.shares_memory(n.data, a):
                    # only views of a pooled output may overlap it
                    assert n.data.base is a.base and not n._pooled

    def test_forward_only_output_survives_inca_training(self):
        store = init_inca("nlar1", 3, np.random.default_rng(1))
        inca_step(store, 0)
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.standard_normal((12, 5, 100, 1)))
        # outputs of graphs that are never differentiated: one held as an
        # array after its node has died, one held as a view
        y = T.conv1d_valid(x, store["encoder.conv1_1.kernel"],
                           store["encoder.conv1_1.bias"]).data
        z = T.relu(T.conv1d_valid(x, store["encoder.conv1_1.kernel"],
                                  store["encoder.conv1_1.bias"])).data[0]
        before = y.copy(), z.copy()
        for seed in range(1, 4):
            inca_step(store, seed)
        assert same_bytes(y, before[0]) and same_bytes(z, before[1])

    def test_released_output_is_reused(self):
        store = init_inca("nlar1", 3, np.random.default_rng(2))
        inca_step(store, 0)
        x = T.Tensor(np.random.default_rng(9).standard_normal((12, 5, 100, 1)))
        out = T.conv1d_valid(x, store["encoder.conv1_1.kernel"],
                             store["encoder.conv1_1.bias"])
        buf = id(out.data.base)
        del out
        assert any(id(b) == buf for bufs in T.POOL.idle.values() for b in bufs)

    def test_best_fit_and_eviction(self):
        pool = T.BufferPool(max_bytes=8 * 250)
        a, b = pool.take((10, 10)), pool.take((140,))
        assert pool.counts() == {"hits": 0, "misses": 2}
        pool.give(b, a)
        c = pool.take((9, 10))          # the 100-element buffer fits best
        assert c.base is a.base and c.shape == (9, 10)
        d = pool.take((60,))            # 140 > 1.5 * 60: a new buffer
        assert d.base is not b.base and pool.counts() == {"hits": 1, "misses": 3}
        pool.give(c, d)                 # 300 elements idle: the 140 go first
        assert pool.sizes == [60, 100] and pool.nbytes == 8 * 160


class TestSigmoidOpenInterval:
    def test_saturated_inputs_stay_inside(self):
        x = np.array([-800.0, -40.0, 40.0, 800.0])
        out = T.sigmoid(T.Tensor(x)).data
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert out[0] == np.finfo(float).tiny
        assert out[1] == np.exp(-40.0)
        assert out[2] == out[3] == np.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("x", [-800.0, -40.0, 40.0, 800.0])
    def test_saturated_scalar(self, x):
        out = float(T._sigmoid(np.float64(x)))
        assert 0.0 < out < 1.0

    def test_interior_unchanged(self):
        x = np.linspace(-36.0, 36.0, 100_001)
        assert same_bytes(T._sigmoid(x), 0.5 * (1.0 + np.tanh(0.5 * x)))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        store = T.ParameterStore()
        store.add("w", np.array([1.0, 2.0]))
        before = store["w"].data.copy()
        T.adam_step(store, {"w": np.zeros(2)})
        assert np.array_equal(store["w"].data, before)
        assert store.step_count == 1

    def test_hand_stepped_oracle(self):
        # independent straight-line Adam recurrence on a scalar
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        g = 0.37
        w_ref, m, v = 0.5, 0.0, 0.0
        for t in range(1, 6):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        store = T.ParameterStore()
        store.add("w", np.array([0.5]))
        for _ in range(5):
            T.adam_step(store, {"w": np.array([g])}, lr=lr, beta1=b1, beta2=b2, eps=eps)
        assert abs(store["w"].data[0] - w_ref) < 1e-12

    def test_single_step_magnitude(self):
        # first Adam step moves by ~lr regardless of gradient scale
        store = T.ParameterStore()
        store.add("w", np.array([0.0]))
        T.adam_step(store, {"w": np.array([123.4])}, lr=1e-3)
        assert store["w"].data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_determinism_across_stores(self):
        rng = np.random.default_rng(0)
        stores = []
        for _ in range(2):
            st = T.ParameterStore()
            st.add("a", np.array([0.3, -0.2]))
            st.add("b", np.array([[1.0, 2.0]]))
            stores.append(st)
        for step in range(7):
            g = {"a": np.array([0.1 * step, -0.2]), "b": np.array([[0.5, -0.1]])}
            for st in stores:
                T.adam_step(st, g)
        assert np.array_equal(stores[0]["a"].data, stores[1]["a"].data)
        assert np.array_equal(stores[0]["b"].data, stores[1]["b"].data)

    def test_nonfinite_gradient_raises(self):
        store = T.ParameterStore()
        store.add("w", np.array([1.0]))
        with pytest.raises(TrainingDivergedError):
            T.adam_step(store, {"w": np.array([np.nan])})


class TestTrainDriver:
    @staticmethod
    def _nan_at_step(store, bad_step):
        """batch_losses for sum(w^2) whose loss is NaN on call ``bad_step``."""
        calls = []

        def batch_losses():
            calls.append(None)
            w = store["w"]
            loss = T.tsum(T.mul(w, w))
            if len(calls) == bad_step:
                loss = T.mul(loss, np.nan)
            return loss, {"square": loss}

        return batch_losses

    def test_nonfinite_loss_raises_with_checkpoint_and_log(self):
        store = T.ParameterStore()
        store.add("w", np.array([0.5, -1.0]))
        initial = store["w"].data.copy()
        with pytest.raises(TrainingDivergedError, match="step 3") as info:
            T.train(store, self._nan_at_step(store, 3), steps=5, lr=0.1,
                    log_every=1, meta={})
        err = info.value
        assert np.array_equal(err.checkpoint["w"].data, initial)
        assert err.checkpoint.step_count == 0
        assert [row["step"] for row in err.log] == [1, 2]
        assert list(err.log[0]) == ["step", "loss", "square", "wall_time_s"]
        assert not np.array_equal(store["w"].data, initial)   # two Adam steps ran

    def test_checkpoint_cadence(self, monkeypatch):
        monkeypatch.setattr(T, "CHECKPOINT_EVERY", 2)
        store = T.ParameterStore()
        store.add("w", np.array([0.5, -1.0]))
        T.train(store, self._nan_at_step(store, None), steps=2, lr=0.1,
                log_every=1, meta={})
        after_two = store["w"].data.copy()
        store = T.ParameterStore()
        store.add("w", np.array([0.5, -1.0]))
        with pytest.raises(TrainingDivergedError) as info:
            T.train(store, self._nan_at_step(store, 4), steps=5, lr=0.1,
                    log_every=1, meta={})
        assert np.array_equal(info.value.checkpoint["w"].data, after_two)
        assert info.value.checkpoint.step_count == 2

    def test_log_rows_and_meta(self):
        enca = train_enca("nlar1", EncaConfig(q=2, minibatch=4, steps=3, seed=1,
                                              n_steps=30, c_x=0.05, log_every=2))
        assert [row["step"] for row in enca.log] == [1, 2]
        assert list(enca.log[0]) == ["step", "loss", "regression", "reconstruction",
                                     "wall_time_s"]
        inca = train_inca("nlar1", IncaConfig(q=3, n_replicas=2, theta_batch=3,
                                              steps=1, seed=1, n_steps=30))
        assert list(inca.log[0]) == ["step", "loss", "replica_term", "aggregate_term",
                                     "wall_time_s"]
        for result in (enca, inca):
            assert list(result.meta)[-1] == "buffer_pool"


class TestWeightsContainer:
    def test_roundtrip(self, tmp_path, rng):
        store = T.ParameterStore()
        store.add("encoder.conv1_1.kernel", rng.standard_normal((3, 1, 16)))
        store.add("encoder.conv1_1.bias", np.zeros(16))
        meta = {"q": 3, "note": "test"}
        path = tmp_path / "w.sfwt"
        T.save_weights(path, store, meta=meta)
        arrays, header = T.load_weights(path)
        assert header["meta"] == meta
        assert set(arrays) == set(store.names())
        for name in arrays:
            assert np.array_equal(arrays[name], store[name].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sfwt"
        path.write_bytes(b"XXXXXXXX" + b"\0" * 16)
        with pytest.raises(ValueError):
            T.load_weights(path)

    def test_count_parameters(self):
        store = T.ParameterStore()
        store.add("a", np.zeros((3, 4)))
        store.add("b", np.zeros(5))
        assert T.count_parameters(store) == 17
        assert T.count_parameters(store.arrays()) == 17
