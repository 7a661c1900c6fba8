"""Dense CPU numpy tensors with reverse-mode automatic differentiation.

Covers exactly the layer zoo the two autoencoders need: valid 1-D
convolution, max/global-average pooling, dense layers with a small set of
activations, a fused bidirectional LSTM with hand-rolled backpropagation
through time, and bias-corrected Adam.  There is one implementation per
layer (the LSTM cell loops included, which have no compiled variant);
forward passes are deterministic and single-threaded training is
bit-reproducible.

Graphs are built only while some input requires gradients, so the same ops
double as a plain (graph-free) inference path.  Everything a graph touches
is float64: parameters, gradients and every tensor that requires gradients.
A tensor that does not require gradients keeps a float32 array's dtype
(every other array becomes float64), and the conv, relu and maxpool ops
compute a graph-free result in their inputs' dtype, so the same code runs
float32 inference.

Both autoencoders train through one driver, `train`: each step it zeroes
the gradients, asks a model-specific closure for one fresh minibatch's loss
and named loss terms, runs `backward` and `adam_step`, and keeps the log,
the checkpoint and the divergence check.  The autoencoder modules only say
what a minibatch is and which loss it gives.

Training steps draw their large arrays from one module-level buffer pool,
`POOL`, and give them back once they are dead, so a step reuses the memory
of the step before instead of having the kernel zero fresh pages.  Pooled
are the conv im2col matrices (forward, and backward from the windows and
from the zero-padded gradient), the input gradients of conv, BiLSTM and
matmul, the relu and maxpool backward buffers, the gradients of
intermediate nodes (given back as soon as their node's backward has run),
the BiLSTM work buffers, and the outputs of the conv, relu, maxpool and
BiLSTM nodes of a graph (given back when the node dies, unless something
else still holds the array).  Inference, with
nothing requiring gradients, allocates plainly: its row counts change from
call to call, and pooled buffers of every size it meets would pile up.
The pool serves a request from the smallest idle buffer that is large
enough but at most 1.5 times the size, so a step's short-lived temporaries
of different shapes share a few buffers.  The idle pool is bounded by
`POOL_MAX_BYTES`, which holds one training step of either autoencoder at
the acceptance configurations; past it the buffers of the least recently
given sizes are dropped.  Pooling changes no arithmetic: outputs and
gradients are bit-identical to plain allocation.  Training runs from one
thread at a time.
"""

from __future__ import annotations

import bisect
import json
import math
import struct
import sys
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TrainingDivergedError

# The LSTM cells run in numpy only; kept as a constant because the benchmark
# records it as provenance.
_HAVE_NUMBA = False

_WEIGHTS_MAGIC = b"SFWT0001"


class Tensor:
    """A numpy array plus an optional backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_pooled")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        data = np.asarray(data)
        if requires_grad or data.dtype != np.float32:
            data = np.asarray(data, dtype=float)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = parents if requires_grad else ()
        self._backward = backward if requires_grad else None
        self._pooled = False

    def __del__(self):
        # a pooled output goes back to the pool unless a view or a caller
        # still holds the array
        if self._pooled and _holders(self) == _SOLE_HOLDERS:
            POOL.give(self.data)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, k):
        return power(self, k)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _holders(t: Tensor) -> tuple:
    return sys.getrefcount(t.data), sys.getrefcount(t.data.base)


# what `_holders` reports for a pool view that only its Tensor holds
_SOLE_HOLDERS = _holders(Tensor(np.empty(1)[:1]))


class BufferPool:
    """Idle flat float64 buffers by size, for training steps to reuse.

    `take` hands out a view of the given shape (contents undefined) on the
    smallest idle buffer that holds it and is at most `FIT` times its size,
    else on a new buffer; `give` takes back views nothing reads any more.
    While the idle buffers exceed `max_bytes`, those of the least recently
    given size are dropped.  `hits` and `misses` count the takes served from
    the pool and the fresh allocations.
    """

    FIT = 1.5

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.idle: dict[int, list[np.ndarray]] = {}
        self.sizes: list[int] = []   # the keys of `idle`, ascending
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def take(self, shape) -> np.ndarray:
        n = math.prod(shape)
        i = bisect.bisect_left(self.sizes, n)
        if i < len(self.sizes) and self.sizes[i] <= self.FIT * n:
            self.hits += 1
            buf = self._pop(self.sizes[i])
        else:
            self.misses += 1
            buf = np.empty(n)
        return buf[:n].reshape(shape)

    def give(self, *views: np.ndarray):
        for view in views:
            buf = view.base
            # the one allocation the garbage collector can run in, and so
            # a `Tensor.__del__` that gives back too, comes before any change
            new = [buf]
            spare = self.idle.pop(buf.size, None)
            if spare is None:
                spare = new
                bisect.insort(self.sizes, buf.size)
            else:
                spare.append(buf)
            self.idle[buf.size] = spare   # now the most recently given size
            self.nbytes += buf.nbytes
        while self.nbytes > self.max_bytes:
            self._pop(next(iter(self.idle)), oldest=True)

    def _pop(self, size: int, oldest: bool = False) -> np.ndarray:
        spare = self.idle[size]
        buf = spare.pop(0 if oldest else -1)
        if not spare:
            del self.idle[size]
            self.sizes.remove(size)
        self.nbytes -= buf.nbytes
        return buf

    def counts(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


# One ENCA step at minibatch 64 and N=100 keeps about 50 MB of buffers in
# use at once, an INCA step at 60 trajectories about 15 MB.
POOL_MAX_BYTES = 64 * 2**20
POOL = BufferPool(POOL_MAX_BYTES)


def _alloc(tracked: bool, dtype=float):
    """The allocator of an op: the float64 pool while building a graph, else
    numpy arrays of ``dtype``."""
    if tracked:
        return POOL.take
    return lambda shape: np.empty(shape, dtype)


def _accum(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add g to t's gradient; `owned` hands over g, a pool view, as well.

    A new gradient is zeros + g, that is g + 0.0 (-0.0 becomes +0.0).  An
    intermediate node's gradient is a pool view, which `backward` gives back
    once the node's backward has run.
    """
    if t.requires_grad and t.grad is None and t._backward is not None:
        if owned:
            g += 0.0
            t.grad = g
        else:
            t.grad = np.add(g, 0.0, out=POOL.take(t.data.shape))
        return
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g
    if owned:
        POOL.give(g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def _tracked(*parents) -> bool:
    return any(p.requires_grad for p in parents)


def _node(data, parents, backward, pooled=False) -> Tensor:
    """A graph node; `pooled` marks data taken from the pool for this node."""
    t = Tensor(data, requires_grad=_tracked(*parents), parents=tuple(parents),
               backward=backward)
    t._pooled = pooled and t.requires_grad
    return t


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = astensor(a), astensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def sub(a, b):
    a, b = astensor(a), astensor(b)
    out_data = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def mul(a, b):
    a, b = astensor(a), astensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bwd)


def div(a, b):
    a, b = astensor(a), astensor(b)
    out_data = a.data / b.data

    def bwd(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), bwd)


def power(a, k: float):
    a = astensor(a)
    out_data = a.data ** k

    def bwd(g):
        _accum(a, g * k * a.data ** (k - 1))

    return _node(out_data, (a,), bwd)


def matmul(a, b):
    """x (..., Din) @ w (Din, Dout); weight must be a 2-D matrix."""
    a, b = astensor(a), astensor(b)
    if b.ndim != 2:
        raise ValueError("matmul right operand must be 2-D")
    out_data = a.data @ b.data

    def bwd(g):
        _accum(a, np.matmul(g, b.data.T, out=POOL.take(g.shape[:-1] + b.data.shape[:1])),
               owned=True)
        _accum(b, a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _node(out_data, (a, b), bwd)


def tanh(a):
    a = astensor(a)
    out_data = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), bwd)


def sigmoid(a):
    a = astensor(a)
    out_data = _sigmoid(a.data)

    def bwd(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bwd)


_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _sigmoid(x):
    # exact identity, overflow-safe, one vectorized tanh call.  It rounds to
    # exactly 0 below x ~ -37 and to exactly 1 above x ~ 37; there exp(x),
    # floored at the smallest normal double, and the largest double under 1
    # keep the output in the open interval.  Outputs inside (0, 1) stay as
    # they are.
    s = 0.5 * (1.0 + np.tanh(0.5 * x))
    if (s == 0.0).any() or (s == 1.0).any():
        s = np.where(s == 0.0, np.maximum(np.exp(np.minimum(x, 0.0)), _TINY),
                     np.minimum(s, _BELOW_ONE))
    return s


def relu(a):
    # np.maximum(-0.0, 0.0) is +0.0 here, as np.where(a > 0, a, 0.0) gives;
    # a NaN input stays NaN (and the caller's finite check raises) instead
    # of becoming 0.  The mask is needed only by the backward pass.
    a = astensor(a)
    tracked = _tracked(a)
    out_data = np.maximum(a.data, 0.0, out=_alloc(tracked, a.data.dtype)(a.data.shape))

    def bwd(g):
        _accum(a, np.multiply(g, a.data > 0, out=POOL.take(g.shape)), owned=True)

    return _node(out_data, (a,), bwd, pooled=tracked)


def leaky_relu(a, slope: float = 0.3):
    a = astensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, slope * a.data)

    def bwd(g):
        _accum(a, g * np.where(mask, 1.0, slope))

    return _node(out_data, (a,), bwd)


def tsum(a, axis=None):
    a = astensor(a)
    out_data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _node(out_data, (a,), bwd)


def tmean(a, axis=None):
    a = astensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / count)


def reshape(a, shape):
    a = astensor(a)
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), bwd)


def take(a, idx):
    a = astensor(a)
    out_data = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _node(out_data, (a,), bwd)


def concat(parts, axis=-1):
    parts = [astensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        offs = np.cumsum([0] + sizes)
        for p, lo, hi in zip(parts, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _node(out_data, tuple(parts), bwd)


def tile_time(s, n_steps: int):
    """Broadcast (B, q) summaries across a new time axis -> (B, T, q)."""
    s = astensor(s)
    out_data = np.broadcast_to(s.data[:, None, :],
                               (s.data.shape[0], n_steps, s.data.shape[1])).copy()

    def bwd(g):
        _accum(s, g.sum(axis=1))

    return _node(out_data, (s,), bwd)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

_ACTIVATIONS = {
    "linear": lambda t: t,
    "relu": relu,
    "leakyrelu": lambda t: leaky_relu(t, 0.3),
    "tanh": tanh,
    "sigmoid": sigmoid,
}


def _check_finite(x: np.ndarray, where: str):
    if not np.all(np.isfinite(x)):
        raise TrainingDivergedError(f"non-finite values in {where}")


def _im2col(a: np.ndarray, k: int, alloc) -> np.ndarray:
    """(..., L, C) -> (prod(...) * (L-k+1), k*C) matrix of k-step windows.

    Row t of a trajectory is the contiguous run a[..., t:t+k, :], so its
    columns are ordered k major, C minor -- the order ``np.tensordot`` gives
    the same windows -- and the matrix costs a single copy, into a buffer
    from ``alloc``.
    """
    length, chans = a.shape[-2:]
    rows = sliding_window_view(a.reshape(-1, length * chans), k * chans, axis=-1)
    rows = rows[:, ::chans]
    cols = alloc((rows.shape[0] * rows.shape[1], k * chans))
    np.copyto(cols.reshape(rows.shape), rows)
    return cols


def _im2col_padded(g: np.ndarray, k: int, length: int) -> np.ndarray:
    """`_im2col` of g (..., L-k+1, C) padded with k-1 zero rows on either
    side of the time axis, filled straight from g into a pool buffer."""
    chans = g.shape[-1]
    rows = g.reshape(-1, length - k + 1, chans)
    cols = POOL.take((rows.shape[0] * length, k * chans))
    win = cols.reshape(rows.shape[0], length, k, chans)
    for j in range(k):
        lo = k - 1 - j   # window row j of output t reads g[t - lo]
        win[:, :lo, j] = 0.0
        win[:, lo:length - j, j] = rows
        win[:, length - j:, j] = 0.0
    return cols


def conv1d_valid(x, kernel, bias=None):
    """Cross-correlation with no padding, stride 1.

    ``x`` is (..., L, C_in), ``kernel`` is (k, C_in, C_out); output is
    (..., L-k+1, C_out).  Each product is one GEMM on an im2col matrix;
    the operands, their layout and so the arithmetic are those of the
    equivalent ``np.tensordot`` over sliding windows.
    """
    x, kernel = astensor(x), astensor(kernel)
    k, c_in, c_out = kernel.data.shape
    length = x.data.shape[-2]
    if length < k:
        raise ValueError(f"input length {length} shorter than kernel {k}")
    lead = x.data.shape[:-2]
    if bias is not None:
        bias = astensor(bias)
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    tracked = _tracked(*parents)
    alloc = _alloc(tracked, np.result_type(*(p.data for p in parents)))
    cols = _im2col(x.data, k, alloc)
    out_data = alloc(lead + (length - k + 1, c_out))
    np.dot(cols, kernel.data.reshape(k * c_in, c_out), out=out_data.reshape(-1, c_out))
    if tracked:
        POOL.give(cols)
    del cols
    if bias is not None:
        # in place on a pool buffer; inference keeps numpy's allocation
        # pattern, with which glibc holds less of the SABC encoder's memory
        out_data = np.add(out_data, bias.data, out=out_data if tracked else None)
    _check_finite(out_data, "conv1d")

    def bwd(g):
        if kernel.requires_grad:
            # dK[k, ci, co] = sum over batch,t of x[..., t+k, ci] g[..., t, co],
            # as np.tensordot of the (..., L-k+1, C_in, k) windows and g
            # computes it: one GEMM on the windows transposed to
            # (C_in, k, ...) and copied, which here is a pooled buffer
            win = sliding_window_view(x.data, k, axis=-2)
            nb = g.ndim - 1
            at = POOL.take((c_in * k, g.size // c_out))
            np.copyto(at.reshape((c_in, k) + g.shape[:-1]),
                      win.transpose((nb, nb + 1) + tuple(range(nb))))
            dk = np.dot(at, g.reshape(-1, c_out))
            POOL.give(at)
            _accum(kernel, dk.reshape(c_in, k, c_out).transpose(1, 0, 2))
        if x.requires_grad:
            # dx is the full convolution of g with the flipped kernel: an
            # im2col of g with k-1 zero rows on either side of the time axis
            cols = _im2col_padded(g, k, length)
            # krev[j, ci, co] = kernel[k-1-j, ci, co], as rows (j, co)
            krev = np.ascontiguousarray(kernel.data[::-1].transpose(0, 2, 1))
            dx = POOL.take(lead + (length, c_in))
            np.dot(cols, krev.reshape(k * c_out, c_in), out=dx.reshape(-1, c_in))
            POOL.give(cols)
            _accum(x, dx, owned=True)
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))

    return _node(out_data, parents, bwd, pooled=tracked)


def maxpool1d(x, window: int = 2):
    """Windowed max with stride = window; odd trailing element is dropped.

    The max is a running ``np.maximum`` over the window's rows, written into
    the output: the same bits as ``max(axis=-2)`` over each window, a NaN
    included, without a reduction along a strided axis.  The gradient goes
    to the first maximal element of each window; its argmax is taken in the
    backward pass, so inference never computes it.
    """
    x = astensor(x)
    length = x.data.shape[-2]
    n_out = length // window
    windows = x.data.shape[:-2] + (n_out, window, x.data.shape[-1])
    shaped = x.data[..., : n_out * window, :].reshape(windows)
    tracked = _tracked(x)
    out_data = _alloc(tracked, x.data.dtype)(windows[:-2] + windows[-1:])
    rows = [shaped[..., j, :] for j in range(window)]
    if window == 1:
        np.copyto(out_data, rows[0])
    else:
        np.maximum(rows[0], rows[1], out=out_data)
    for row in rows[2:]:
        np.maximum(out_data, row, out=out_data)
    _check_finite(out_data, "maxpool1d")

    def bwd(g):
        arg = shaped.argmax(axis=-2)  # first maximal index wins
        # zeros with g at each window's argmax, the odd trailing row included
        gx = POOL.take(x.data.shape)
        gx.fill(0.0)
        np.put_along_axis(gx[..., : n_out * window, :].reshape(windows),
                          arg[..., None, :], g[..., None, :], axis=-2)
        _accum(x, gx, owned=True)

    return _node(out_data, (x,), bwd, pooled=tracked)


def global_avg_pool(x):
    """Mean over the temporal axis: (..., L, C) -> (..., C)."""
    x = astensor(x)
    length = x.data.shape[-2]
    if length == 0:
        raise ValueError("cannot pool an empty axis")
    out_data = x.data.mean(axis=-2)
    _check_finite(out_data, "global_avg_pool")

    def bwd(g):
        _accum(x, np.broadcast_to(g[..., None, :] / length, x.data.shape).copy())

    return _node(out_data, (x,), bwd)


def dense(x, weights, bias, activation: str = "linear"):
    """Affine map on the trailing axis followed by an activation."""
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    out = add(matmul(x, weights), bias)
    out = _ACTIVATIONS[activation](out)
    _check_finite(out.data, "dense")
    return out


# ---------------------------------------------------------------------------
# fused bidirectional LSTM
# ---------------------------------------------------------------------------

def _gate_affine(hidden: int):
    """Per-column (scale, shift) turning tanh into the gate activations.

    On the sigmoid columns, 0.5 * (tanh(0.5 * z) + 1.0) is the sigmoid; on the
    cell-candidate columns, 1.0 * (tanh(1.0 * z) + -0.0) is tanh(z) exactly,
    for -0.0 too.  So one contiguous pass over the (D, B, 4H) row gives the
    same bits as separate passes over the gate blocks.
    """
    h3 = 3 * hidden
    scale = np.full(4 * hidden, 1.0)
    scale[:h3] = 0.5
    shift = np.full(4 * hidden, -0.0)
    shift[:h3] = 1.0
    return scale, shift


def _lstm_forward(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray,
                  tracked: bool):
    """LSTM over stacked directions: x (D, B, T, C) with weights (D, C, 4H),
    (D, H, 4H), (D, 4H); returns (T, D, B, H) and a BPTT cache.

    All D directions advance together each time step.  Gate layout along the
    4H axis is (input, forget, output, cell-candidate) so the three sigmoid
    gates form one contiguous block; initial states are zero.  The gates are
    computed in place over their pre-activations, x @ wx + b is written
    straight into them, and every array comes from the pool if ``tracked``;
    the cache holds them until `_lstm_backward` consumes it.
    """
    alloc = _alloc(tracked)
    d, batch, n_steps, c_in = x.shape
    hidden = wh.shape[1]
    h3 = 3 * hidden
    scale, shift = _gate_affine(hidden)
    xw = np.matmul(x.reshape(d, batch * n_steps, c_in), wx,
                   out=alloc((d, batch * n_steps, 4 * hidden)))
    gates = alloc((n_steps, d, batch, 4 * hidden))
    np.add(xw.reshape(d, batch, n_steps, 4 * hidden).transpose(2, 0, 1, 3),
           b[None, :, None, :], out=gates)
    if tracked:
        POOL.give(xw)
    h_seq = alloc((n_steps + 1, d, batch, hidden))
    c_seq = alloc((n_steps + 1, d, batch, hidden))
    h_seq[0] = 0.0
    c_seq[0] = 0.0
    tanh_c = alloc((n_steps, d, batch, hidden))
    for t in range(n_steps):
        gate = gates[t]
        gate += h_seq[t] @ wh
        gate *= scale
        np.tanh(gate, out=gate)
        gate += shift
        gate *= scale
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


def _lstm_backward(cache, d_out: np.ndarray):
    """BPTT for `_lstm_forward`; d_out is (T, D, B, H).

    Consumes the cache: each step's gate gradients overwrite its gates, and
    d_x overwrites x.  Afterwards every cache array is free for reuse.
    """
    x, wx, wh, h_seq, c_seq, gates, tanh_c = cache
    d, batch, n_steps, c_in = x.shape
    hidden = wh.shape[1]
    h3 = 3 * hidden
    d_wh = np.zeros_like(wh)
    dh_next = np.zeros((d, batch, hidden))
    dc_next = np.zeros((d, batch, hidden))
    # per sigmoid gate s with upstream term u, dz = (u * s) * (1 - s): the
    # three u go side by side so that one pass covers the whole block
    u = np.empty((d, batch, h3))
    for t in range(n_steps - 1, -1, -1):
        dz = gates[t]
        sig = dz[..., :h3]
        i = dz[..., :hidden]
        f = dz[..., hidden:2 * hidden]
        o = dz[..., 2 * hidden:h3]
        g = dz[..., h3:]
        tc = tanh_c[t]
        dh = d_out[t] + dh_next
        np.multiply(dh, tc, out=u[..., 2 * hidden:])
        dc = dc_next + dh * o * (1.0 - tc * tc)
        np.multiply(dc, g, out=u[..., :hidden])
        np.multiply(dc, c_seq[t], out=u[..., hidden:2 * hidden])
        dc_next = dc * f
        one_minus = 1.0 - sig
        np.multiply(dc * i, 1.0 - g * g, out=g)
        sig *= u
        sig *= one_minus
        d_wh += h_seq[t].transpose(0, 2, 1) @ dz
        dh_next = dz @ wh.transpose(0, 2, 1)
    d_xw_flat = POOL.take((d, batch * n_steps, 4 * hidden))
    np.copyto(d_xw_flat.reshape(d, batch, n_steps, 4 * hidden),
              gates.transpose(1, 2, 0, 3))
    x_flat = x.reshape(d, batch * n_steps, c_in)
    d_wx = np.matmul(x_flat.transpose(0, 2, 1), d_xw_flat)
    d_b = d_xw_flat.sum(axis=1)
    d_x = np.matmul(d_xw_flat, wx.transpose(0, 2, 1), out=x_flat).reshape(x.shape)
    POOL.give(d_xw_flat)
    return d_x, d_wx, d_wh, d_b


def bilstm(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b):
    """Bidirectional LSTM: (B, T, C) -> (B, T, 2*units), zero initial states.

    The two directions have independent weights; per-step outputs are
    concatenated (forward direction first).  While a graph is built, the
    work buffers come from the pool and go back to it when this node's
    backward has run, and the output is a pooled node output.
    """
    x = astensor(x)
    params = [astensor(p) for p in (wx_f, wh_f, b_f, wx_b, wh_b, b_b)]
    wxf, whf, bf, wxb, whb, bb = params
    tracked = _tracked(x, *params)
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data
    batch, n_steps = xd.shape[:2]
    x2 = _alloc(tracked)((2,) + xd.shape)
    x2[0] = xd
    x2[1] = xd[:, ::-1]
    out, cache = _lstm_forward(x2, np.stack([wxf.data, wxb.data]),
                               np.stack([whf.data, whb.data]),
                               np.stack([bf.data, bb.data]), tracked)
    # out is (T, 2, B, H): forward half as-is, backward half time-flipped
    hidden = whf.data.shape[0]
    out_data = np.concatenate([out[:, 0], out[::-1, 1]], axis=-1,
                              out=_alloc(tracked)((n_steps, batch, 2 * hidden)))
    out_data = out_data.transpose(1, 0, 2)
    if squeeze:
        out_data = out_data[0]
    _check_finite(out_data, "bilstm")

    def bwd(g):
        gd = g[None] if squeeze else g
        gt = gd.transpose(1, 0, 2)  # (T, B, 2H)
        d_out = POOL.take((n_steps, 2, batch, hidden))
        d_out[:, 0] = gt[..., :hidden]
        d_out[:, 1] = gt[::-1, :, hidden:]
        dx2, dwx2, dwh2, db2 = _lstm_backward(cache, d_out)
        dx = np.add(dx2[0], dx2[1][:, ::-1], out=POOL.take(dx2.shape[1:]))
        _accum(x, dx[0] if squeeze else dx, owned=True)
        _accum(wxf, dwx2[0])
        _accum(whf, dwh2[0])
        _accum(bf, db2[0])
        _accum(wxb, dwx2[1])
        _accum(whb, dwh2[1])
        _accum(bb, db2[1])
        _, _, _, h_seq, c_seq, gates, tanh_c = cache
        POOL.give(d_out, dx2, gates, h_seq, c_seq, tanh_c)

    return _node(out_data, (x, *params), bwd, pooled=tracked)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss; frees the graph afterwards.

    Only leaves (tensors without a backward) keep their gradients; those of
    intermediate nodes go back to the pool once they have been used.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss is not connected to any tracked parameter")
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    loss.grad = POOL.take(loss.data.shape)
    loss.grad.fill(1.0)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            # no backward keeps its incoming gradient: it is free for reuse
            POOL.give(node.grad)
            node.grad = None
    for node in topo:
        node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# parameters, Adam, weight container
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ParameterStore:
    """Named trainable tensors plus their Adam state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(data, dtype=float), requires_grad=True)
        self.params[name] = t
        self.m[name] = np.zeros_like(t.data)
        self.v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self):
        return list(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def gradients(self) -> dict:
        return {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for n, t in self.params.items()}

    def num_parameters(self) -> int:
        return int(sum(t.data.size for t in self.params.values()))

    def arrays(self) -> dict:
        return {n: t.data for n, t in self.params.items()}

    def clone(self) -> "ParameterStore":
        other = ParameterStore()
        for n, t in self.params.items():
            other.add(n, t.data.copy())
            other.m[n] = self.m[n].copy()
            other.v[n] = self.v[n].copy()
        other.step_count = self.step_count
        return other


def adam_step(store: ParameterStore, grads: dict, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Standard bias-corrected Adam update, in place; returns the store."""
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, tensor_ in store.params.items():
        g = np.asarray(grads[name], dtype=float)
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for {name!r}")
        m = store.m[name]
        v = store.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        tensor_.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return store


# steps between the snapshots a TrainingDivergedError carries
CHECKPOINT_EVERY = 10_000


@dataclass
class TrainResult:
    store: ParameterStore
    log: list
    meta: dict


def train(store: ParameterStore, batch_losses, steps: int, lr: float,
          log_every: int, meta: dict) -> TrainResult:
    """Adam on ``store`` for ``steps`` fresh minibatches.

    ``batch_losses()`` draws one minibatch and returns ``(loss, terms)``,
    ``terms`` a dict of named loss tensors.  Step 1 and every ``log_every``-th
    step log ``step``, ``loss``, the terms in order and ``wall_time_s``.  A
    non-finite loss or gradient raises TrainingDivergedError carrying the
    last checkpoint (the initial store, then one every CHECKPOINT_EVERY
    steps) and the log so far.
    ``meta`` gains the buffer pool's takes and fresh allocations of the call.
    """
    log: list = []
    checkpoint = store.clone()
    pool_start = POOL.counts()
    t_start = time.perf_counter()
    for step in range(steps):
        store.zero_grad()
        try:
            loss, terms = batch_losses()
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(f"non-finite loss at step {step + 1}")
            backward(loss)
            adam_step(store, store.gradients(), lr=lr)
        except TrainingDivergedError as err:
            err.checkpoint = checkpoint
            err.log = log
            raise
        if (step + 1) % log_every == 0 or step == 0:
            log.append({"step": step + 1, "loss": float(loss.data),
                        **{name: float(t.data) for name, t in terms.items()},
                        "wall_time_s": time.perf_counter() - t_start})
        if (step + 1) % CHECKPOINT_EVERY == 0:
            checkpoint = store.clone()
    meta["buffer_pool"] = {k: n - pool_start[k] for k, n in POOL.counts().items()}
    return TrainResult(store=store, log=log, meta=meta)


def count_parameters(weights) -> int:
    """Trainable scalar count of a store or a name->array mapping."""
    if isinstance(weights, ParameterStore):
        return weights.num_parameters()
    return int(sum(np.asarray(a).size for a in weights.values()))


def save_weights(path, weights, meta: dict | None = None):
    """Versioned container: JSON header then flat little-endian f8 blobs.

    The header records entry names and shapes in order; blob bytes follow in
    the same order.
    """
    arrays = weights.arrays() if isinstance(weights, ParameterStore) else weights
    entries = [{"name": n, "shape": list(np.asarray(a).shape)}
               for n, a in arrays.items()]
    header = {
        "format_version": 1,
        "dtype": "<f8",
        "entries": entries,
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays.items():
            fh.write(np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes())


def load_weights(path):
    """Returns (name -> float64 array, header dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _WEIGHTS_MAGIC:
            raise ValueError(f"bad weights magic {magic!r}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if header.get("format_version") != 1:
            raise ValueError("unsupported weights container version")
        arrays = {}
        for entry in header["entries"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return arrays, header
