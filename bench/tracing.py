"""Per-layer spans and counters for the traced benchmark run.

The program under test is not modified.  `instrument` replaces selected
public functions of the statforge modules with timing wrappers for the
duration of a ``with`` block and restores the originals afterwards.  A
function is replaced in every statforge module namespace that binds it
(callers such as ``enca`` import ``simulate_batch`` by name), so the spans
sit at the boundaries between the package's modules.

Spans are aggregated as they close (inclusive time, self time, calls) rather
than kept one by one: an SABC call opens about 2e5 ``stream`` spans.  Self
time is a span's duration minus the time covered by its direct children.
Every layer runs in this one process and nothing queues, so no layer has a
wait time to report.

Flop and byte counts of ``conv1d_valid`` and ``bilstm`` are *computed* from
array shapes: they count the arithmetic of the matrix products and the bytes
of the arrays read and written once, and ignore cache misses and temporaries.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter
_F8 = 8  # bytes per float64


class Tracer:
    """Aggregated spans and counters of one traced workload call."""

    def __init__(self):
        self.total = defaultdict(float)    # inclusive seconds per span name
        self.self_s = defaultdict(float)   # seconds minus direct children
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)   # named counters (flops, bytes, rows, ...)
        self._stack: list[float] = []      # child-time accumulators of open spans

    def timed(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        stack.append(0.0)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            child = stack.pop()
            self.total[name] += dt
            self.self_s[name] += dt - child
            self.calls[name] += 1
            if stack:
                stack[-1] += dt

    def add(self, name: str, value: float):
        self.counts[name] += value


# ---------------------------------------------------------------------------
# computed flop / byte counts
# ---------------------------------------------------------------------------

def _shape(a) -> tuple:
    return tuple(np.shape(getattr(a, "data", a)))


def _requires_grad(a) -> bool:
    return bool(getattr(a, "requires_grad", False))


def conv1d_counts(x_shape, k_shape):
    """(fwd_flops, fwd_bytes, per-operand backward (flops, bytes)) of conv1d_valid.

    x is (..., L, C_in), kernel (k, C_in, C_out), output (..., L-k+1, C_out).
    Forward: 2*B*L_out*k*C_in*C_out flops; it reads x and the kernel once and
    writes the output.  The kernel gradient repeats the forward product over
    the windows; the input gradient correlates the padded output gradient
    (L positions) with the flipped kernel.
    """
    batch = math.prod(x_shape[:-2])
    length, c_in = x_shape[-2], x_shape[-1]
    k, _, c_out = k_shape
    l_out = length - k + 1
    x_n, k_n, y_n = batch * length * c_in, k * c_in * c_out, batch * l_out * c_out
    fwd = (2 * batch * l_out * k * c_in * c_out, _F8 * (x_n + k_n + y_n))
    d_kernel = (2 * batch * l_out * k * c_in * c_out, _F8 * (x_n + y_n + k_n))
    d_input = (2 * batch * length * k * c_out * c_in, _F8 * (y_n + k_n + x_n))
    return fwd, d_kernel, d_input


def bilstm_counts(x_shape, wx_shape, wh_shape):
    """(fwd (flops, bytes), bwd (flops, bytes)) of one bidirectional LSTM layer.

    Flops are the matrix products only (2 per multiply-add), over D=2
    directions, B sequences and T steps: x@wx and h@wh forward; dh@wh^T,
    h^T@dz, x^T@dz and dz@wx^T backward, so the backward counts twice the
    forward.  Bytes: forward reads x and the weights and writes the
    pre-activations, gates, cell states, hidden states and the output; the
    backward reads those caches and the output gradient and writes the
    pre-activation and input gradients.
    """
    *lead, steps, c_in = x_shape
    batch = math.prod(lead) if lead else 1
    hidden = wh_shape[0]
    d = 2
    g4 = 4 * hidden
    per_step = d * batch * steps
    fwd_flops = 2 * per_step * (c_in * g4 + hidden * g4)
    weights = d * (c_in * g4 + hidden * g4 + g4)
    x_n = d * batch * steps * c_in
    xw_n = gates_n = per_step * g4
    state_n = d * batch * (steps + 1) * hidden       # h_seq, c_seq each
    tanh_n = per_step * hidden
    out_n = batch * steps * 2 * hidden
    fwd_bytes = _F8 * (x_n + weights + xw_n + gates_n + 2 * state_n + tanh_n + out_n)
    bwd_bytes = _F8 * (gates_n + tanh_n + 2 * state_n + out_n + x_n + weights
                       + xw_n + x_n + weights)
    return (fwd_flops, fwd_bytes), (2 * fwd_flops, bwd_bytes)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _with_backward(tracer: Tracer, node, name: str, flops: float, nbytes: float):
    """Time the backward closure of an autodiff node under ``name``."""
    inner = getattr(node, "_backward", None)
    if inner is None:
        return node

    def bwd(g):
        tracer.add(name + ".flop", flops)
        tracer.add(name + ".byte", nbytes)
        return tracer.timed(name, inner, g)

    node._backward = bwd
    return node


def _wrap_conv1d(tracer, fn):
    def conv1d_valid(x, kernel, bias=None):
        out = tracer.timed("tensor.conv1d.fwd", fn, x, kernel, bias)
        fwd, d_kernel, d_input = conv1d_counts(_shape(x), _shape(kernel))
        tracer.add("tensor.conv1d.fwd.flop", fwd[0])
        tracer.add("tensor.conv1d.fwd.byte", fwd[1])
        flops = nbytes = 0
        for part, needed in ((d_kernel, _requires_grad(kernel)),
                             (d_input, _requires_grad(x))):
            if needed:
                flops += part[0]
                nbytes += part[1]
        return _with_backward(tracer, out, "tensor.conv1d.bwd", flops, nbytes)
    return conv1d_valid


def _wrap_bilstm(tracer, fn):
    def bilstm(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b):
        out = tracer.timed("tensor.bilstm.fwd", fn, x, wx_f, wh_f, b_f, wx_b, wh_b, b_b)
        fwd, bwd = bilstm_counts(_shape(x), _shape(wx_f), _shape(wh_f))
        tracer.add("tensor.bilstm.fwd.flop", fwd[0])
        tracer.add("tensor.bilstm.fwd.byte", fwd[1])
        return _with_backward(tracer, out, "tensor.bilstm.bwd", bwd[0], bwd[1])
    return bilstm


def _wrap_maxpool(tracer, fn):
    def maxpool1d(x, window=2):
        out = tracer.timed("tensor.maxpool.fwd", fn, x, window)
        return _with_backward(tracer, out, "tensor.maxpool.bwd", 0, 0)
    return maxpool1d


def _graph_nodes(loss) -> int:
    """Number of tracked nodes the backward sweep will visit."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _wrap_backward(tracer, fn):
    def backward(loss):
        tracer.add("tensor.backward.nodes", _graph_nodes(loss))
        return tracer.timed("tensor.backward", fn, loss)
    return backward


def _wrap_simulate_batch(tracer, fn):
    def simulate_batch(model_id, thetas, noise, *args, **kwargs):
        tracer.add("models.simulate_batch.rows", np.shape(thetas)[0])
        return tracer.timed("models.simulate_batch", fn, model_id, thetas, noise,
                            *args, **kwargs)
    return simulate_batch


def _wrap_log_likelihood(tracer, fn):
    def log_likelihood(*args, **kwargs):
        value = tracer.timed("models.log_likelihood", fn, *args, **kwargs)
        if value == -math.inf:
            tracer.add("models.log_likelihood.neginf", 1)
        return value
    return log_likelihood


def _wrap_plain(name):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            return tracer.timed(name, fn, *args, **kwargs)
        wrapper.__name__ = fn.__name__
        return wrapper
    return make


# (module, function, wrapper factory)
TARGETS = (
    ("tensor", "conv1d_valid", _wrap_conv1d),
    ("tensor", "bilstm", _wrap_bilstm),
    ("tensor", "maxpool1d", _wrap_maxpool),
    ("tensor", "dense", _wrap_plain("tensor.dense")),
    ("tensor", "backward", _wrap_backward),
    ("tensor", "adam_step", _wrap_plain("tensor.adam_step")),
    ("encoder", "encode_forward", _wrap_plain("encoder.encode_forward")),
    ("enca", "training_losses", _wrap_plain("enca.training_losses")),
    ("enca", "estimate_cx", _wrap_plain("enca.estimate_cx")),
    ("inca", "training_losses", _wrap_plain("inca.training_losses")),
    ("models", "stream", _wrap_plain("models.stream")),
    ("models", "simulate_batch", _wrap_simulate_batch),
    ("models", "draw_noise_batch", _wrap_plain("models.draw_noise_batch")),
    ("models", "sample_prior", _wrap_plain("models.sample_prior")),
    ("models", "log_likelihood", _wrap_log_likelihood),
    ("suffstats", "stats_batch", _wrap_plain("suffstats.stats_batch")),
    ("abcsampler", "fit_standardizer", _wrap_plain("abcsampler.fit_standardizer")),
    ("abcsampler", "sabc_core", _wrap_plain("abcsampler.sabc_core")),
    ("mcmc", "metropolis_run", _wrap_plain("mcmc.metropolis_run")),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "statforge" or name.startswith("statforge."))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the TARGETS through ``tracer`` inside the block; restore after."""
    modules = _package_modules()
    by_name = {m.__name__: m for m in modules}
    replaced = []   # (module, attribute, original)
    try:
        for mod_name, fn_name, factory in TARGETS:
            original = getattr(by_name["statforge." + mod_name], fn_name)
            wrapper = factory(tracer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
