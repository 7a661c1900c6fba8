"""Benchmark stochastic iterative maps.

Two models are provided, both driven by parameter-independent "bare" noise so
that the simulator is a deterministic map of (theta, noise):

* ``nlar1``: nonlinear AR(1), x' = alpha * f(x) + sigma * eps with
  f(x) = x^2 (1 - x) and standard-normal eps.  Two parameters (alpha, sigma).
* ``dynamo``: x' = a_n * f2(x) + e_n with a_n uniform on [alpha, alpha+delta]
  and e_n uniform on [0, eps].  Three parameters (alpha, delta, eps).  The
  bare noise is the pair of standard uniforms (u, v) transformed inside the
  simulator, which keeps the noise distribution parameter-free.

Besides the simulators the module holds the uniform box priors, the exact
one-step transition densities (Gaussian for nlar1, trapezoid for dynamo),
trajectory log-likelihoods, deterministic bifurcation sweeps, and trajectory
CSV / binary export.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import (
    DegenerateLikelihoodError,
    InvalidParameterError,
    SimulationDivergedError,
)

MODEL_IDS = ("nlar1", "dynamo")

# Any iterate beyond this magnitude aborts the run: both maps are bounded for
# in-prior parameters, so crossing it means the orbit escaped.
DIVERGENCE_GUARD = 1e6

_TRAJ_MAGIC = b"SFTRAJ01"


def f_nlar1(x):
    """Nonlinearity of the nlar1 map, f(x) = x^2 (1 - x)."""
    x = np.asarray(x, dtype=float)
    return x * x * (1.0 - x)


@dataclass(frozen=True)
class DynamoMap:
    """Smooth threshold nonlinearity used by the dynamo model.

    f2(x) = x/4 * (1 + erf((x-x1)/d1)) * (1 - erf((x-x2)/d2))

    The shipped constants are *calibrated*, not taken from any reference:
    they were chosen by running ``bifurcation_sweep`` so that the
    deterministic map exhibits a stable zero branch, a nonzero branch, a
    period-doubling cascade and chaos over alpha in [0.9, 1.4].
    """

    x1: float = 0.5
    d1: float = 0.15
    x2: float = 1.3
    d2: float = 0.25
    source: str = "calibrated"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo = 1.0 + erf((x - self.x1) / self.d1)
        hi = 1.0 - erf((x - self.x2) / self.d2)
        return 0.25 * x * lo * hi

    def constants(self) -> dict:
        return {"x1": self.x1, "d1": self.d1, "x2": self.x2, "d2": self.d2,
                "source": self.source}


DEFAULT_DYNAMO_MAP = DynamoMap()


@dataclass(frozen=True)
class PriorSpec:
    """Uniform box prior plus the fixed initial condition of the model."""

    names: tuple
    lower: np.ndarray
    upper: np.ndarray
    x0: float

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        # degenerate (point) components are tolerated for test harnesses
        if not np.all(self.lower <= self.upper):
            raise InvalidParameterError("prior box needs lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def ranges(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta >= self.lower) and np.all(theta <= self.upper))


NLAR1_PRIOR = PriorSpec(("alpha", "sigma"), (4.2, 0.005), (5.8, 0.025), x0=0.25)
DYNAMO_PRIOR = PriorSpec(("alpha", "delta", "eps"), (0.9, 0.05, 0.02),
                         (1.4, 0.25, 0.15), x0=1.0)

# Parameter values behind the synthetic observations used in inference runs.
TRUE_THETA = {"nlar1": np.array([5.3, 0.015]),
              "dynamo": np.array([1.11, 0.15, 0.08])}


def prior_for(model_id: str) -> PriorSpec:
    if model_id == "nlar1":
        return NLAR1_PRIOR
    if model_id == "dynamo":
        return DYNAMO_PRIOR
    raise ValueError(f"unknown model id {model_id!r}")


def noise_channels(model_id: str) -> int:
    """Number of bare-noise channels per step (1 for nlar1, 2 for dynamo)."""
    return {"nlar1": 1, "dynamo": 2}[model_id]


@dataclass
class ParameterVector:
    """Model parameters paired with the model they belong to."""

    values: np.ndarray
    model_id: str

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        expected = prior_for(self.model_id).dim
        if self.values.shape != (expected,):
            raise InvalidParameterError(
                f"{self.model_id} expects {expected} parameters, got {self.values.shape}")

    def check_in_prior(self, prior: PriorSpec | None = None):
        prior = prior or prior_for(self.model_id)
        if not prior.contains(self.values):
            raise InvalidParameterError(
                f"theta {self.values} outside prior box for {self.model_id}")
        return self


def _theta_values(theta) -> np.ndarray:
    if isinstance(theta, ParameterVector):
        return theta.values
    return np.atleast_1d(np.asarray(theta, dtype=float))


# ---------------------------------------------------------------------------
# RNG streams and bare noise
# ---------------------------------------------------------------------------

_STREAM_KEY_SALT = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF


def _stream_key_counter(seed: int, path) -> tuple[np.ndarray, np.ndarray]:
    """Philox (key, counter) of the stream at (seed, *path)."""
    if len(path) > 3:
        raise ValueError("at most 3 path components")
    counter = np.zeros(4, dtype=np.uint64)
    for i, part in enumerate(path):
        counter[i + 1] = np.uint64(int(part) & _U64)
    key = np.array([np.uint64(int(seed) & _U64), np.uint64(_STREAM_KEY_SALT)],
                   dtype=np.uint64)
    return key, counter


def stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based RNG stream, disjoint for distinct (seed, path) tuples.

    Parallel callers derive their streams from integer path components
    (e.g. sweep and particle index) instead of sharing one generator.
    """
    key, counter = _stream_key_counter(seed, path)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def row_streams(rows, seed: int, *prefix: int):
    """Yield, for each id in ``rows``, a generator equal to ``stream(seed, *prefix, row)``.

    A Philox stream is fixed by its (key, counter) alone, so one Philox is
    built per call and, for each row, its counter is set to the row's and
    its output buffer emptied; the draws are bit-identical to a fresh
    ``stream``.  The same generator object is yielded every time: it is
    valid only until the next row is requested, so draw from it before
    advancing the iterator and do not keep it.
    """
    key, counter = _stream_key_counter(seed, (*prefix, 0))
    bitgen = np.random.Philox(key=key, counter=counter)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state          # counter as built, empty output buffer
    row_counter = fresh["state"]["counter"]
    slot = len(prefix) + 1
    for row in rows:
        row_counter[slot] = int(row) & _U64
        bitgen.state = fresh
        yield gen


@dataclass
class BareNoise:
    """Parameter-independent per-step noise record.

    ``channels`` has shape (N, c): standard-normal draws for nlar1 (c=1),
    standard-uniform pairs for dynamo (c=2).  Channels are a pure function
    of (seed, model, N), so the record is reproducible from its seed.
    """

    channels: np.ndarray
    seed: int

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        if self.channels.ndim == 1:
            self.channels = self.channels[:, None]

    @property
    def n_steps(self) -> int:
        return self.channels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]


def draw_bare_noise(model_id: str, n_steps: int, seed_or_rng) -> BareNoise:
    """Draw a bare-noise record; an int seed makes it exactly reproducible."""
    if isinstance(seed_or_rng, np.random.Generator):
        seed = int(seed_or_rng.integers(0, 2**63 - 1))
    else:
        seed = int(seed_or_rng)
    rng = stream(seed)
    channels = draw_noise_batch(model_id, 1, n_steps, rng)[0]
    return BareNoise(channels=channels, seed=seed)


def draw_noise_batch(model_id: str, batch: int, n_steps: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(batch, N, c) array of bare-noise channels."""
    c = noise_channels(model_id)
    if model_id == "nlar1":
        return rng.standard_normal((batch, n_steps, c))
    return rng.random((batch, n_steps, c))


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Realization x_1..x_N of a model, with the fixed x_0 kept as metadata."""

    x: np.ndarray
    x0: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1:
            raise ValueError("trajectory must be one-dimensional")

    @property
    def n_steps(self) -> int:
        return self.x.shape[0]

    def lagged(self) -> np.ndarray:
        """Regressor sequence (x_0, x_1, ..., x_{N-1})."""
        return np.concatenate(([self.x0], self.x[:-1]))


def _check_noise(noise: BareNoise, model_id: str, n_steps: int):
    want = noise_channels(model_id)
    if noise.n_channels != want:
        raise ValueError(f"{model_id} needs {want} noise channels, got {noise.n_channels}")
    if noise.n_steps < n_steps:
        raise ValueError(f"noise record too short: {noise.n_steps} < {n_steps}")


def simulate_nlar1(theta, noise: BareNoise, x0: float | None = None,
                   n_steps: int | None = None) -> Trajectory:
    """Iterate x' = alpha*f(x) + sigma*eps from x0. Deterministic in (theta, noise)."""
    alpha, sigma = _theta_values(theta)
    if sigma < 0:
        raise InvalidParameterError("sigma must be >= 0")
    if x0 is None:
        x0 = NLAR1_PRIOR.x0
    if n_steps is None:
        n_steps = noise.n_steps
    _check_noise(noise, "nlar1", n_steps)
    eps = noise.channels[:n_steps, 0]
    x = np.empty(n_steps)
    cur = float(x0)
    for n in range(n_steps):
        cur = alpha * cur * cur * (1.0 - cur) + sigma * eps[n]
        if not np.isfinite(cur) or abs(cur) > DIVERGENCE_GUARD:
            raise SimulationDivergedError(n + 1, cur)
        x[n] = cur
    return Trajectory(x=x, x0=float(x0))


def simulate_dynamo(theta, noise: BareNoise, x0: float | None = None,
                    n_steps: int | None = None,
                    f2: DynamoMap = DEFAULT_DYNAMO_MAP) -> Trajectory:
    """Iterate x' = (alpha + delta*u)*f2(x) + eps*v from x0."""
    alpha, delta, eps_amp = _theta_values(theta)
    if delta < 0 or eps_amp < 0:
        raise InvalidParameterError("delta and eps must be >= 0")
    if x0 is None:
        x0 = DYNAMO_PRIOR.x0
    if n_steps is None:
        n_steps = noise.n_steps
    _check_noise(noise, "dynamo", n_steps)
    u = noise.channels[:n_steps, 0]
    v = noise.channels[:n_steps, 1]
    x = np.empty(n_steps)
    cur = float(x0)
    for n in range(n_steps):
        cur = (alpha + delta * u[n]) * float(f2(cur)) + eps_amp * v[n]
        if not np.isfinite(cur) or abs(cur) > DIVERGENCE_GUARD:
            raise SimulationDivergedError(n + 1, cur)
        x[n] = cur
    return Trajectory(x=x, x0=float(x0))


def simulate(model_id: str, theta, noise: BareNoise, x0: float | None = None,
             n_steps: int | None = None, f2: DynamoMap = DEFAULT_DYNAMO_MAP) -> Trajectory:
    if model_id == "nlar1":
        return simulate_nlar1(theta, noise, x0=x0, n_steps=n_steps)
    if model_id == "dynamo":
        return simulate_dynamo(theta, noise, x0=x0, n_steps=n_steps, f2=f2)
    raise ValueError(f"unknown model id {model_id!r}")


def simulate_batch(model_id: str, thetas: np.ndarray, noise: np.ndarray,
                   x0: float | None = None,
                   f2: DynamoMap = DEFAULT_DYNAMO_MAP) -> np.ndarray:
    """Vectorized simulation of B trajectories.

    ``thetas`` is (B, p), ``noise`` is (B, N, c) of bare channels; returns the
    (B, N) state array.  Bit-identical to running ``simulate`` per row.
    """
    thetas = np.asarray(thetas, dtype=float)
    noise = np.asarray(noise, dtype=float)
    batch, n_steps = noise.shape[0], noise.shape[1]
    prior = prior_for(model_id)
    if x0 is None:
        x0 = prior.x0
    x = np.empty((batch, n_steps))
    cur = np.full(batch, float(x0))
    if model_id == "nlar1":
        alpha, sigma = thetas[:, 0], thetas[:, 1]
        eps = noise[:, :, 0]
        for n in range(n_steps):
            cur = alpha * cur * cur * (1.0 - cur) + sigma * eps[:, n]
            _guard_batch(cur, n)
            x[:, n] = cur
    elif model_id == "dynamo":
        alpha, delta, eps_amp = thetas[:, 0], thetas[:, 1], thetas[:, 2]
        u, v = noise[:, :, 0], noise[:, :, 1]
        for n in range(n_steps):
            cur = (alpha + delta * u[:, n]) * f2(cur) + eps_amp * v[:, n]
            _guard_batch(cur, n)
            x[:, n] = cur
    else:
        raise ValueError(f"unknown model id {model_id!r}")
    return x


def _guard_batch(cur: np.ndarray, n: int):
    bad = ~np.isfinite(cur) | (np.abs(cur) > DIVERGENCE_GUARD)
    if bad.any():
        idx = int(np.argmax(bad))
        raise SimulationDivergedError(n + 1, cur[idx])


# ---------------------------------------------------------------------------
# Exact transition densities and likelihood
# ---------------------------------------------------------------------------

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _nlar1_density(x_next, f_prev, theta):
    """Gaussian density N(alpha*f_prev, sigma^2) at x_next, given f_prev = f(x)."""
    alpha, sigma = _theta_values(theta)
    if sigma <= 0:
        raise InvalidParameterError("sigma must be > 0 for the transition density")
    mean = alpha * f_prev
    z = (x_next - mean) / sigma
    return np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def transition_density_nlar1(x_next, x, theta):
    """Gaussian one-step density N(alpha*f(x), sigma^2) at x_next."""
    out = _nlar1_density(np.asarray(x_next, dtype=float), f_nlar1(x), theta)
    return out if out.ndim else float(out)


def _dynamo_regressor(x, f2: DynamoMap) -> np.ndarray:
    """c = f2(x), checked nonnegative and clipped at 0."""
    c = np.asarray(f2(x), dtype=float)
    if np.any(c < -1e-12):
        raise InvalidParameterError("f2(x) must be nonnegative")
    return np.maximum(c, 0.0)


def _dynamo_density(x_next, c, theta):
    """Trapezoid density of A*c + E at x_next, given the regressor c = f2(x)."""
    alpha, delta, eps_amp = _theta_values(theta)
    if delta < 0 or eps_amp < 0:
        raise InvalidParameterError("delta and eps must be >= 0")
    w1 = delta * c          # width of the multiplicative part
    w2 = eps_amp            # width of the additive part
    if np.isscalar(w1) or w1.ndim == 0:
        if float(w1) == 0.0 and w2 == 0.0:
            raise DegenerateLikelihoodError(
                "both noise widths vanish; transition is a point mass")
    elif w2 == 0.0 and np.any(w1 == 0.0):
        raise DegenerateLikelihoodError(
            "both noise widths vanish; transition is a point mass")
    t = x_next - alpha * c
    w1, t = np.broadcast_arrays(np.asarray(w1, dtype=float), t)
    lo = np.minimum(w1, w2)
    hi = np.maximum(w1, w2)
    total = w1 + w2
    out = np.zeros_like(t)
    inside = (t >= 0.0) & (t <= total)
    ramp_up = inside & (t < lo)
    flat = inside & (t >= lo) & (t <= total - lo)
    ramp_dn = inside & (t > total - lo)
    np.divide(t, lo * hi, out=out, where=ramp_up)
    np.divide(1.0, hi, out=out, where=flat)
    np.divide(total - t, lo * hi, out=out, where=ramp_dn)
    return out


def transition_density_dynamo(x_next, x, theta, f2: DynamoMap = DEFAULT_DYNAMO_MAP):
    """Density of A*c + E with A ~ U[alpha, alpha+delta], E ~ U[0, eps], c = f2(x).

    The sum of two independent uniforms gives a trapezoid supported on
    [alpha*c, alpha*c + delta*c + eps]: linear ramps of width min(delta*c, eps)
    and a flat top of height 1/max(delta*c, eps).  Either width may vanish,
    collapsing to a single uniform; both vanishing is a point mass and raises.
    """
    out = _dynamo_density(np.asarray(x_next, dtype=float), _dynamo_regressor(x, f2),
                          theta)
    return out if out.ndim else float(out)


def log_likelihood_fn(traj: Trajectory, model_id: str,
                      f2: DynamoMap = DEFAULT_DYNAMO_MAP):
    """theta -> exact trajectory log-likelihood, -inf when any transition factor is 0.

    The data terms (the lagged states and the regressor f(x_{n-1}), or the
    clipped f2(x_{n-1}) for dynamo) are computed once here, not per theta;
    the arithmetic per theta is that of the transition densities.
    """
    lagged = traj.lagged()
    if model_id == "nlar1":
        density, regressor = _nlar1_density, f_nlar1(lagged)
    elif model_id == "dynamo":
        density, regressor = _dynamo_density, _dynamo_regressor(lagged, f2)
    else:
        raise ValueError(f"unknown model id {model_id!r}")
    x_next = traj.x

    def loglik(theta) -> float:
        dens = density(x_next, regressor, theta)    # 1-D, as traj.x is
        if (dens <= 0.0).any():
            return float("-inf")
        return float(np.log(dens).sum())

    return loglik


def log_likelihood(traj: Trajectory, theta, model_id: str,
                   f2: DynamoMap = DEFAULT_DYNAMO_MAP) -> float:
    """Exact trajectory log-likelihood; -inf when any transition factor is 0."""
    return log_likelihood_fn(traj, model_id, f2)(theta)


# ---------------------------------------------------------------------------
# Prior sampling
# ---------------------------------------------------------------------------

def sample_prior(prior: PriorSpec, rng: np.random.Generator,
                 size: int | None = None) -> np.ndarray:
    """Componentwise uniform draws inside the prior box; (p,) or (size, p)."""
    if size is None:
        return prior.lower + rng.random(prior.dim) * prior.ranges
    return prior.lower + rng.random((size, prior.dim)) * prior.ranges


# ---------------------------------------------------------------------------
# Bifurcation sweeps
# ---------------------------------------------------------------------------

@dataclass
class BifurcationPoint:
    alpha: float
    values: np.ndarray
    diverged: bool = False


def bifurcation_sweep(model_id: str, alpha_grid, n_transient: int = 1000,
                      n_record: int = 128, x0: float | None = None,
                      eps_mean: float | None = None,
                      f2: DynamoMap = DEFAULT_DYNAMO_MAP) -> list[BifurcationPoint]:
    """Deterministic amplitude sweep over alpha.

    nlar1 runs the noise-free map x' = alpha*f(x).  dynamo holds alpha
    constant and replaces the additive noise by its mean, x' = alpha*f2(x) +
    eps_mean, with eps_mean defaulting to half the true eps amplitude.
    Divergence is recorded per grid point instead of aborting the sweep.
    """
    prior = prior_for(model_id)
    if x0 is None:
        x0 = prior.x0
    if model_id == "nlar1":
        def step(x, a):
            return a * x * x * (1.0 - x)
    elif model_id == "dynamo":
        if eps_mean is None:
            eps_mean = float(TRUE_THETA["dynamo"][2]) / 2.0

        def step(x, a):
            return a * float(f2(x)) + eps_mean
    else:
        raise ValueError(f"unknown model id {model_id!r}")

    points = []
    for a in np.asarray(alpha_grid, dtype=float):
        x = float(x0)
        diverged = False
        rec = np.empty(n_record)
        try:
            for _ in range(n_transient):
                x = step(x, a)
                if not np.isfinite(x) or abs(x) > DIVERGENCE_GUARD:
                    raise SimulationDivergedError(0, x)
            for i in range(n_record):
                x = step(x, a)
                if not np.isfinite(x) or abs(x) > DIVERGENCE_GUARD:
                    raise SimulationDivergedError(0, x)
                rec[i] = x
        except SimulationDivergedError:
            diverged = True
            rec = rec[:0]
        points.append(BifurcationPoint(alpha=float(a), values=rec, diverged=diverged))
    return points


def cluster_values(values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Distinct orbit values up to a clustering tolerance (sorted)."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return vals
    reps = [vals[0]]
    for v in vals[1:]:
        if v - reps[-1] > tol:
            reps.append(v)
    return np.asarray(reps)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with columns (step, x); the step-0 row carries x0."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["step", "x"])
    w.writerow([0, repr(traj.x0)])
    for i, v in enumerate(traj.x, start=1):
        w.writerow([i, repr(float(v))])
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["step", "x"]:
        raise ValueError("not a trajectory CSV")
    x0 = float(rows[1][1])
    x = np.array([float(r[1]) for r in rows[2:]])
    return Trajectory(x=x, x0=x0)


def save_trajectory_batch(path, x: np.ndarray, x0: float):
    """Binary batch: 8-byte magic, u64 version/B/N, f8 x0, then row-major f8."""
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype="<f8")))
    with open(path, "wb") as fh:
        fh.write(_TRAJ_MAGIC)
        fh.write(struct.pack("<QQQd", 1, x.shape[0], x.shape[1], float(x0)))
        fh.write(x.tobytes())


def load_trajectory_batch(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _TRAJ_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        version, batch, n_steps, x0 = struct.unpack("<QQQd", fh.read(32))
        if version != 1:
            raise ValueError(f"unsupported trajectory batch version {version}")
        data = np.frombuffer(fh.read(batch * n_steps * 8), dtype="<f8")
    return data.reshape(batch, n_steps).copy(), x0
