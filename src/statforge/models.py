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
one-step transition log-densities (Gaussian for nlar1, trapezoid for dynamo)
and their exps, trajectory log-likelihoods of one theta or of K rows at a
time, deterministic bifurcation sweeps, and trajectory CSV / binary export.

Everything that differs between the two models (prior, true theta, noise
channels and how they are drawn, ENCA minibatch, the f2 map, the per-step
map and the transition log-density) sits in one frozen ``ModelSpec``; ``NLAR1``
and ``DYNAMO`` are the shipped instances.  Every public function takes a
spec or an id from ``MODEL_IDS``, so a spec built with a configured prior or
f2 reaches every simulation it is passed to.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DegenerateLikelihoodError,
    InvalidParameterError,
    SimulationDivergedError,
)

# Any iterate beyond this magnitude aborts the run: both maps are bounded for
# in-prior parameters, so crossing it means the orbit escaped.
DIVERGENCE_GUARD = 1e6

# Trajectory length (steps after x0) of a run that does not set one.
DEFAULT_N_STEPS = 200

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

    def __post_init__(self):
        values = (self.x1, self.d1, self.x2, self.d2)
        if not all(np.isfinite(values)):
            raise ValueError(f"f2 constants must be finite, got x1, d1, x2, d2 = {values}")
        if not (self.d1 > 0 and self.d2 > 0):
            raise ValueError(f"f2 widths must be > 0, got d1 = {self.d1}, d2 = {self.d2}")

    def __call__(self, x):
        # imported here: scipy.special takes most of `import statforge`'s time
        from scipy.special import erf

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


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Everything that differs between the benchmark models.

    ``step(x, theta, noise, f2)`` advances a batch of states one step, given
    the tuple of parameter columns and the (B, c) noise row of that step.
    ``regressor(x, f2)`` and ``log_density(x_next, regressor, theta)`` are the
    data and parameter halves of the exact transition log-density; theta is
    one (p,) vector or K rows (K, p), which give a (K, N) result.
    ``noise_draw(rng, size)`` is the Generator method that draws the bare
    noise.  ``skeleton_noise`` is the fixed noise row of the deterministic
    map that ``bifurcation_sweep`` iterates at the true theta.  ``f2`` is the
    dynamo nonlinearity (None for nlar1).  Variants with another prior or
    f2 are made with ``dataclasses.replace``.
    """

    id: str
    prior: PriorSpec
    true_theta: np.ndarray      # behind the synthetic observations
    noise_channels: int
    noise_draw: Callable
    enca_minibatch: int
    step: Callable
    regressor: Callable
    log_density: Callable
    skeleton_noise: tuple
    has_suffstats: bool = False  # closed-form sufficient statistics exist
    f2: DynamoMap | None = None

    def record(self) -> dict:
        """JSON-ready provenance: id, prior box, x0 and the f2 constants."""
        return {"id": self.id,
                "prior": {"names": list(self.prior.names),
                          "lower": self.prior.lower.tolist(),
                          "upper": self.prior.upper.tolist(), "x0": self.prior.x0},
                "f2": None if self.f2 is None else self.f2.constants()}


def _theta_values(theta) -> np.ndarray:
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


def draw_bare_noise(model, n_steps: int, seed_or_rng) -> BareNoise:
    """Draw a bare-noise record; an int seed makes it exactly reproducible."""
    if isinstance(seed_or_rng, np.random.Generator):
        seed = int(seed_or_rng.integers(0, 2**63 - 1))
    else:
        seed = int(seed_or_rng)
    rng = stream(seed)
    channels = draw_noise_batch(model, 1, n_steps, rng)[0]
    return BareNoise(channels=channels, seed=seed)


def draw_noise_batch(model, batch: int, n_steps: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(batch, N, c) array of bare-noise channels."""
    spec = model_spec(model)
    return spec.noise_draw(rng, (batch, n_steps, spec.noise_channels))


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


def simulate(model, theta, noise: BareNoise, x0: float | None = None,
             n_steps: int | None = None) -> Trajectory:
    """One trajectory: row 0 of ``simulate_batch`` on the first ``n_steps`` noise rows.

    Deterministic in (theta, noise).  ``x0`` defaults to the prior's initial
    condition and ``n_steps`` to the length of the noise record.
    """
    spec = model_spec(model)
    prior = spec.prior
    theta = _theta_values(theta)
    if theta.shape != (prior.dim,):
        raise InvalidParameterError(
            f"{spec.id} expects {prior.dim} parameters, got shape {theta.shape}")
    if (theta[1:] < 0).any():
        raise InvalidParameterError(f"{' and '.join(prior.names[1:])} must be >= 0")
    if x0 is None:
        x0 = prior.x0
    if n_steps is None:
        n_steps = noise.n_steps
    if noise.n_channels != spec.noise_channels:
        raise ValueError(f"{spec.id} needs {spec.noise_channels} noise channels, "
                         f"got {noise.n_channels}")
    if noise.n_steps < n_steps:
        raise ValueError(f"noise record too short: {noise.n_steps} < {n_steps}")
    x = simulate_batch(spec, theta[None], noise.channels[None, :n_steps], x0=x0)
    return Trajectory(x=x[0], x0=float(x0))


def simulate_nlar1(theta, noise: BareNoise, x0: float | None = None,
                   n_steps: int | None = None) -> Trajectory:
    """Iterate x' = alpha*f(x) + sigma*eps from x0. Deterministic in (theta, noise)."""
    return simulate(NLAR1, theta, noise, x0=x0, n_steps=n_steps)


def simulate_dynamo(theta, noise: BareNoise, x0: float | None = None,
                    n_steps: int | None = None) -> Trajectory:
    """Iterate x' = (alpha + delta*u)*f2(x) + eps*v from x0 with the shipped f2."""
    return simulate(DYNAMO, theta, noise, x0=x0, n_steps=n_steps)


def simulate_batch(model, thetas: np.ndarray, noise: np.ndarray,
                   x0: float | None = None) -> np.ndarray:
    """Vectorized simulation of B trajectories.

    ``thetas`` is (B, p), ``noise`` is (B, N, c) of bare channels; returns the
    (B, N) state array.  The single-trajectory ``simulate`` is this with B=1.
    """
    spec = model_spec(model)
    thetas = np.asarray(thetas, dtype=float)
    noise = np.asarray(noise, dtype=float)
    batch, n_steps = noise.shape[0], noise.shape[1]
    if x0 is None:
        x0 = spec.prior.x0
    theta = tuple(thetas.T)
    x = np.empty((batch, n_steps))
    cur = np.full(batch, float(x0))
    for n in range(n_steps):
        cur = spec.step(cur, theta, noise[:, n], spec.f2)
        _guard_batch(cur, n)
        x[:, n] = cur
    return x


def _nlar1_step(x, theta, noise, f2):
    alpha, sigma = theta
    return alpha * x * x * (1.0 - x) + sigma * noise[:, 0]


def _dynamo_step(x, theta, noise, f2):
    alpha, delta, eps_amp = theta
    return (alpha + delta * noise[:, 0]) * f2(x) + eps_amp * noise[:, 1]


def _guard_batch(cur: np.ndarray, n: int):
    bad = ~np.isfinite(cur) | (np.abs(cur) > DIVERGENCE_GUARD)
    if bad.any():
        idx = int(np.argmax(bad))
        raise SimulationDivergedError(n + 1, cur[idx])


# ---------------------------------------------------------------------------
# Exact transition densities and likelihood
# ---------------------------------------------------------------------------

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _theta_columns(theta) -> tuple:
    """Parameter columns: scalars for one theta (p,), (K, 1) columns for K rows (K, p),
    so that a log-density broadcasts to the data's shape or to (K, N)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 2:
        return tuple(theta.T[:, :, None])
    return tuple(np.atleast_1d(theta))


def _nlar1_log_density(x_next, f_prev, theta):
    """Log of the Gaussian density N(alpha*f_prev, sigma^2) at x_next, given f_prev = f(x)."""
    alpha, sigma = _theta_columns(theta)
    if np.count_nonzero(sigma <= 0):
        raise InvalidParameterError("sigma must be > 0 for the transition density")
    z = (x_next - alpha * f_prev) / sigma
    return -0.5 * z * z - (np.log(sigma) + _LOG_SQRT_2PI)


def _nlar1_regressor(x, f2) -> np.ndarray:
    return f_nlar1(x)


def _dynamo_regressor(x, f2: DynamoMap) -> np.ndarray:
    """c = f2(x), checked nonnegative and clipped at 0."""
    c = np.asarray(f2(x), dtype=float)
    if np.any(c < -1e-12):
        raise InvalidParameterError("f2(x) must be nonnegative")
    return np.maximum(c, 0.0)


def _dynamo_log_density(x_next, c, theta):
    """Log of the density of A*c + E at x_next, A ~ U[alpha, alpha+delta],
    E ~ U[0, eps], c = f2(x): a trapezoid on [alpha*c, alpha*c + delta*c + eps]
    with ramps of width min(delta*c, eps); -inf outside the support."""
    alpha, delta, eps_amp = _theta_columns(theta)
    if np.any(delta < 0) or np.any(eps_amp < 0):
        raise InvalidParameterError("delta and eps must be >= 0")
    w1 = delta * c          # width of the multiplicative part
    w2 = eps_amp            # width of the additive part
    if np.any((w1 == 0.0) & (w2 == 0.0)):
        raise DegenerateLikelihoodError(
            "both noise widths vanish; transition is a point mass")
    t = x_next - alpha * c
    w1, w2, t = np.broadcast_arrays(w1, w2, t)
    lo = np.minimum(w1, w2)
    hi = np.maximum(w1, w2)
    total = w1 + w2
    inside = (t >= 0.0) & (t <= total)
    ramp_up = inside & (t < lo)
    flat = inside & (t >= lo) & (t <= total - lo)
    ramp_dn = inside & (t > total - lo)
    dens = np.zeros(t.shape)
    np.divide(t, lo * hi, out=dens, where=ramp_up)
    np.divide(1.0, hi, out=dens, where=flat)
    np.divide(total - t, lo * hi, out=dens, where=ramp_dn)
    out = np.full(t.shape, -np.inf)
    with np.errstate(divide="ignore"):      # a zero ramp height at the support's edge
        np.log(dens, out=out, where=inside)
    return out


def transition_density(model, x_next, x, theta):
    """Exact one-step density of ``model`` at x_next given the state x: the
    exp of the spec's log-density."""
    spec = model_spec(model)
    out = np.exp(spec.log_density(np.asarray(x_next, dtype=float),
                                  spec.regressor(x, spec.f2), theta))
    return out if out.ndim else float(out)


def log_likelihood_fn(traj: Trajectory, model):
    """theta -> exact trajectory log-likelihood, the sum of the log-densities of
    its transitions; -inf when any transition lies outside the support.

    The returned function takes one theta (p,) and returns a float, or K
    rows (K, p) and returns the (K,) log-likelihoods; one theta is the row
    of a (1, p) batch, so both forms give the same bits per row.  The data
    terms (the lagged states and the regressor f(x_{n-1}), or the clipped
    f2(x_{n-1}) for dynamo) are computed once here, not per theta.
    """
    spec = model_spec(model)
    log_density, regressor = spec.log_density, spec.regressor(traj.lagged(), spec.f2)
    x_next = traj.x

    def loglik(theta):
        theta = np.asarray(theta, dtype=float)
        values = log_density(x_next, regressor, np.atleast_2d(theta)).sum(axis=1)
        return values if theta.ndim == 2 else float(values[0])

    return loglik


def log_likelihood(traj: Trajectory, theta, model) -> float:
    """Exact trajectory log-likelihood; -inf when any transition lies outside the support."""
    return log_likelihood_fn(traj, model)(theta)


# ---------------------------------------------------------------------------
# Model specs
# ---------------------------------------------------------------------------

NLAR1 = ModelSpec(
    id="nlar1", prior=NLAR1_PRIOR, true_theta=np.array([5.3, 0.015]),
    noise_channels=1, noise_draw=np.random.Generator.standard_normal,
    enca_minibatch=300, step=_nlar1_step, regressor=_nlar1_regressor,
    log_density=_nlar1_log_density, skeleton_noise=(0.0,), has_suffstats=True)
DYNAMO = ModelSpec(
    id="dynamo", prior=DYNAMO_PRIOR, true_theta=np.array([1.11, 0.15, 0.08]),
    noise_channels=2, noise_draw=np.random.Generator.random,
    enca_minibatch=100, step=_dynamo_step, regressor=_dynamo_regressor,
    log_density=_dynamo_log_density, skeleton_noise=(0.0, 0.5), f2=DEFAULT_DYNAMO_MAP)

_SPECS = {spec.id: spec for spec in (NLAR1, DYNAMO)}
MODEL_IDS = tuple(_SPECS)
TRUE_THETA = {spec.id: spec.true_theta for spec in _SPECS.values()}


def model_spec(model, prior: PriorSpec | None = None) -> ModelSpec:
    """The spec of ``model`` (a ModelSpec or an id in MODEL_IDS), with ``prior``
    in place of its own when one is given."""
    if not isinstance(model, ModelSpec):
        if model not in _SPECS:
            raise ValueError(f"unknown model id {model!r}; expected one of {MODEL_IDS}")
        model = _SPECS[model]
    return model if prior is None else replace(model, prior=prior)


def prior_for(model) -> PriorSpec:
    return model_spec(model).prior


# ---------------------------------------------------------------------------
# Prior sampling
# ---------------------------------------------------------------------------

def sample_prior(prior: PriorSpec, rng: np.random.Generator,
                 size: int | None = None) -> np.ndarray:
    """Componentwise uniform draws inside the prior box; (p,) or (size, p)."""
    if size is None:
        return prior.lower + rng.random(prior.dim) * prior.ranges
    return prior.lower + rng.random((size, prior.dim)) * prior.ranges


def prior_predictive(model, m: int, n_steps: int, rng: np.random.Generator):
    """m prior draws, their bare noise and their trajectories, drawn from
    ``rng`` in that order; returns (thetas (m, p), noise (m, N, c), x (m, N))."""
    spec = model_spec(model)
    thetas = sample_prior(spec.prior, rng, size=m)
    noise = draw_noise_batch(spec, m, n_steps, rng)
    return thetas, noise, simulate_batch(spec, thetas, noise, x0=spec.prior.x0)


# ---------------------------------------------------------------------------
# Bifurcation sweeps
# ---------------------------------------------------------------------------

@dataclass
class BifurcationPoint:
    alpha: float
    values: np.ndarray
    diverged: bool = False


def bifurcation_sweep(model, alpha_grid, n_transient: int = 1000,
                      n_record: int = 128,
                      x0: float | None = None) -> list[BifurcationPoint]:
    """Deterministic amplitude sweep over alpha, all grid points at once.

    Runs the model's map at the true theta with alpha from the grid and the
    noise fixed at the spec's ``skeleton_noise`` row: nlar1 runs the
    noise-free map x' = alpha*f(x); dynamo holds alpha constant (u = 0) and
    puts the additive noise at its mean, x' = alpha*f2(x) + eps/2.
    Divergence is recorded per grid point instead of aborting the sweep.
    """
    spec = model_spec(model)
    alphas = np.asarray(alpha_grid, dtype=float)
    thetas = np.tile(spec.true_theta, (alphas.size, 1))
    thetas[:, 0] = alphas
    theta = tuple(thetas.T)
    noise = np.tile(spec.skeleton_noise, (alphas.size, 1))
    x = np.full(alphas.size, float(spec.prior.x0 if x0 is None else x0))
    diverged = np.zeros(alphas.size, dtype=bool)
    rec = np.empty((alphas.size, n_record))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_transient + n_record):
            x = spec.step(x, theta, noise, spec.f2)
            diverged |= ~np.isfinite(x) | (np.abs(x) > DIVERGENCE_GUARD)
            if n >= n_transient:
                rec[:, n - n_transient] = x
    return [BifurcationPoint(alpha=float(a), values=rec[i, :0] if bad else rec[i],
                             diverged=bool(bad))
            for i, (a, bad) in enumerate(zip(alphas, diverged))]


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
    """Parse ``trajectory_to_csv`` output; a malformed text raises ValueError."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["step", "x"]:
        raise ValueError("not a trajectory CSV: the first row must be 'step,x'")
    if len(rows) < 2:
        raise ValueError("trajectory CSV has no step-0 row carrying x0")
    values = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            values.append(float(row[1]))
        except (IndexError, ValueError):
            raise ValueError(f"trajectory CSV row {i}: expected 'step,x' with a "
                             f"numeric x, got {row!r}") from None
    return Trajectory(x=np.array(values[1:]), x0=values[0])


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
