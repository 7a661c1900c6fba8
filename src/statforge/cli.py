"""Single entry point wiring the library into reproducible experiment runs.

Every subcommand writes its outputs plus exactly one manifest.json into the
directory given by --out and nowhere else.  Exit codes: 0 success, 2 usage
errors (unknown flags, malformed config, missing weight files), 1 runtime
failures.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod
from . import abcsampler, diagnostics, enca as enca_mod, inca as inca_mod, mcmc as mcmc_mod
from .encoder import MIN_INPUT_LENGTH, encode, encoder_subset, infer_q
from .errors import StatforgeError
from .models import (
    MODEL_IDS,
    Trajectory,
    bifurcation_sweep,
    draw_bare_noise,
    draw_noise_batch,
    save_trajectory_batch,
    simulate,
    simulate_batch,
    stream,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .samples import sample_set_from_csv, sample_set_to_csv
from .suffstats import stats_batch, stats_to_csv
from .tensor import load_weights, save_weights


class UsageError(Exception):
    """Invalid invocation detected after argparse (exit code 2)."""


def _global_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("STATFORGE_SEED")
    return int(env) if env else 0


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cfg(args) -> dict:
    try:
        return cfgmod.load_config(getattr(args, "config", None))
    except (configparser.Error, OSError, ValueError) as err:
        raise UsageError(f"--config: {err}") from err


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as err:
        raise UsageError(f"--theta: expected comma-separated floats, got {text!r}") from err


def _encoder_n_steps(n_steps: int) -> int:
    """Trajectory length for a run that encodes trajectories; shorter than
    the encoder's minimum input length is a UsageError."""
    if n_steps < MIN_INPUT_LENGTH:
        raise UsageError(f"n_steps = {n_steps} is too short for the encoder; "
                         f"at least {MIN_INPUT_LENGTH} are needed")
    return n_steps


def _read_trajectory(path, flag: str, min_steps: int = 1) -> Trajectory:
    """Trajectory CSV named by ``flag``; a missing or malformed file, or one with
    fewer than ``min_steps`` steps after x0, is a UsageError."""
    if not Path(path).exists():
        raise UsageError(f"{flag}: file not found: {path}")
    try:
        traj = trajectory_from_csv(Path(path).read_text())
    except ValueError as err:
        raise UsageError(f"{flag}: {path}: {err}") from err
    if traj.n_steps < min_steps:
        raise UsageError(f"{flag}: {path}: the trajectory has {traj.n_steps} steps "
                         f"after x0; at least {min_steps} are needed")
    return traj


def _require_weights(path):
    if path is None:
        raise UsageError("--weights is required for this subcommand")
    if not Path(path).exists():
        raise UsageError(f"--weights: file not found: {path}")
    return load_weights(path)


def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(handle, name.format("get"), None)
            set_ = getattr(handle, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _limit_threads(n: int | None):
    """Run the block with numpy's OpenBLAS at ``n`` threads, then restore it.

    Yields the manifest record ``{"requested", "applied", "in_effect"}``.
    Without ``n`` (or with n <= 0) nothing changes; ``applied`` is False
    then, and also when numpy does not bundle OpenBLAS.  ``in_effect`` is
    the count OpenBLAS reports inside the block (None if unknown).
    """
    blas = _openblas()
    record = {"requested": n, "applied": False,
              "in_effect": None if blas is None else blas[0]()}
    if blas is None or not n or n <= 0:
        yield record
        return
    get, set_ = blas
    previous = get()
    set_(n)
    record.update(applied=True, in_effect=get())
    try:
        yield record
    finally:
        set_(previous)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    started = time.perf_counter()
    cfg = _load_cfg(args)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    theta = _parse_theta(args.theta) if args.theta else spec.true_theta
    n_steps = args.n_steps or cfgmod.config_get(cfg, "model", "n_steps", int, 200)
    x0 = args.x0 if args.x0 is not None else spec.prior.x0
    if args.format == "csv":
        noise = draw_bare_noise(spec, n_steps, seed)
        traj = simulate(spec, theta, noise, x0=x0, n_steps=n_steps)
        (out / "trajectory.csv").write_text(trajectory_to_csv(traj))
    else:
        rng = stream(seed, 0x51)
        noise = draw_noise_batch(spec, args.count, n_steps, rng)
        x = simulate_batch(spec, np.tile(theta, (args.count, 1)), noise, x0=x0)
        save_trajectory_batch(out / "trajectories.traj", x, x0=x0)
    cfgmod.write_manifest(
        out, command="simulate", config={"model": spec.id, "theta": theta.tolist(),
                                         "n_steps": n_steps, "x0": x0,
                                         "format": args.format, "count": args.count,
                                         "model_spec": spec.record()},
        seeds={"seed": seed}, started=started)
    return 0


def cmd_bifurcation(args) -> int:
    started = time.perf_counter()
    cfg = _load_cfg(args)
    out = _out_dir(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.points)
    x0_list = [float(v) for v in args.x0.split(",")] if args.x0 else [None]
    rows = []
    for x0 in x0_list:
        points = bifurcation_sweep(spec, alphas, n_transient=args.transient,
                                   n_record=args.record, x0=x0)
        for pt in points:
            for v in pt.values:
                rows.append((pt.alpha, x0, v, pt.diverged))
            if pt.diverged:
                rows.append((pt.alpha, x0, float("nan"), True))
    lines = ["alpha,x0,value,diverged"]
    for a, x0, v, div in rows:
        lines.append(f"{a!r},{'' if x0 is None else repr(x0)},{v!r},{int(div)}")
    (out / "bifurcation.csv").write_text("\n".join(lines) + "\n")
    cfgmod.write_manifest(
        out, command="bifurcation",
        config={"model": args.model, "alpha_min": args.alpha_min,
                "alpha_max": args.alpha_max, "points": args.points,
                "transient": args.transient, "record": args.record,
                "x0": args.x0, "model_spec": spec.record()},
        seeds={}, started=started)
    return 0


def cmd_suffstats(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    rows = []
    hashes = {}
    for path in args.input:
        traj = _read_trajectory(path, "--input")
        rows.append(stats_batch(traj.x[None, :], traj.x0)[0])
        hashes[str(path)] = cfgmod.sha256_of_file(path)
    (out / "suffstats.csv").write_text(stats_to_csv(np.array(rows)))
    cfgmod.write_manifest(out, command="suffstats", config={"inputs": list(map(str, args.input))},
                          seeds={}, input_hashes=hashes, started=started)
    return 0


def cmd_train_enca(args) -> int:
    started = time.perf_counter()
    cfg = _load_cfg(args)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    train_cfg = enca_mod.EncaConfig(
        q=args.q or cfgmod.config_get(cfg, "enca", "q", int, 3),
        minibatch=args.minibatch,
        steps=args.steps if args.steps is not None
        else cfgmod.config_get(cfg, "enca", "steps", int, 1000),
        lr=args.lr or cfgmod.config_get(cfg, "enca", "lr", float, 1e-3),
        seed=seed,
        n_steps=_encoder_n_steps(
            args.n_steps or cfgmod.config_get(cfg, "model", "n_steps", int, 200)),
        c_x=args.c_x,
        log_every=cfgmod.config_get(cfg, "enca", "log_every", int, 100),
    )
    with _limit_threads(1) as blas_threads:  # optimizer path is single-threaded
        result = enca_mod.train_enca(spec, train_cfg)
    _write_training_outputs(out, result, args, started, command="train-enca",
                            blas_threads=blas_threads)
    return 0


def cmd_train_inca(args) -> int:
    started = time.perf_counter()
    cfg = _load_cfg(args)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    train_cfg = inca_mod.IncaConfig(
        q=args.q or cfgmod.config_get(cfg, "inca", "q", int, 3),
        n_replicas=args.n_replicas or cfgmod.config_get(cfg, "inca", "n_replicas", int, 5),
        theta_batch=args.theta_batch or cfgmod.config_get(cfg, "inca", "theta_batch", int, 60),
        steps=args.steps if args.steps is not None
        else cfgmod.config_get(cfg, "inca", "steps", int, 1000),
        lr=args.lr or cfgmod.config_get(cfg, "inca", "lr", float, 1e-3),
        seed=seed,
        n_steps=_encoder_n_steps(
            args.n_steps or cfgmod.config_get(cfg, "model", "n_steps", int, 200)),
        log_every=cfgmod.config_get(cfg, "inca", "log_every", int, 100),
    )
    with _limit_threads(1) as blas_threads:
        result = inca_mod.train_inca(spec, train_cfg)
    _write_training_outputs(out, result, args, started, command="train-inca",
                            blas_threads=blas_threads)
    return 0


def _write_training_outputs(out: Path, result, args, started, command: str,
                            blas_threads: dict):
    cfg_snapshot = dict(result.meta)
    weights_path = out / "weights.sfwt"
    save_weights(weights_path, result.store, meta=cfg_snapshot)
    with open(out / "train_log.jsonl", "w") as fh:
        for row in result.log:
            fh.write(json.dumps(row) + "\n")
    cfgmod.write_manifest(
        out, command=command, config=cfg_snapshot,
        seeds={"seed": result.meta["config"]["seed"]},
        extra={"weights_sha256": cfgmod.sha256_of_file(weights_path),
               "final_loss": result.log[-1]["loss"] if result.log else None,
               "blas_threads": blas_threads},
        started=started)


def cmd_encode(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    arrays, header = _require_weights(args.weights)
    weights = encoder_subset(arrays)
    rows = []
    hashes = {str(args.weights): cfgmod.sha256_of_file(args.weights)}
    for path in args.input:
        traj = _read_trajectory(path, "--input", min_steps=MIN_INPUT_LENGTH)
        rows.append(encode(traj, weights))
        hashes[str(path)] = cfgmod.sha256_of_file(path)
    q = infer_q(weights)
    lines = [",".join(f"s{i + 1}" for i in range(q))]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    (out / "stats.csv").write_text("\n".join(lines) + "\n")
    cfgmod.write_manifest(out, command="encode", config={"q": q},
                          seeds={}, input_hashes=hashes, started=started)
    return 0


def cmd_abc(args) -> int:
    started = time.perf_counter()
    cfg = _load_cfg(args)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    observation = _read_trajectory(
        args.observation, "--observation",
        min_steps=1 if args.stats == "suffstats" else MIN_INPUT_LENGTH)
    input_hashes = {str(args.observation): cfgmod.sha256_of_file(args.observation)}
    if args.stats == "suffstats":
        if not spec.has_suffstats:
            raise UsageError("--stats suffstats is only defined for nlar1")
        stats_fn = abcsampler.stats_fn_suffstats()
        stats_src = "suffstats"
    else:
        arrays, _ = _require_weights(args.weights)
        stats_fn = abcsampler.stats_fn_from_weights(encoder_subset(arrays))
        stats_src = str(args.weights)
        input_hashes[str(args.weights)] = cfgmod.sha256_of_file(args.weights)
    if args.q is not None:
        stats_fn = abcsampler.stats_fn_subset(stats_fn, list(range(args.q)))
    run_cfg = abcsampler.AbcConfig(
        population=args.population or cfgmod.config_get(cfg, "abc", "population", int, 1000),
        budget=args.budget or cfgmod.config_get(cfg, "abc", "budget", int, 100_000),
        velocity=args.velocity or cfgmod.config_get(cfg, "abc", "velocity", float, 0.3),
        proposal_scale=cfgmod.config_get(cfg, "abc", "proposal_scale", float, 0.5),
        seed=seed,
        n_steps=observation.n_steps,
    )
    with _limit_threads(args.threads) as blas_threads:
        if args.sampler == "sabc":
            sample, record = abcsampler.sabc_run(spec, None, stats_fn,
                                                 observation, run_cfg)
        else:
            keep = max(run_cfg.population / run_cfg.budget, 1e-4)
            sample, record = abcsampler.rejection_abc(
                spec, None, stats_fn, observation, n_sims=run_cfg.budget,
                keep_fraction=keep, seed=seed, n_steps=observation.n_steps)
    (out / "samples.csv").write_text(sample_set_to_csv(sample))
    trace_lines = ["sweep,acceptance,tolerance"]
    for i, tol in enumerate(record.tolerance_trace):
        acc = record.acceptance_trace[i - 1] if 0 < i <= len(record.acceptance_trace) else ""
        trace_lines.append(f"{i},{acc},{tol!r}")
    (out / "trace.csv").write_text("\n".join(trace_lines) + "\n")
    cfgmod.write_manifest(
        out, command="abc",
        config={"model": spec.id, "sampler": args.sampler,
                "stats": stats_src, "q": args.q,
                "abc": sample.manifest, "model_spec": spec.record()},
        seeds={"seed": seed}, input_hashes=input_hashes,
        extra={"blas_threads": blas_threads}, started=started)
    return 0


def cmd_mcmc(args) -> int:
    started = time.perf_counter()
    cfg = _load_cfg(args)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    observation = _read_trajectory(args.observation, "--observation")
    try:
        run_cfg = mcmc_mod.McmcConfig(
            chain_length=args.chain_length or cfgmod.config_get(cfg, "mcmc", "chain_length", int, 200_000),
            burn_in_frac=cfgmod.config_get(cfg, "mcmc", "burn_in_frac", float, 0.25),
            thin=cfgmod.config_get(cfg, "mcmc", "thin", int, 10),
            seed=seed,
        )
    except ValueError as err:
        raise UsageError(f"[mcmc]: {err}") from err
    sample, rate = mcmc_mod.metropolis_run(spec, None, observation, run_cfg)
    (out / "samples.csv").write_text(sample_set_to_csv(sample))
    cfgmod.write_manifest(
        out, command="mcmc",
        config={"model": spec.id, "mcmc": sample.manifest,
                "model_spec": spec.record()},
        seeds={"seed": seed},
        input_hashes={str(args.observation): cfgmod.sha256_of_file(args.observation)},
        extra={"acceptance_rate": rate}, started=started)
    return 0


def cmd_diagnose(args) -> int:
    started = time.perf_counter()
    spec = cfgmod.model_spec_from_config(_load_cfg(args), args.model or "nlar1")
    out = _out_dir(args)
    did_anything = False
    extra = {}
    input_hashes = {}
    if args.posterior and args.reference:
        a = sample_set_from_csv(Path(args.posterior).read_text())
        b = sample_set_from_csv(Path(args.reference).read_text())
        prior = spec.prior if args.model else None
        if prior is not None:
            raw, normed = diagnostics.marginal_wasserstein(a, b, prior)
        else:
            raw = diagnostics.marginal_wasserstein(a, b)
            normed = None
        lines = ["component,w1,w1_normalized"]
        for j in range(len(raw)):
            nval = "" if normed is None else repr(float(normed[j]))
            lines.append(f"{j + 1},{float(raw[j])!r},{nval}")
        (out / "wasserstein.csv").write_text("\n".join(lines) + "\n")
        extra["wasserstein_total"] = float(np.sum(raw))
        input_hashes[args.posterior] = cfgmod.sha256_of_file(args.posterior)
        input_hashes[args.reference] = cfgmod.sha256_of_file(args.reference)
        did_anything = True
    if args.distances:
        ss = sample_set_from_csv(Path(args.distances).read_text())
        if ss.component_distances is None:
            raise UsageError("--distances: file has no dist_* columns")
        record = abcsampler.DistanceRecord(
            component=ss.component_distances,
            total=ss.distances if ss.distances is not None
            else ss.component_distances.sum(axis=1),
            acceptance_trace=[], tolerance_trace=[])
        quant = diagnostics.distance_quantiles(record, args.quantile,
                                               n_regressors=args.regressors)
        lines = ["component,quantile"] + [
            f"{j + 1},{float(v)!r}" for j, v in enumerate(quant)]
        (out / "quantiles.csv").write_text("\n".join(lines) + "\n")
        tables = diagnostics.distance_histograms(record, bins=args.bins)
        (out / "histograms.csv").write_text(diagnostics.histograms_to_csv(tables))
        input_hashes[args.distances] = cfgmod.sha256_of_file(args.distances)
        did_anything = True
    if args.weights and args.scatter:
        n_steps = _encoder_n_steps(args.n_steps or 200)
        arrays, _ = _require_weights(args.weights)
        weights = encoder_subset(arrays)
        seed = _global_seed(args)
        table = diagnostics.regression_scatter(weights, spec, m=args.scatter,
                                               seed=seed, n_steps=n_steps)
        (out / "regression.csv").write_text(diagnostics.regression_scatter_csv(table))
        extra["pearson"] = table["pearson"].tolist()
        if spec.has_suffstats:
            latent = diagnostics.latent_scatter(weights, spec, m=args.scatter,
                                                seed=seed, n_steps=n_steps)
            (out / "latent.csv").write_text(diagnostics.latent_scatter_csv(latent))
        input_hashes[args.weights] = cfgmod.sha256_of_file(args.weights)
        did_anything = True
    if not did_anything:
        raise UsageError("diagnose: nothing to do; pass --posterior/--reference, "
                         "--distances, or --weights with --scatter")
    cfgmod.write_manifest(out, command="diagnose",
                          config={"quantile": args.quantile, "bins": args.bins,
                                  "model_spec": spec.record()
                                  if args.model or args.scatter else None},
                          seeds={}, input_hashes=input_hashes, extra=extra,
                          started=started)
    return 0


def cmd_smoke(args) -> int:
    """Micro pipeline: simulate -> short ENCA training -> small ABC -> diagnose."""
    started = time.perf_counter()
    out = _out_dir(args)
    seed = _global_seed(args)
    n_steps = 50
    rc = cmd_simulate(argparse.Namespace(
        model="nlar1", theta="5.3,0.015", seed=seed, n_steps=n_steps, x0=None,
        format="csv", count=1, out=out / "observation", config=None))
    if rc:
        return rc
    rc = cmd_train_enca(argparse.Namespace(
        model="nlar1", q=3, minibatch=32, steps=200, lr=None, seed=seed,
        n_steps=n_steps, c_x=None, out=out / "training", config=None))
    if rc:
        return rc
    rc = cmd_abc(argparse.Namespace(
        model="nlar1", observation=str(out / "observation" / "trajectory.csv"),
        weights=str(out / "training" / "weights.sfwt"), stats="weights", q=None,
        budget=2000, population=100, velocity=None, seed=seed, sampler="sabc",
        threads=args.threads, out=out / "abc", config=None))
    if rc:
        return rc
    rc = cmd_diagnose(argparse.Namespace(
        posterior=None, reference=None, model="nlar1",
        distances=str(out / "abc" / "samples.csv"), quantile=0.99, bins=20,
        regressors=2, weights=str(out / "training" / "weights.sfwt"), scatter=200,
        seed=seed, n_steps=n_steps, out=out / "diagnostics", config=None))
    if rc:
        return rc
    cfgmod.write_manifest(out, command="smoke", config={"n_steps": n_steps},
                          seeds={"seed": seed}, started=started)
    print(f"smoke pipeline finished in {time.perf_counter() - started:.1f}s")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statforge",
        description="Noise-conditional autoencoder summary statistics and ABC.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="INI config file")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (fallback: STATFORGE_SEED)")

    p = sub.add_parser("simulate", help="simulate one trajectory or a batch")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--theta", default=None, help="comma-separated parameters")
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--count", type=int, default=1, help="batch size for bin format")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bifurcation", help="deterministic amplitude sweep")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--transient", type=int, default=1000)
    p.add_argument("--record", type=int, default=128)
    p.add_argument("--x0", default=None, help="comma-separated initial conditions")
    common(p, seed=False)
    p.set_defaults(func=cmd_bifurcation)

    p = sub.add_parser("suffstats", help="closed-form statistics of trajectories")
    p.add_argument("--input", action="append", required=True,
                   help="trajectory CSV (repeatable)")
    common(p, seed=False)
    p.set_defaults(func=cmd_suffstats)

    p = sub.add_parser("train-enca", help="train the explicit-noise autoencoder")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--minibatch", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--c-x", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_train_enca)

    p = sub.add_parser("train-inca", help="train the implicit-noise autoencoder")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n-replicas", type=int, default=None)
    p.add_argument("--theta-batch", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_train_inca)

    p = sub.add_parser("encode", help="summary statistics from trained weights")
    p.add_argument("--weights", default=None)
    p.add_argument("--input", action="append", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("abc", help="simulated-annealing ABC (or rejection baseline)")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--observation", required=True, help="observed trajectory CSV")
    p.add_argument("--weights", default=None, help="encoder weights container")
    p.add_argument("--stats", choices=("weights", "suffstats"), default="weights")
    p.add_argument("--q", type=int, default=None,
                   help="use only the first q statistic components")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--velocity", type=float, default=None)
    p.add_argument("--sampler", choices=("sabc", "rejection"), default="sabc")
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS threads for the run (default: leave BLAS as it is)")
    common(p)
    p.set_defaults(func=cmd_abc)

    p = sub.add_parser("mcmc", help="Metropolis ground-truth posterior")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--observation", required=True)
    p.add_argument("--chain-length", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("diagnose", help="posterior comparisons and figure tables")
    p.add_argument("--posterior", default=None, help="sample CSV to evaluate")
    p.add_argument("--reference", default=None, help="ground-truth sample CSV")
    p.add_argument("--model", choices=MODEL_IDS, default=None)
    p.add_argument("--distances", default=None, help="ABC samples.csv with distances")
    p.add_argument("--quantile", type=float, default=0.99)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--regressors", type=int, default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--scatter", type=int, default=None,
                   help="emit regression/latent scatter tables from this many draws")
    p.add_argument("--n-steps", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("smoke", help="end-to-end micro pipeline (< 5 min)")
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS threads for the run (default: leave BLAS as it is)")
    common(p)
    p.set_defaults(func=cmd_smoke)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except StatforgeError as err:
        print(f"runtime error ({type(err).__name__}): {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
