"""Single entry point wiring the library into reproducible experiment runs.

Every subcommand writes its outputs plus exactly one manifest.json into the
directory given by --out and nowhere else.  Run settings are merged once,
by ``config.run_config``: dataclass defaults, then the --config file, then
the flags given.  Exit codes: 0 success, 2 usage errors (unknown flags, a
malformed config, an out-of-range setting, missing input files), 1 runtime
failures.
"""

from __future__ import annotations

import argparse
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
from .errors import StatforgeError, UsageError
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
from .samples import csv_text, sample_set_from_csv, sample_set_to_csv
from .suffstats import stats_batch, stats_to_csv
from .tensor import load_weights, save_weights


def _global_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("STATFORGE_SEED")
    return int(env) if env else 0


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as err:
        raise UsageError(f"--theta: expected comma-separated floats, got {text!r}") from err


def _encoder_n_steps(cfg: dict, args) -> int:
    """[model] n_steps of a run that encodes trajectories; shorter than the
    encoder's minimum input length is a UsageError."""
    n_steps = cfgmod.n_steps_setting(cfg, args.n_steps)
    if n_steps < MIN_INPUT_LENGTH:
        raise UsageError(f"n_steps = {n_steps} is too short for the encoder; "
                         f"at least {MIN_INPUT_LENGTH} are needed")
    return n_steps


def _existing(path, flag: str) -> Path:
    """The file named by ``flag``; a missing one is a UsageError."""
    if not Path(path).is_file():
        raise UsageError(f"{flag}: file not found: {path}")
    return Path(path)


def _read_trajectory(path, flag: str, min_steps: int = 1) -> Trajectory:
    """Trajectory CSV named by ``flag``; a missing or malformed file, or one with
    fewer than ``min_steps`` steps after x0, is a UsageError."""
    try:
        traj = trajectory_from_csv(_existing(path, flag).read_text())
    except ValueError as err:
        raise UsageError(f"{flag}: {path}: {err}") from err
    if traj.n_steps < min_steps:
        raise UsageError(f"{flag}: {path}: the trajectory has {traj.n_steps} steps "
                         f"after x0; at least {min_steps} are needed")
    return traj


def _read_samples(path, flag: str):
    """Sample CSV named by ``flag``; a missing or malformed file is a UsageError."""
    try:
        return sample_set_from_csv(_existing(path, flag).read_text())
    except (ValueError, IndexError) as err:
        raise UsageError(f"{flag}: {path}: not a sample CSV ({err})") from err


def _encoder_weights(path) -> dict:
    """The encoder part of the --weights container; a missing flag or file
    is a UsageError."""
    if path is None:
        raise UsageError("--weights is required for this subcommand")
    return encoder_subset(load_weights(_existing(path, "--weights"))[0])


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
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    theta = _parse_theta(args.theta) if args.theta else spec.true_theta
    n_steps = cfgmod.n_steps_setting(cfg, args.n_steps)
    if n_steps < 1:
        raise UsageError(f"n_steps = {n_steps} is too short; at least 1 step is needed")
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
    cfg = cfgmod.load_config(args.config)
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
                rows.append((pt.alpha, x0, v, int(pt.diverged)))
            if pt.diverged:
                rows.append((pt.alpha, x0, float("nan"), 1))
    # a sweep without --x0 leaves the x0 cells empty
    (out / "bifurcation.csv").write_text(
        csv_text(["alpha", "x0", "value", "diverged"], rows))
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


def cmd_train(args) -> int:
    """train-enca / train-inca with the [enca] or [inca] settings, on one BLAS
    thread so that a fixed seed gives bit-identical weights."""
    started = time.perf_counter()
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    section = args.command.removeprefix("train-")
    cls, train = ((enca_mod.EncaConfig, enca_mod.train_enca) if section == "enca"
                  else (inca_mod.IncaConfig, inca_mod.train_inca))
    train_cfg = cfgmod.run_config(
        cls, cfg, section, args, seed=_global_seed(args),
        n_steps=_encoder_n_steps(cfg, args))
    with _limit_threads(1) as blas_threads:
        result = train(spec, train_cfg)
    weights_path = out / "weights.sfwt"
    save_weights(weights_path, result.store, meta=result.meta)
    with open(out / "train_log.jsonl", "w") as fh:
        for row in result.log:
            fh.write(json.dumps(row) + "\n")
    cfgmod.write_manifest(
        out, command=args.command, config=result.meta,
        seeds={"seed": train_cfg.seed},
        extra={"weights_sha256": cfgmod.sha256_of_file(weights_path),
               "final_loss": result.log[-1]["loss"] if result.log else None,
               "blas_threads": blas_threads},
        started=started)
    return 0


def cmd_encode(args) -> int:
    started = time.perf_counter()
    out = _out_dir(args)
    weights = _encoder_weights(args.weights)
    rows = []
    hashes = {str(args.weights): cfgmod.sha256_of_file(args.weights)}
    for path in args.input:
        traj = _read_trajectory(path, "--input", min_steps=MIN_INPUT_LENGTH)
        rows.append(encode(traj, weights))
        hashes[str(path)] = cfgmod.sha256_of_file(path)
    q = infer_q(weights)
    (out / "stats.csv").write_text(csv_text([f"s{i + 1}" for i in range(q)], rows))
    cfgmod.write_manifest(out, command="encode", config={"q": q},
                          seeds={}, input_hashes=hashes, started=started)
    return 0


def cmd_abc(args) -> int:
    started = time.perf_counter()
    cfg = cfgmod.load_config(args.config)
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
        encoder_dtype = None
    else:
        stats_fn = abcsampler.stats_fn_from_weights(_encoder_weights(args.weights))
        stats_src = str(args.weights)
        encoder_dtype = np.dtype(abcsampler.ENCODER_DTYPE).name
        input_hashes[str(args.weights)] = cfgmod.sha256_of_file(args.weights)
    if args.q is not None:
        stats_fn = abcsampler.stats_fn_subset(stats_fn, list(range(args.q)))
    run_cfg = cfgmod.run_config(abcsampler.AbcConfig, cfg, "abc", args,
                                seed=seed, n_steps=observation.n_steps)
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
    # sweep i's acceptance moved the tolerance from row i-1 to row i
    acceptance = record.acceptance_trace
    (out / "trace.csv").write_text(csv_text(
        ["sweep", "acceptance", "tolerance"],
        ((i, acceptance[i - 1] if i else "", tol)
         for i, tol in enumerate(record.tolerance_trace))))
    cfgmod.write_manifest(
        out, command="abc",
        config={"model": spec.id, "sampler": args.sampler,
                "stats": stats_src, "q": args.q, "encoder_dtype": encoder_dtype,
                "abc": sample.manifest, "model_spec": spec.record()},
        seeds={"seed": seed}, input_hashes=input_hashes,
        extra={"blas_threads": blas_threads}, started=started)
    return 0


def cmd_mcmc(args) -> int:
    started = time.perf_counter()
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args)
    seed = _global_seed(args)
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    observation = _read_trajectory(args.observation, "--observation")
    run_cfg = cfgmod.run_config(mcmc_mod.McmcConfig, cfg, "mcmc", args, seed=seed)
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
    if (args.posterior is None) != (args.reference is None):
        raise UsageError("diagnose: --posterior and --reference go together; "
                         "pass both or neither")
    cfg = cfgmod.load_config(args.config)
    spec = cfgmod.model_spec_from_config(cfg, args.model or "nlar1")
    out = _out_dir(args)
    extra = {}
    input_hashes = {}
    if args.posterior is not None:
        a = _read_samples(args.posterior, "--posterior")
        b = _read_samples(args.reference, "--reference")
        if a.p != b.p:
            raise UsageError(f"--posterior has {a.p} parameters, --reference {b.p}")
        if args.model:
            raw, normed = diagnostics.marginal_wasserstein(a, b, spec.prior)
        else:
            raw, normed = diagnostics.marginal_wasserstein(a, b), None
        (out / "wasserstein.csv").write_text(csv_text(
            ["component", "w1", "w1_normalized"],
            ([j + 1, raw[j], "" if normed is None else normed[j]] for j in range(len(raw)))))
        extra["wasserstein_total"] = float(np.sum(raw))
        input_hashes[args.posterior] = cfgmod.sha256_of_file(args.posterior)
        input_hashes[args.reference] = cfgmod.sha256_of_file(args.reference)
    if args.distances:
        ss = _read_samples(args.distances, "--distances")
        if ss.component_distances is None:
            raise UsageError("--distances: file has no dist_* columns")
        record = abcsampler.DistanceRecord(
            component=ss.component_distances,
            total=ss.distances if ss.distances is not None
            else ss.component_distances.sum(axis=1),
            acceptance_trace=[], tolerance_trace=[])
        quant = diagnostics.distance_quantiles(record, args.quantile,
                                               n_regressors=args.regressors)
        (out / "quantiles.csv").write_text(
            csv_text(["component", "quantile"], enumerate(quant, start=1)))
        tables = diagnostics.distance_histograms(record, bins=args.bins)
        (out / "histograms.csv").write_text(diagnostics.histograms_to_csv(tables))
        input_hashes[args.distances] = cfgmod.sha256_of_file(args.distances)
    if args.weights and args.scatter:
        n_steps = _encoder_n_steps(cfg, args)
        weights = _encoder_weights(args.weights)
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
    if not input_hashes:
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
    weights = out / "training" / "weights.sfwt"
    shared = ["--seed", seed] + ([] if args.config is None else ["--config", args.config])
    steps = [
        ["simulate", "--model", "nlar1", "--theta", "5.3,0.015", "--n-steps", n_steps,
         "--out", out / "observation"],
        ["train-enca", "--model", "nlar1", "--q", 3, "--minibatch", 32, "--steps", 200,
         "--n-steps", n_steps, "--out", out / "training"],
        ["abc", "--model", "nlar1", "--observation", out / "observation" / "trajectory.csv",
         "--weights", weights, "--budget", 2000, "--population", 100, "--out", out / "abc"]
        + ([] if args.threads is None else ["--threads", args.threads]),
        ["diagnose", "--model", "nlar1", "--distances", out / "abc" / "samples.csv",
         "--bins", 20, "--regressors", 2, "--weights", weights, "--scatter", 200,
         "--n-steps", n_steps, "--out", out / "diagnostics"],
    ]
    parser = build_parser()
    for argv in steps:
        step = parser.parse_args([str(a) for a in argv + shared])
        rc = step.func(step)
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
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-inca", help="train the implicit-noise autoencoder")
    p.add_argument("--model", choices=MODEL_IDS, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n-replicas", type=int, default=None)
    p.add_argument("--theta-batch", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_train)

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
