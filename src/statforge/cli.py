"""Single entry point wiring the library into reproducible experiment runs.

Every subcommand runs through ``_run``.  It loads and checks --config (for
every subcommand), resolves the seed, runs the subcommand, and only when that
returns creates --out and writes the subcommand's outputs plus exactly one
manifest.json there and nowhere else.  A failed run therefore creates nothing
under --out.  The manifest records the sha256 of every input file read, and
the seed of every subcommand that takes --seed.  ``smoke`` runs its four
steps through ``_run``, each into a directory under its --out; a failing step
keeps the outputs of the steps before it.  Run settings are merged once, by
``config.run_config``: dataclass defaults, then the --config file, then the
flags given.  Exit codes: 0 success, 2 usage errors (unknown flags, a
malformed config, an out-of-range setting, missing input files), 1 runtime
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
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
    simulate,
    simulate_batch,
    stream,
    trajectory_batch_bytes,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .samples import csv_text, sample_set_from_csv, sample_set_to_csv
from .suffstats import stats_batch, stats_to_csv
from .tensor import limit_threads, load_weights, weights_bytes


def _global_seed(args) -> int | None:
    """--seed, else STATFORGE_SEED, else 0; None for a subcommand without --seed."""
    if "seed" not in vars(args):
        return None
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STATFORGE_SEED")
    return int(env) if env else 0


def _run(args):
    """Run one subcommand: check --config, resolve the seed, call
    ``args.func(args, cfg, seed, inputs)``, then write its files and the
    manifest.

    The subcommand records str(path) -> sha256 of each input file it reads in
    ``inputs`` and returns ``(files, config, extra)``: its outputs (name ->
    text or bytes) and the manifest's ``config`` and ``extra``.  Nothing is
    written unless it returns.
    """
    cfg = cfgmod.load_config(args.config)
    seed = _global_seed(args)
    started = time.perf_counter()
    inputs = {}
    files, config, extra = args.func(args, cfg, seed, inputs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        if isinstance(data, bytes):
            (out / name).write_bytes(data)
        else:
            (out / name).write_text(data)
    cfgmod.write_manifest(out, command=args.command, config=config,
                          seeds={} if seed is None else {"seed": seed},
                          input_hashes=inputs, extra=extra, started=started)


def _parse_floats(text: str, flag: str) -> np.ndarray:
    """The comma-separated floats given to ``flag``; anything else is a UsageError."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as err:
        raise UsageError(f"{flag}: expected comma-separated floats, got {text!r}") from err


def _in_range(value: int, lowest: int, flag: str, highest: int | None = None):
    """A ``flag`` value below ``lowest`` (or above ``highest``) is a UsageError."""
    if value < lowest or (highest is not None and value > highest):
        need = f"at least {lowest}" if highest is None else f"{lowest} to {highest}"
        raise UsageError(f"{flag} = {value} is out of range; {need} is needed")


def _encoder_n_steps(cfg: dict, args) -> int:
    """[model] n_steps of a run that encodes trajectories; shorter than the
    encoder's minimum input length is a UsageError."""
    n_steps = cfgmod.n_steps_setting(cfg, args.n_steps)
    if n_steps < MIN_INPUT_LENGTH:
        raise UsageError(f"n_steps = {n_steps} is too short for the encoder; "
                         f"at least {MIN_INPUT_LENGTH} are needed")
    return n_steps


def _existing(path, flag: str, inputs: dict) -> Path:
    """The file named by ``flag``, its hash recorded in ``inputs``; a missing
    one is a UsageError."""
    if not Path(path).is_file():
        raise UsageError(f"{flag}: file not found: {path}")
    inputs[str(path)] = cfgmod.sha256_of_file(path)
    return Path(path)


def _read_trajectory(path, flag: str, inputs: dict, min_steps: int = 1) -> Trajectory:
    """Trajectory CSV named by ``flag``; a missing or malformed file, or one with
    fewer than ``min_steps`` steps after x0, is a UsageError."""
    try:
        traj = trajectory_from_csv(_existing(path, flag, inputs).read_text())
    except ValueError as err:
        raise UsageError(f"{flag}: {path}: {err}") from err
    if traj.n_steps < min_steps:
        raise UsageError(f"{flag}: {path}: the trajectory has {traj.n_steps} steps "
                         f"after x0; at least {min_steps} are needed")
    return traj


def _read_samples(path, flag: str, inputs: dict):
    """Sample CSV named by ``flag``; a missing or malformed file is a UsageError."""
    try:
        return sample_set_from_csv(_existing(path, flag, inputs).read_text())
    except (ValueError, IndexError) as err:
        raise UsageError(f"{flag}: {path}: not a sample CSV ({err})") from err


def _encoder_weights(path, inputs: dict) -> dict:
    """The encoder part of the --weights container; a missing flag or file
    is a UsageError."""
    if path is None:
        raise UsageError("--weights is required for this subcommand")
    return encoder_subset(load_weights(_existing(path, "--weights", inputs))[0])


# ---------------------------------------------------------------------------
# subcommands: (args, checked config, seed, inputs) -> (files, manifest config, extra)
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg, seed, inputs):
    _in_range(args.count, 1, "--count")
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    theta = _parse_floats(args.theta, "--theta") if args.theta else spec.true_theta
    n_steps = cfgmod.n_steps_setting(cfg, args.n_steps)
    if n_steps < 1:
        raise UsageError(f"n_steps = {n_steps} is too short; at least 1 step is needed")
    x0 = args.x0 if args.x0 is not None else spec.prior.x0
    if args.format == "csv":
        noise = draw_bare_noise(spec, n_steps, seed)
        traj = simulate(spec, theta, noise, x0=x0, n_steps=n_steps)
        files = {"trajectory.csv": trajectory_to_csv(traj)}
    else:
        rng = stream(seed, 0x51)
        noise = draw_noise_batch(spec, args.count, n_steps, rng)
        x = simulate_batch(spec, np.tile(theta, (args.count, 1)), noise, x0=x0)
        files = {"trajectories.traj": trajectory_batch_bytes(x, x0)}
    return files, {"model": spec.id, "theta": theta.tolist(), "n_steps": n_steps,
                   "x0": x0, "format": args.format, "count": args.count,
                   "model_spec": spec.record()}, {}


def cmd_bifurcation(args, cfg, seed, inputs):
    _in_range(args.points, 1, "--points")
    _in_range(args.transient, 0, "--transient")
    _in_range(args.record, 1, "--record")
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.points)
    x0_list = _parse_floats(args.x0, "--x0").tolist() if args.x0 else [None]
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
    files = {"bifurcation.csv": csv_text(["alpha", "x0", "value", "diverged"], rows)}
    return files, {"model": args.model, "alpha_min": args.alpha_min,
                   "alpha_max": args.alpha_max, "points": args.points,
                   "transient": args.transient, "record": args.record,
                   "x0": args.x0, "model_spec": spec.record()}, {}


def cmd_suffstats(args, cfg, seed, inputs):
    rows = []
    for path in args.input:
        traj = _read_trajectory(path, "--input", inputs)
        rows.append(stats_batch(traj.x[None, :], traj.x0)[0])
    return ({"suffstats.csv": stats_to_csv(np.array(rows))},
            {"inputs": list(map(str, args.input))}, {})


def cmd_train(args, cfg, seed, inputs):
    """train-enca / train-inca with the [enca] or [inca] settings."""
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    section = args.command.removeprefix("train-")
    cls, train = ((enca_mod.EncaConfig, enca_mod.train_enca) if section == "enca"
                  else (inca_mod.IncaConfig, inca_mod.train_inca))
    train_cfg = cfgmod.run_config(cls, cfg, section, args, seed=seed,
                                  n_steps=_encoder_n_steps(cfg, args))
    result = train(spec, train_cfg)
    weights = weights_bytes(result.store, meta=result.meta)
    files = {"weights.sfwt": weights,
             "train_log.jsonl": "".join(json.dumps(row) + "\n" for row in result.log)}
    return files, result.meta, {
        "weights_sha256": hashlib.sha256(weights).hexdigest(),
        "final_loss": result.log[-1]["loss"] if result.log else None}


def cmd_encode(args, cfg, seed, inputs):
    weights = _encoder_weights(args.weights, inputs)
    trajs = [_read_trajectory(path, "--input", inputs, min_steps=MIN_INPUT_LENGTH)
             for path in args.input]
    rows = [encode(traj, weights) for traj in trajs]
    q = infer_q(weights)
    return {"stats.csv": csv_text([f"s{i + 1}" for i in range(q)], rows)}, {"q": q}, {}


def cmd_abc(args, cfg, seed, inputs):
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    observation = _read_trajectory(
        args.observation, "--observation", inputs,
        min_steps=1 if args.stats == "suffstats" else MIN_INPUT_LENGTH)
    if args.stats == "suffstats":
        if not spec.has_suffstats:
            raise UsageError("--stats suffstats is only defined for nlar1")
        stats_fn = abcsampler.stats_fn_suffstats()
        stats_src = "suffstats"
        encoder_dtype = None
        n_stats = 3   # (alpha_hat, sigma2_hat, order)
    else:
        weights = _encoder_weights(args.weights, inputs)
        stats_fn = abcsampler.stats_fn_from_weights(weights)
        stats_src = str(args.weights)
        encoder_dtype = np.dtype(abcsampler.ENCODER_DTYPE).name
        n_stats = infer_q(weights)
    if args.q is not None:
        _in_range(args.q, 1, "--q", n_stats)
        stats_fn = abcsampler.stats_fn_subset(stats_fn, list(range(args.q)))
    run_cfg = cfgmod.run_config(abcsampler.AbcConfig, cfg, "abc", args,
                                seed=seed, n_steps=observation.n_steps)
    with limit_threads(args.threads) as blas_threads:
        if args.sampler == "sabc":
            sample, trace = abcsampler.sabc_run(spec, None, stats_fn,
                                                observation, run_cfg)
        else:
            keep = max(run_cfg.population / run_cfg.budget, 1e-4)
            sample, trace = abcsampler.rejection_abc(
                spec, None, stats_fn, observation, n_sims=run_cfg.budget,
                keep_fraction=keep, seed=seed, n_steps=observation.n_steps)
    # sweep i's acceptance moved the tolerance from row i-1 to row i
    acceptance = trace.acceptance_trace
    files = {"samples.csv": sample_set_to_csv(sample),
             "trace.csv": csv_text(["sweep", "acceptance", "tolerance"],
                                   ((i, acceptance[i - 1] if i else "", tol)
                                    for i, tol in enumerate(trace.tolerance_trace)))}
    config = {"model": spec.id, "sampler": args.sampler, "stats": stats_src, "q": args.q,
              "encoder_dtype": encoder_dtype, "abc": sample.manifest,
              "model_spec": spec.record()}
    return files, config, {"blas_threads": blas_threads}


def cmd_mcmc(args, cfg, seed, inputs):
    spec = cfgmod.model_spec_from_config(cfg, args.model)
    observation = _read_trajectory(args.observation, "--observation", inputs)
    run_cfg = cfgmod.run_config(mcmc_mod.McmcConfig, cfg, "mcmc", args, seed=seed)
    sample, rate = mcmc_mod.metropolis_run(spec, None, observation, run_cfg)
    return ({"samples.csv": sample_set_to_csv(sample)},
            {"model": spec.id, "mcmc": sample.manifest, "model_spec": spec.record()},
            {"acceptance_rate": rate})


def cmd_diagnose(args, cfg, seed, inputs):
    if (args.posterior is None) != (args.reference is None):
        raise UsageError("diagnose: --posterior and --reference go together; "
                         "pass both or neither")
    if args.scatter is not None:
        _in_range(args.scatter, 2, "--scatter")
    _in_range(args.bins, 1, "--bins")
    if not 0.0 < args.quantile <= 1.0:
        raise UsageError(f"--quantile = {args.quantile} is out of range; (0, 1] is needed")
    spec = cfgmod.model_spec_from_config(cfg, args.model or "nlar1")
    files, extra = {}, {}
    if args.posterior is not None:
        a = _read_samples(args.posterior, "--posterior", inputs)
        b = _read_samples(args.reference, "--reference", inputs)
        if a.p != b.p:
            raise UsageError(f"--posterior has {a.p} parameters, --reference {b.p}")
        if args.model:
            raw, normed = diagnostics.marginal_wasserstein(a, b, spec.prior)
        else:
            raw, normed = diagnostics.marginal_wasserstein(a, b), None
        files["wasserstein.csv"] = csv_text(
            ["component", "w1", "w1_normalized"],
            ([j + 1, raw[j], "" if normed is None else normed[j]] for j in range(len(raw))))
        extra["wasserstein_total"] = float(np.sum(raw))
    if args.distances:
        comp = _read_samples(args.distances, "--distances", inputs).component_distances
        if comp is None:
            raise UsageError("--distances: file has no dist_* columns")
        if args.regressors is not None:
            _in_range(args.regressors, 1, "--regressors", comp.shape[1])
        quant = diagnostics.distance_quantiles(comp, args.quantile,
                                               n_regressors=args.regressors)
        files["quantiles.csv"] = csv_text(["component", "quantile"],
                                          enumerate(quant, start=1))
        files["histograms.csv"] = diagnostics.histograms_to_csv(
            diagnostics.distance_histograms(comp, bins=args.bins))
    if args.weights and args.scatter:
        n_steps = _encoder_n_steps(cfg, args)
        table = diagnostics.regression_scatter(_encoder_weights(args.weights, inputs), spec,
                                               m=args.scatter, seed=seed, n_steps=n_steps)
        files["regression.csv"] = diagnostics.regression_scatter_csv(table)
        extra["pearson"] = table["pearson"].tolist()
        if spec.has_suffstats:
            latent = diagnostics.latent_scatter(table, spec, seed=seed, n_steps=n_steps)
            files["latent.csv"] = diagnostics.latent_scatter_csv(latent)
    if not inputs:
        raise UsageError("diagnose: nothing to do; pass --posterior/--reference, "
                         "--distances, or --weights with --scatter")
    return files, {"quantile": args.quantile, "bins": args.bins,
                   "model_spec": spec.record() if args.model or args.scatter else None}, extra


def cmd_smoke(args):
    """Micro pipeline: simulate -> short ENCA training -> small ABC -> diagnose."""
    out = Path(args.out)
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
        _run(parser.parse_args([str(a) for a in argv + shared]))
    print(f"smoke pipeline finished; outputs under {out}")


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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        (cmd_smoke if args.command == "smoke" else _run)(args)
        return 0
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
