"""Run settings and output manifests.

A run setting has one default, the field default of its dataclass
(``EncaConfig``, ``IncaConfig``, ``AbcConfig``, ``McmcConfig``,
``DynamoMap``; the model's prior and ``DEFAULT_N_STEPS`` for [prior] and
[model]).  The INI file overrides it and a flag that was given overrides the
file, a 0 included.  ``load_config`` checks the file once, ``run_config``
merges the three layers, and the manifest records the values the run used,
so a run is reconstructible from its manifest alone.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import platform
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .errors import UsageError
from .models import (
    DEFAULT_DYNAMO_MAP,
    DEFAULT_N_STEPS,
    MODEL_IDS,
    DynamoMap,
    ModelSpec,
    PriorSpec,
    model_spec,
)


def _bounds(raw: str) -> tuple[float, float]:
    """A [prior] value "lo,hi": two floats with lo <= hi."""
    bounds = tuple(float(v) for v in raw.split(","))
    if len(bounds) != 2 or not bounds[0] <= bounds[1]:
        raise ValueError(f"expected lo,hi with lo <= hi, got {raw!r}")
    return bounds


# The accepted INI keys and their types; [prior] takes "lo,hi" per parameter.
KEYS = {
    "model": {"n_steps": int, "x0": float},
    "prior": {name: _bounds for m in MODEL_IDS for name in model_spec(m).prior.names},
    "dynamo_f2": dict.fromkeys(("x1", "d1", "x2", "d2"), float),
    "enca": {"q": int, "steps": int, "lr": float, "log_every": int},
    "inca": {"q": int, "n_replicas": int, "theta_batch": int, "steps": int,
             "lr": float, "log_every": int},
    "abc": {"population": int, "budget": int, "velocity": float, "proposal_scale": float},
    "mcmc": {"chain_length": int, "burn_in_frac": float, "thin": int},
}


def load_config(path=None) -> dict:
    """The INI file as {section: {key: typed value}}; {} without one.

    An unreadable file, an unknown section or key, or a value that its key's
    type cannot parse is a UsageError.
    """
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as err:
        raise UsageError(f"--config: {err}") from err
    cfg = {section: dict(parser[section]) for section in parser.sections()}
    for section, values in cfg.items():
        if section not in KEYS:
            raise UsageError(f"--config: unknown section [{section}]; "
                             f"expected one of {', '.join(KEYS)}")
        for key, raw in values.items():
            if key not in KEYS[section]:
                raise UsageError(f"--config: [{section}] {key}: unknown key; "
                                 f"expected one of {', '.join(KEYS[section])}")
            try:
                values[key] = KEYS[section][key](raw)
            except ValueError as err:
                raise UsageError(f"--config: [{section}] {key}: {err}") from err
    return cfg


def run_config(cls, cfg: dict, section: str, args, **fixed):
    """``cls`` from its field defaults, overridden by the file's [section],
    then by each flag in ``args`` named after a field that was given (not
    None), then by ``fixed``.  A ValueError from ``cls``'s checks is a
    UsageError naming the section."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    values = {**cfg.get(section, {}),
              **{k: v for k, v in flags.items() if v is not None}, **fixed}
    try:
        return cls(**values)
    except ValueError as err:
        raise UsageError(f"[{section}]: {err}") from err


def n_steps_setting(cfg: dict, flag: int | None) -> int:
    """[model] n_steps: the --n-steps flag if given, else the file's value,
    else DEFAULT_N_STEPS."""
    if flag is not None:
        return flag
    return cfg.get("model", {}).get("n_steps", DEFAULT_N_STEPS)


def model_spec_from_config(cfg: dict, model_id: str) -> ModelSpec:
    """The model's spec with the configured prior and, for dynamo, f2.

    A [prior] section overrides the shipped bounds and [model] x0 the
    initial condition; a [prior] name the model lacks is a UsageError.  The
    [dynamo_f2] constants build the dynamo map; its ``source`` is "config"
    when they differ from the shipped ones, and constants the map rejects
    (a width <= 0, a value that is not finite) are a UsageError.
    """
    base = model_spec(model_id)
    bounds = cfg.get("prior", {})
    foreign = sorted(set(bounds) - set(base.prior.names))
    if foreign:
        raise UsageError(f"--config: [prior] {', '.join(foreign)}: not a parameter "
                         f"of {base.id} ({', '.join(base.prior.names)})")
    lower = base.prior.lower.copy()
    upper = base.prior.upper.copy()
    for i, name in enumerate(base.prior.names):
        if name in bounds:
            lower[i], upper[i] = bounds[name]
    x0 = cfg.get("model", {}).get("x0", base.prior.x0)
    spec = replace(base, prior=PriorSpec(base.prior.names, lower, upper, x0=x0))
    if spec.f2 is None:
        return spec
    try:
        f2 = DynamoMap(**cfg.get("dynamo_f2", {}))
    except ValueError as err:
        raise UsageError(f"[dynamo_f2]: {err}") from err
    if f2 != DEFAULT_DYNAMO_MAP:
        f2 = replace(f2, source="config")
    return replace(spec, f2=f2)


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, *, command: str, config: dict, seeds: dict,
                   input_hashes: dict | None = None, extra: dict | None = None,
                   started: float | None = None) -> Path:
    """One manifest per output directory, covering every result-affecting constant."""
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "seeds": seeds,
        "input_hashes": input_hashes or {},
        "extra": extra or {},
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "created_unix": time.time(),
        "wall_clock_s": None if started is None else time.perf_counter() - started,
    }
    body["config_hash"] = hashlib.sha256(json.dumps(
        {"config": config, "seeds": seeds, "inputs": input_hashes or {}},
        sort_keys=True, default=str).encode()).hexdigest()
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
