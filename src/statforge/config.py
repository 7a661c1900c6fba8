"""Run configuration files and output manifests.

Configs are flat INI-style sections (diff-friendly, language-neutral); CLI
flags override file values, which override the defaults at each read site,
and the manifest records the values the run used, so a run is
reconstructible from its manifest alone.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .models import DEFAULT_DYNAMO_MAP, DynamoMap, ModelSpec, PriorSpec, model_spec


def load_config(path=None) -> dict:
    """The sections of an INI file as {section: {key: raw string}}; {} without one.

    Defaults live at the read sites, as the ``default`` of ``config_get``.
    """
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    return {sec: dict(parser[sec]) for sec in parser.sections()}


def config_get(cfg: dict, section: str, key: str, cast=str, default=None):
    raw = cfg.get(section, {}).get(key)
    if raw is None or raw == "":
        return default
    if cast is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return cast(raw)


def model_spec_from_config(cfg: dict, model_id: str) -> ModelSpec:
    """The model's spec with the configured prior and, for dynamo, f2.

    A [prior] section overrides the shipped bounds and [model] x0 the
    initial condition.  The [dynamo_f2] constants build the dynamo map; its
    ``source`` is "config" when they differ from the shipped ones.
    """
    base = model_spec(model_id)
    sec = cfg.get("prior", {})
    lower = base.prior.lower.copy()
    upper = base.prior.upper.copy()
    for i, name in enumerate(base.prior.names):
        raw = sec.get(name)
        if raw:
            lo, hi = (float(v) for v in raw.split(","))
            lower[i], upper[i] = lo, hi
    x0 = config_get(cfg, "model", "x0", float, base.prior.x0)
    spec = replace(base, prior=PriorSpec(base.prior.names, lower, upper, x0=x0))
    if spec.f2 is None:
        return spec
    shipped = DEFAULT_DYNAMO_MAP
    f2 = DynamoMap(**{k: config_get(cfg, "dynamo_f2", k, float, getattr(shipped, k))
                      for k in ("x1", "d1", "x2", "d2")})
    if f2 != shipped:
        f2 = replace(f2, source="config")
    return replace(spec, f2=f2)


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_of_obj(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


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
    body["config_hash"] = sha256_of_obj(
        {"config": config, "seeds": seeds, "inputs": input_hashes or {}})
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
