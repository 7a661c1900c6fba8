"""On-disk cache for the desk-scale training runs of the acceptance suite.

Training at the acceptance configurations takes tens of minutes; the weights
are a pure function of (architecture, model, config, training code, numpy
and its BLAS thread count), so they are cached under tests/.acceptance_cache
keyed by a hash of the config, the package version, the source of the
modules that training runs, the numpy version and the BLAS thread count that
training runs at.  Editing any of those modules therefore retrains instead of
reusing stale weights.
Delete the directory to force retraining.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

import statforge
from statforge.enca import EncaConfig, train_enca
from statforge.inca import IncaConfig, train_inca
from statforge.tensor import limit_threads, load_weights, save_weights

CACHE_DIR = Path(__file__).resolve().parent / ".acceptance_cache"
TRAINING_SOURCES = ("tensor.py", "encoder.py", "enca.py", "inca.py", "models.py")


def _source_digests() -> list:
    pkg = Path(statforge.__file__).resolve().parent
    return [hashlib.sha256((pkg / name).read_bytes()).hexdigest()
            for name in TRAINING_SOURCES]


def _training_blas_threads():
    """The BLAS thread count `tensor.train` runs its steps at (None if unknown)."""
    with limit_threads(1) as record:
        return record["in_effect"]


def _key(kind: str, model_id: str, cfg) -> str:
    blob = json.dumps([kind, model_id, asdict(cfg), statforge.__version__,
                       _source_digests(), np.__version__, _training_blas_threads()],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cached_enca(model_id: str, cfg: EncaConfig) -> dict:
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"enca_{model_id}_q{cfg.q}_{_key('enca', model_id, cfg)}.sfwt"
    if path.exists():
        return load_weights(path)[0]
    result = train_enca(model_id, cfg)
    save_weights(path, result.store, meta=result.meta)
    return result.store.arrays()


def cached_inca(model_id: str, cfg: IncaConfig) -> dict:
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"inca_{model_id}_q{cfg.q}_{_key('inca', model_id, cfg)}.sfwt"
    if path.exists():
        return load_weights(path)[0]
    result = train_inca(model_id, cfg)
    save_weights(path, result.store, meta=result.meta)
    return result.store.arrays()


# configurations pinned by the acceptance suite
ENCA_NLAR1_CFG = EncaConfig(q=3, minibatch=64, steps=20_000, seed=8, n_steps=100)
INCA_NLAR1_CFG = IncaConfig(q=3, n_replicas=5, theta_batch=12, steps=20_000,
                            seed=9, n_steps=100)


def enca_dynamo_cfg(q: int) -> EncaConfig:
    return EncaConfig(q=q, minibatch=64, steps=10_000, seed=40 + q, n_steps=100)
