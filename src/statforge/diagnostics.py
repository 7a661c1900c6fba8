"""Posterior comparisons and figure-data emission.

Everything here produces in-memory tables (and CSV text); plotting happens
elsewhere.  Wasserstein-1 on empirical marginals is the scalar used to
compare ABC posteriors against the Metropolis ground truth: it needs no
density estimate and is robust for modest sample sizes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .encoder import encode_batch
from .mcmc import average_ranks
from .models import (
    DEFAULT_N_STEPS,
    PriorSpec,
    draw_noise_batch,
    model_spec,
    prior_predictive,
    simulate_batch,
    stream,
)
from .samples import SampleSet, csv_text
from .suffstats import stats_batch


def _draws(x) -> np.ndarray:
    return x.draws if isinstance(x, SampleSet) else np.atleast_2d(np.asarray(x, dtype=float))


def wasserstein_1d(u, v) -> float:
    """W1 between two empirical distributions via the merged-CDF integral."""
    u = np.sort(np.asarray(u, dtype=float))
    v = np.sort(np.asarray(v, dtype=float))
    if u.size == 0 or v.size == 0:
        raise ValueError("empty sample")
    grid = np.sort(np.concatenate([u, v]))
    deltas = np.diff(grid)
    cdf_u = np.searchsorted(u, grid[:-1], side="right") / u.size
    cdf_v = np.searchsorted(v, grid[:-1], side="right") / v.size
    return float(np.sum(np.abs(cdf_u - cdf_v) * deltas))


def marginal_wasserstein(a, b, prior: PriorSpec | None = None):
    """Per-component W1 between two sample sets.

    Returns the raw distances, or (raw, normalized-by-prior-range) when a
    prior is supplied.
    """
    da, db = _draws(a), _draws(b)
    if da.shape[1] != db.shape[1]:
        raise ValueError("sample sets have different dimension")
    raw = np.array([wasserstein_1d(da[:, j], db[:, j]) for j in range(da.shape[1])])
    if prior is None:
        return raw
    return raw, raw / prior.ranges


def distance_quantiles(component, p_quantile: float = 0.99,
                       n_regressors: int | None = None) -> np.ndarray:
    """Nearest-rank quantile of the (m, q) per-particle component distances,
    regressor components only."""
    comp = np.atleast_2d(np.asarray(component, dtype=float))
    if comp.shape[0] == 0:
        raise ValueError("empty distance record")
    if n_regressors is not None:
        comp = comp[:, :n_regressors]
    m = comp.shape[0]
    rank = max(1, int(np.ceil(p_quantile * m)))
    return np.sort(comp, axis=0)[rank - 1]


def distance_histograms(component, bins: int = 30, n_components: int | None = None):
    """Fixed-width histograms of the (m, q) final component distances, one
    table per component.

    Returns a list of dicts with keys component, edges (bins+1), counts (bins).
    """
    comp = np.atleast_2d(np.asarray(component, dtype=float))
    if n_components is not None:
        comp = comp[:, :n_components]
    tables = []
    for j in range(comp.shape[1]):
        col = comp[:, j]
        top = float(col.max())
        if top == 0.0:
            top = 1.0
        counts, edges = np.histogram(col, bins=bins, range=(0.0, top))
        tables.append({"component": j + 1, "edges": edges, "counts": counts})
    return tables


def histograms_to_csv(tables) -> str:
    return csv_text(["component", "bin_lo", "bin_hi", "count"],
                    ([tab["component"], lo, hi, int(n)] for tab in tables
                     for lo, hi, n in zip(tab["edges"][:-1], tab["edges"][1:], tab["counts"])))


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.dot(a, a) * np.dot(b, b))
    if denom == 0.0:
        raise ValueError("zero variance in correlation input")
    return float(np.dot(a, b) / denom)


def auc_score(scores, labels) -> float:
    """Mann-Whitney AUC of scores against binary labels; a tie counts 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes for AUC")
    rank_pos = average_ranks(np.concatenate([neg, pos]))[neg.size:].sum()
    u_stat = rank_pos - pos.size * (pos.size + 1) / 2.0
    return float(u_stat / (pos.size * neg.size))


# ---------------------------------------------------------------------------
# figure-data tables
# ---------------------------------------------------------------------------

# stream tag of the scatter tables' prior batch
_SCATTER_TAG = 0xD1A


def regression_scatter(weights, model, m: int, seed: int = 0, n_steps: int = DEFAULT_N_STEPS):
    """Encoder regressors against true parameters on fresh prior draws.

    Returns a dict with the true thetas, all q statistics, per-component
    Pearson correlations, and (nlar1 only) the closed-form statistic columns.
    """
    spec = model_spec(model)
    prior = spec.prior
    thetas, _, x = prior_predictive(spec, m, n_steps, stream(seed, _SCATTER_TAG))
    stats = encode_batch(x, weights)
    p = prior.dim
    corr = np.array([pearson(stats[:, j], thetas[:, j]) for j in range(p)])
    out = {"theta": thetas, "stats": stats, "pearson": corr,
           "param_names": prior.names}
    if spec.has_suffstats:
        out["suffstats"] = stats_batch(x, prior.x0)
    return out


def regression_scatter_csv(table) -> str:
    q = table["stats"].shape[1]
    header = ([f"theta_{n}" for n in table["param_names"]]
              + [f"s{i + 1}" for i in range(q)])
    columns = [table["theta"], table["stats"]]
    if "suffstats" in table:
        header += ["alpha_hat", "sigma2_hat", "order"]
        columns.append(table["suffstats"])
    return csv_text(header, np.hstack(columns))


def attractor_threshold(o_values: np.ndarray, min_gap_fraction: float = 0.2):
    """Midpoint of the largest gap in sorted order-parameter values.

    Returns None when the largest gap is below ``min_gap_fraction`` of the
    value range (no usable bimodal split).
    """
    o = np.sort(np.asarray(o_values, dtype=float))
    if o.size < 2 or o[-1] == o[0]:
        return None
    gaps = np.diff(o)
    k = int(np.argmax(gaps))
    if gaps[k] < min_gap_fraction * (o[-1] - o[0]):
        return None
    return float(0.5 * (o[k] + o[k + 1]))


def latent_scatter(table, model, seed: int = 0, n_steps: int = DEFAULT_N_STEPS,
                   pilot: int = 1000):
    """Latent statistics of a ``regression_scatter`` table with attractor
    labels (nlar1 only); ``seed`` and ``n_steps`` are the table's.

    The label threshold comes from the bimodal gap of the order parameter in
    a pilot run at the true parameter values; a unimodal pilot skips labeling
    with a warning.
    """
    spec = model_spec(model)
    if not spec.has_suffstats:
        raise ValueError("latent scatter with attractor labels is nlar1-only")
    prior = spec.prior
    rng = stream(seed, 0xA77)
    noise = draw_noise_batch(spec, pilot, n_steps, rng)
    xp = simulate_batch(spec, np.tile(spec.true_theta, (pilot, 1)), noise,
                        x0=prior.x0)
    tau = attractor_threshold(stats_batch(xp, prior.x0)[:, 2])
    order = table["suffstats"][:, 2]
    if tau is None:
        warnings.warn("order-parameter pilot looks unimodal; labels skipped",
                      RuntimeWarning)
        labels = None
    else:
        labels = (order > tau).astype(int)
    return {"stats": table["stats"], "order": order, "labels": labels, "tau": tau,
            "theta": table["theta"]}


def latent_scatter_csv(table) -> str:
    stats, labels = table["stats"], table["labels"]
    return csv_text([f"s{i + 1}" for i in range(stats.shape[1])] + ["order", "label"],
                    ([*stats[i], table["order"][i], "" if labels is None else int(labels[i])]
                     for i in range(stats.shape[0])))
