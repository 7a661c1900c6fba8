"""Acceptance criteria, one test per criterion.

Each test ends by recording a `[criterion NN] PASS/FAIL` line; the lines are
echoed in the pytest terminal summary (see conftest).  Desk-scale trainings
(criteria 8, 9, 11) are cached under tests/.acceptance_cache and marked slow.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from conftest import fd_gradient, max_grad_error, quadratic_peak_max

import statforge.tensor as T
from statforge.abcsampler import (
    AbcConfig,
    rejection_abc,
    sabc_run,
    stats_fn_from_weights,
    stats_fn_subset,
    stats_fn_suffstats,
)
from statforge.diagnostics import (
    attractor_threshold,
    auc_score,
    distance_quantiles,
    marginal_wasserstein,
    pearson,
    regression_scatter,
)
from statforge.enca import decode_forward, init_enca
from statforge.encoder import (
    count_parameters,
    encode_batch,
    encoder_subset,
    init_encoder,
    shape_trace,
)
from statforge.inca import WNET_LAYERS, aggregate, inca_loss, init_inca, predict_theta
from statforge.mcmc import McmcConfig, metropolis_run
from statforge.models import (
    DEFAULT_DYNAMO_MAP,
    DYNAMO_PRIOR,
    NLAR1_PRIOR,
    TRUE_THETA,
    PriorSpec,
    draw_bare_noise,
    draw_noise_batch,
    sample_prior,
    simulate,
    simulate_batch,
    simulate_nlar1,
    stream,
    transition_density_dynamo,
)
from statforge.suffstats import stats_batch, suff_stats
from statforge.models import log_likelihood

from train_cache import (
    CACHE_DIR,
    ENCA_NLAR1_CFG,
    INCA_NLAR1_CFG,
    cached_enca,
    cached_inca,
    enca_dynamo_cfg,
)

RESULTS = []


def record(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_autodiff_layers():
    t0 = time.perf_counter()
    worst = 0.0

    def check(build, arrays):
        nonlocal worst
        tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
        loss = build(tensors)
        T.backward(loss)
        analytic = [t.grad for t in tensors]
        numeric = fd_gradient(lambda: float(build(tensors).data),
                              [t.data for t in tensors])
        worst = max(worst, max_grad_error(analytic, numeric))

    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        check(lambda ts: T.tsum(T.power(T.conv1d_valid(*ts), 2.0)),
              [rng.standard_normal((2, 8, 2)), rng.standard_normal((3, 2, 3)),
               rng.standard_normal(3)])
        check(lambda ts: T.tsum(T.power(T.maxpool1d(ts[0]), 2.0)),
              [rng.standard_normal((2, 6, 3))])
        check(lambda ts: T.tsum(T.power(T.global_avg_pool(ts[0]), 2.0)),
              [rng.standard_normal((2, 5, 3))])
        for act in ("linear", "relu", "leakyrelu", "tanh", "sigmoid"):
            check(lambda ts, a=act: T.tsum(T.power(T.dense(*ts, a), 2.0)),
                  [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                   rng.standard_normal(2)])
        check(lambda ts: T.tsum(T.power(T.bilstm(*ts), 2.0)),
              [rng.standard_normal((2, 5, 3)),
               rng.standard_normal((3, 8)) * 0.4, rng.standard_normal((2, 8)) * 0.4,
               rng.standard_normal(8) * 0.1,
               rng.standard_normal((3, 8)) * 0.4, rng.standard_normal((2, 8)) * 0.4,
               rng.standard_normal(8) * 0.1])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60
    record(1, ok, f"max relative gradient error {worst:.2e} "
                  f"(<1e-4), {elapsed:.1f}s (<60s)")


def test_criterion_02_shape_fidelity():
    enc = shape_trace(200, q=3, lead_shape=(4,))
    expected_enc = [("conv1_1", (4, 198, 16)), ("conv1_2", (4, 196, 16)),
                    ("maxpool", (4, 98, 16)), ("conv2_1", (4, 96, 32)),
                    ("conv2_2", (4, 94, 32)), ("conv3", (4, 92, 3)),
                    ("globpool", (4, 3))]
    enc_ok = enc == expected_enc
    inca_lead = shape_trace(200, q=3, lead_shape=(4, 5))
    inca_enc_ok = (inca_lead[0][1] == (4, 5, 198, 16)
                   and inca_lead[-1][1] == (4, 5, 3))
    # ENCA decoder shapes for N=200, q=3, c=1
    store = init_enca("nlar1", 3, np.random.default_rng(0))
    s = T.Tensor(np.zeros((4, 3)))
    noise = np.zeros((4, 200, 1))
    tiled = T.tile_time(s, 200)
    cat = T.concat([tiled, T.Tensor(noise)], axis=-1)
    h1 = T.bilstm(cat, *[store[f"decoder.bilstm1.{k}"] for k in
                         ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")])
    h2 = T.bilstm(h1, *[store[f"decoder.bilstm2.{k}"] for k in
                        ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")])
    y = T.dense(h2, store["decoder.fc.weight"], store["decoder.fc.bias"], "linear")
    enca_dec_ok = (tiled.shape == (4, 200, 3) and cat.shape == (4, 200, 4)
                   and h1.shape == (4, 200, 32) and h2.shape == (4, 200, 32)
                   and y.shape == (4, 200, 1))
    # INCA decoder shapes: (bs, n, q-p) -> ... -> (bs, n, 1) -> aggregate (bs, p)
    inca = init_inca("nlar1", 4, np.random.default_rng(1))  # p=2, q=4
    h = T.Tensor(np.zeros((4, 5, 2)))
    wnet_shapes = []
    for name, _u, act in WNET_LAYERS:
        h = T.dense(h, inca[f"wnet.{name}.weight"], inca[f"wnet.{name}.bias"], act)
        wnet_shapes.append(h.shape)
    inca_dec_ok = wnet_shapes == [(4, 5, 3), (4, 5, 10), (4, 5, 3), (4, 5, 1)]
    agg = aggregate(np.random.default_rng(2).random((5, 4)), np.full(5, 0.5), p=2)
    ok = enc_ok and inca_enc_ok and enca_dec_ok and inca_dec_ok \
        and agg.theta_hat.shape == (2,)
    record(2, ok, "encoder/ENCA-decoder/INCA-decoder shapes match the "
                  "architecture tables exactly")


def test_criterion_03_length_invariance():
    store = init_encoder(3, np.random.default_rng(0))
    weights = store.arrays()
    n100 = count_parameters(weights)
    encode_batch(np.zeros((2, 100)), weights)
    encode_batch(np.zeros((2, 200)), weights)  # same weights serve both lengths
    n200 = count_parameters(weights)
    ok = n100 == n200 == 5811
    record(3, ok, f"trainable count {n100} identical for N=100 and N=200 inputs")


def test_criterion_04_suffstat_oracle():
    t0 = time.perf_counter()
    rng = stream(404, 0)
    worst_mle = 0.0
    worst_rel = 0.0
    for k in range(100):
        theta = sample_prior(NLAR1_PRIOR, rng)
        traj = simulate_nlar1(theta, draw_bare_noise("nlar1", 200, 40000 + k),
                              x0=0.25)
        st = suff_stats(traj)
        best = quadratic_peak_max(
            lambda a: log_likelihood(traj, (a, theta[1]), "nlar1"), 4.2, 5.8)
        worst_mle = max(worst_mle, abs(best - st.alpha_hat))
        n = traj.n_steps
        for _ in range(20):
            a, s = sample_prior(NLAR1_PRIOR, rng)
            direct = log_likelihood(traj, (a, s), "nlar1")
            via = (-0.5 * n * np.log(2 * np.pi * s * s)
                   - n / (2 * s * s) * (st.sigma2_hat + (st.alpha_hat - a) ** 2 * st.order))
            rel = abs(direct - via) / abs(direct)
            # NaN-strict: a non-finite likelihood (or identity) fails the check
            worst_rel = max(worst_rel, rel) if np.isfinite(rel) else np.inf
    elapsed = time.perf_counter() - t0
    ok = worst_mle < 1e-6 and worst_rel < 1e-9 and elapsed < 120
    record(4, ok, f"mle vs numeric argmax {worst_mle:.2e} (<1e-6), "
                  f"factorization identity {worst_rel:.2e} (<1e-9 rel), "
                  f"{elapsed:.1f}s (<120s)")


def test_criterion_05_trapezoid_density():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_int = 0.0
    all_bins_ok = True
    for _ in range(10):
        theta = sample_prior(DYNAMO_PRIOR, rng)
        x = rng.uniform(0.6, 1.3)
        alpha, delta, eps = theta
        c = float(DEFAULT_DYNAMO_MAP(x))
        lo, hi = alpha * c, alpha * c + delta * c + eps
        pts = sorted({lo, lo + min(delta * c, eps), hi - min(delta * c, eps), hi})
        val, _ = quad(lambda y: transition_density_dynamo(y, x, theta),
                      lo, hi, points=pts, limit=200)
        worst_int = max(worst_int, abs(val - 1.0))
        n = 10**6
        samp = (alpha + delta * rng.random(n)) * c + eps * rng.random(n)
        edges = np.linspace(lo, hi, 41)
        counts, _ = np.histogram(samp, bins=edges)
        probs = np.array([quad(lambda y: transition_density_dynamo(y, x, theta),
                               edges[i], edges[i + 1], points=pts)[0]
                          for i in range(40)])
        se = np.sqrt(probs * (1 - probs) / n)
        if not np.all(np.abs(counts / n - probs) <= 3 * se + 1e-7):
            all_bins_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_int < 1e-6 and all_bins_ok and elapsed < 120
    record(5, ok, f"integral error {worst_int:.2e} (<1e-6), 10x40 Monte-Carlo "
                  f"bins within 3 binomial SE: {all_bins_ok}, {elapsed:.1f}s (<120s)")


def test_criterion_06_metropolis_validity():
    t0 = time.perf_counter()
    # conjugate linear-Gaussian harness, f = identity, sigma known
    rng = stream(606, 1)
    n, alpha_true, sigma = 400, 0.8, 0.5
    x = np.empty(n + 1)
    x[0] = 1.0
    for i in range(n):
        x[i + 1] = alpha_true * x[i] + sigma * rng.standard_normal()
    prev, nxt = x[:-1], x[1:]
    sxx = float(np.dot(prev, prev))
    a_hat = float(np.dot(prev, nxt)) / sxx
    post_sd = sigma / np.sqrt(sxx)

    def loglik(theta):
        r = nxt - theta[0] * prev
        return float(-0.5 * np.dot(r, r) / sigma**2)

    prior = PriorSpec(("alpha",), (a_hat - 30 * post_sd,), (a_hat + 30 * post_sd,),
                      x0=0.0)
    sample, _ = metropolis_run(loglik, prior, None, McmcConfig(chain_length=200_000,
                                                               seed=66))
    mean_err = abs(sample.draws[:, 0].mean() - a_hat) / abs(a_hat)
    sd_err = abs(sample.draws[:, 0].std(ddof=1) - post_sd) / post_sd
    # prior recovery under a flat likelihood
    box = PriorSpec(("a", "b"), (0.0, -1.0), (2.0, 1.0), x0=0.0)
    flat, _ = metropolis_run(lambda t: 0.0, box, None,
                             McmcConfig(chain_length=134_000, seed=67))
    ks = max(kstest(flat.draws[:, j], "uniform",
                    args=(box.lower[j], box.ranges[j])).statistic
             for j in range(2))
    elapsed = time.perf_counter() - t0
    ok = mean_err < 0.02 and sd_err < 0.02 and ks < 0.02 and flat.m >= 10_000 \
        and elapsed < 300
    record(6, ok, f"conjugate mean err {mean_err:.4f}, sd err {sd_err:.4f} "
                  f"(<0.02), prior-recovery KS {ks:.4f} (<0.02), "
                  f"{elapsed:.1f}s (<300s)")


def test_criterion_07_abc_sufficient_stats_vs_truth():
    t0 = time.perf_counter()
    obs = simulate_nlar1(TRUE_THETA["nlar1"], draw_bare_noise("nlar1", 200, 2024),
                         x0=0.25)
    mc, _ = metropolis_run("nlar1", None, obs, McmcConfig(chain_length=200_000,
                                                          seed=70))
    cfg = AbcConfig(population=1000, budget=100_000, velocity=0.3, seed=71,
                    n_steps=200)
    sample, _ = sabc_run("nlar1", None, stats_fn_suffstats(), obs, cfg)
    _, normed = marginal_wasserstein(sample, mc, NLAR1_PRIOR)
    # rejection baseline at matched budget motivates the 0.10 tolerance
    rej, _ = rejection_abc("nlar1", None, stats_fn_suffstats(), obs,
                           n_sims=100_000, keep_fraction=0.01, seed=71,
                           n_steps=200)
    _, normed_rej = marginal_wasserstein(rej, mc, NLAR1_PRIOR)
    elapsed = time.perf_counter() - t0
    ok = np.all(normed <= 0.10) and elapsed < 1800
    record(7, ok, f"per-marginal W1/prior-range {np.round(normed, 4)} (<=0.10), "
                  f"rejection baseline {np.round(normed_rej, 4)}, "
                  f"{elapsed:.0f}s (<1800s)")


@pytest.mark.slow
def test_criterion_08_enca_desk_scale():
    t0 = time.perf_counter()
    weights = encoder_subset(cached_enca("nlar1", ENCA_NLAR1_CFG))
    table = regression_scatter(weights, "nlar1", m=4000, seed=12345,
                               n_steps=100)
    r_alpha, r_sigma = table["pearson"]
    prior = NLAR1_PRIOR
    rng = stream(54321, 0)
    theta = np.tile(TRUE_THETA["nlar1"], (2000, 1))
    noise = draw_noise_batch("nlar1", 2000, 100, rng)
    x = simulate_batch("nlar1", theta, noise, x0=prior.x0)
    o = stats_batch(x, prior.x0)[:, 2]
    tau = attractor_threshold(o)
    labels = o > tau
    s = encode_batch(x, weights)
    auc = auc_score(s[:, 2], labels)
    auc = max(auc, 1.0 - auc)  # statistic orientation is arbitrary
    elapsed = time.perf_counter() - t0
    ok = r_alpha > 0.9 and r_sigma > 0.9 and auc > 0.95 and elapsed < 7200
    record(8, ok, f"held-out r(s1,alpha)={r_alpha:.4f}, r(s2,sigma)={r_sigma:.4f} "
                  f"(>0.9), attractor AUC={auc:.4f} (>0.95), {elapsed:.0f}s (<2h)")


@pytest.mark.slow
def test_criterion_09_inca_desk_scale():
    t0 = time.perf_counter()
    weights = cached_inca("nlar1", INCA_NLAR1_CFG)
    prior = NLAR1_PRIOR
    rng = stream(777, 0xE1)
    thetas = sample_prior(prior, rng, size=800)
    rep = np.repeat(thetas, 5, axis=0)
    noise = draw_noise_batch("nlar1", 4000, 100, rng)
    x = simulate_batch("nlar1", rep, noise, x0=prior.x0).reshape(800, 5, 100)
    est = np.array([predict_theta(weights, x[i], p=2) for i in range(800)])
    r = [pearson(est[:, j], thetas[:, j]) for j in range(2)]
    # aggregator permutation invariance, bit-exact, on encoded statistics
    from statforge.encoder import encode_batch
    from statforge.inca import weight_fn

    perm_ok = True
    prng = np.random.default_rng(9)
    for i in range(20):
        stats = encode_batch(x[i], weights)
        w = weight_fn(stats[:, 2:], weights)
        base = aggregate(stats, w, p=2).theta_hat
        base_loss = inca_loss(stats, base, thetas[i])
        for _ in range(5):
            perm = prng.permutation(5)
            if not np.array_equal(aggregate(stats[perm], w[perm], p=2).theta_hat,
                                  base):
                perm_ok = False
            if inca_loss(stats[perm], base, thetas[i]) != base_loss:
                perm_ok = False
    # convex hull on 1e4 random evaluations
    hull_ok = True
    for _ in range(10_000):
        st = prng.standard_normal((5, 3))
        w = prng.uniform(1e-6, 1.0, 5)
        th = aggregate(st, w, p=2).theta_hat
        lo, hi = st[:, :2].min(axis=0), st[:, :2].max(axis=0)
        if np.any(th < lo - 1e-12) or np.any(th > hi + 1e-12):
            hull_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = all(v > 0.9 for v in r) and perm_ok and hull_ok and elapsed < 7200
    record(9, ok, f"held-out r(theta_hat)={np.round(r, 4)} (>0.9), permutation "
                  f"invariance exact: {perm_ok}, convex hull 1e4: {hull_ok}, "
                  f"{elapsed:.0f}s (<2h)")


@pytest.mark.slow
def test_criterion_10_learned_stats_beat_regression_only():
    t0 = time.perf_counter()
    weights = encoder_subset(cached_enca("nlar1", ENCA_NLAR1_CFG))
    obs = simulate_nlar1(TRUE_THETA["nlar1"], draw_bare_noise("nlar1", 100, 2024),
                         x0=0.25)
    mc, _ = metropolis_run("nlar1", None, obs, McmcConfig(chain_length=200_000,
                                                          seed=100))
    stats3 = stats_fn_from_weights(weights)
    stats2 = stats_fn_subset(stats3, [0, 1])
    cfg = AbcConfig(population=1000, budget=100_000, velocity=0.3, seed=101,
                    n_steps=100)
    sample3, _ = sabc_run("nlar1", None, stats3, obs, cfg)
    sample2, _ = sabc_run("nlar1", None, stats2, obs, cfg)
    _, normed3 = marginal_wasserstein(sample3, mc, NLAR1_PRIOR)
    _, normed2 = marginal_wasserstein(sample2, mc, NLAR1_PRIOR)
    sum3, sum2 = float(np.sum(normed3)), float(np.sum(normed2))
    elapsed = time.perf_counter() - t0
    ok = sum3 < sum2
    record(10, ok, f"summed W1/range: 3 learned stats {sum3:.4f} < "
                   f"regressors only {sum2:.4f} (strict), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_11_statistic_count_trend_dynamo():
    t0 = time.perf_counter()
    obs = simulate("dynamo", TRUE_THETA["dynamo"],
                   draw_bare_noise("dynamo", 100, 2024))
    mc, _ = metropolis_run("dynamo", None, obs, McmcConfig(chain_length=150_000,
                                                           seed=110))
    rows = []
    wsums = {}
    for q in (3, 4, 5):
        weights = encoder_subset(cached_enca("dynamo", enca_dynamo_cfg(q)))
        cfg = AbcConfig(population=1000, budget=100_000, velocity=0.3,
                        seed=111, n_steps=100)
        sample, rec = sabc_run("dynamo", None, stats_fn_from_weights(weights),
                               obs, cfg)
        quants = distance_quantiles(rec, 0.99, n_regressors=3)
        rows.append((q, quants))
        _, normed = marginal_wasserstein(sample, mc, DYNAMO_PRIOR)
        wsums[q] = float(np.sum(normed))
    table_path = CACHE_DIR / "criterion11_quantiles.csv"
    lines = ["q,component,quantile_99"]
    for q, quants in rows:
        for j, v in enumerate(quants):
            lines.append(f"{q},{j + 1},{v!r}")
    table_path.write_text("\n".join(lines) + "\n")
    table_ok = len(rows) == 3 and all(q.shape == (3,) for _, q in rows)
    directional = min(wsums[4], wsums[5]) <= wsums[3]
    flag_path = CACHE_DIR / "criterion11_flag.txt"
    msg = (f"W1 sums vs ground truth: q=3 {wsums[3]:.4f}, q=4 {wsums[4]:.4f}, "
           f"q=5 {wsums[5]:.4f}; directional (min(q4,q5) <= q3): {directional}")
    flag_path.write_text(("OK: " if directional else "FLAGGED: best-effort "
                          "directional check failed at desk scale; ") + msg + "\n")
    elapsed = time.perf_counter() - t0
    # best-effort criterion: the pipeline and table are asserted; the
    # directional outcome is recorded and flagged, not failed
    record(11, table_ok, f"quantile table emitted ({table_path.name}); {msg}; "
                         f"{elapsed:.0f}s")


def test_criterion_12_smoke_subcommand(tmp_path):
    from statforge.cli import main

    t0 = time.perf_counter()
    code = main(["smoke", "--out", str(tmp_path / "smoke"), "--seed", "3"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 300
    record(12, ok, f"exit code {code}, {elapsed:.1f}s (<300s)")
