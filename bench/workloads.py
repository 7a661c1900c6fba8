"""The four benchmark workloads, each a closed loop of one public call.

Every workload builds its inputs from the run's seed in ``setup`` and then
repeats one identical call (same inputs, same seeds), so each repetition
must give bit-identical outputs and the run's median filters timing noise
only.  Data-dependent cost (SABC sweeps, Metropolis in-box rate) varies
between seeds, not between the calls of one run.

A call returns an `Outcome`: a digest that repeated and traced calls must
reproduce, the output checks that failed, stage times, and result values
recorded for information.  Result values are never compared with golden
numbers, so a change that alters numerics needs no benchmark edit.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from statforge import abcsampler, enca, encoder, inca, mcmc, models
from statforge.diagnostics import marginal_wasserstein
from statforge.errors import TrainingDivergedError

_clock = time.perf_counter


@dataclass
class Outcome:
    digest: str = ""
    problems: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)   # stage name -> seconds
    info: dict = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes())
    return h.hexdigest()[:16]


def _sub_seeds(seed: int, n: int) -> list[int]:
    """Independent 32-bit seeds for the inputs of one workload."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _training_call(train) -> Outcome:
    try:
        result = train()
    except TrainingDivergedError as err:
        return Outcome(problems=[f"TrainingDivergedError: {err}"])
    losses = np.array([entry["loss"] for entry in result.log])
    out = Outcome(info={"final_loss": float(losses[-1])})
    if not np.all(np.isfinite(losses)):
        out.problems.append("non-finite training loss")
    out.digest = _digest(losses[-1:], *result.store.arrays().values())
    return out


class EncaTrain:
    name = "enca-train"
    model = "nlar1"

    def setup(self, seed: int, tiny: bool):
        n_pilot = 1000 if tiny else 10_000
        c_x = enca.estimate_cx(self.model, n_pilot=n_pilot, n_steps=100, seed=seed)
        steps = 2 if tiny else 25
        return enca.EncaConfig(q=3, minibatch=8 if tiny else 64, n_steps=100,
                               steps=steps, seed=seed, c_x=c_x, log_every=steps)

    def call(self, cfg) -> Outcome:
        return _training_call(lambda: enca.train_enca(self.model, cfg))

    def named(self, cfg, calls_s, outcomes):
        return {"enca_steps_per_s": (cfg.steps / np.median(calls_s), "1/s",
                                     f"{cfg.steps} steps per call")}


class IncaTrain:
    name = "inca-train"
    model = "nlar1"

    def setup(self, seed: int, tiny: bool):
        steps = 2 if tiny else 100
        return inca.IncaConfig(q=3, n_replicas=2 if tiny else 5,
                               theta_batch=2 if tiny else 12, n_steps=100,
                               steps=steps, seed=seed, log_every=steps)

    def call(self, cfg) -> Outcome:
        return _training_call(lambda: inca.train_inca(self.model, cfg))

    def named(self, cfg, calls_s, outcomes):
        return {"inca_steps_per_s": (cfg.steps / np.median(calls_s), "1/s",
                                     f"{cfg.steps} steps per call")}


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _sabc_checks(sample, record, cfg, prior, out: Outcome):
    """Output checks and sampler ratios of one SABC call."""
    man = sample.manifest
    if man["sims_used"] != cfg.budget:
        out.problems.append(f"sims_used {man['sims_used']} != budget {cfg.budget}")
    if man["stagnated"]:
        out.problems.append(f"SABC flagged stagnation (zero acceptances in sweep "
                            f"{man['sweeps']}, {man['sims_used']} simulations used)")
    if not (np.all(np.isfinite(sample.distances))
            and np.all(np.isfinite(sample.component_distances))):
        out.problems.append("non-finite SABC distances")
    if not all(prior.contains(row) for row in sample.draws):
        out.problems.append("SABC draw outside the prior box")
    pop = cfg.population
    sweeps = man["sweeps"]
    accepted = int(round(float(np.sum(record.acceptance_trace)) * pop))
    simulated = man["sims_used"] - pop
    proposed = sweeps * pop
    out.info.update({
        "sabc.sims_used": man["sims_used"],
        "sabc.sweeps": sweeps,
        "sabc.accepted": accepted,
        "sabc.simulated": simulated,
        "sabc.proposed": proposed,
        "sabc.posterior_mean": np.mean(sample.draws, axis=0).tolist(),
    })


class AbcLearned:
    name = "abc-learned"
    model = "dynamo"

    def setup(self, seed: int, tiny: bool):
        obs_seed, weight_seed, sabc_seed = _sub_seeds(seed, 3)
        # Glorot-uniform encoder (q=3, zero biases) drawn from the seed: the
        # trained weights of the slow tests are not part of the repository,
        # and the encoder's cost does not depend on its weight values.
        weights = encoder.encoder_subset(
            encoder.init_encoder(3, models.stream(weight_seed, 0)))
        obs = models.simulate(self.model, models.TRUE_THETA[self.model],
                              models.draw_bare_noise(self.model, 100, obs_seed))
        cfg = abcsampler.AbcConfig(population=50 if tiny else 1000,
                                   budget=100 if tiny else 20_000,
                                   seed=sabc_seed, n_steps=100)
        return weights, obs, cfg

    def call(self, inputs) -> Outcome:
        weights, obs, cfg = inputs
        t0 = _clock()
        sample, record = abcsampler.sabc_run(
            self.model, None, abcsampler.stats_fn_from_weights(weights), obs, cfg)
        out = Outcome(stages={"sabc": _clock() - t0})
        _sabc_checks(sample, record, cfg, models.prior_for(self.model), out)
        out.info["statistic_digest"] = _digest(sample.component_distances)
        out.digest = _digest(sample.draws, sample.distances)
        return out

    def named(self, inputs, calls_s, outcomes):
        cfg = inputs[2]
        sabc_s = np.median([o.stages["sabc"] for o in outcomes])
        return {"sabc_sims_per_s": (cfg.budget / sabc_s, "1/s",
                                    "simulations used / wall time of sabc_run")}


class PosteriorExact:
    name = "posterior-exact"
    model = "nlar1"

    def setup(self, seed: int, tiny: bool):
        obs_seed, mcmc_seed, sabc_seed = _sub_seeds(seed, 3)
        prior = models.prior_for(self.model)
        obs = models.simulate_nlar1(models.TRUE_THETA[self.model],
                                    models.draw_bare_noise(self.model, 200, obs_seed),
                                    x0=prior.x0)
        mcmc_cfg = mcmc.McmcConfig(chain_length=2000 if tiny else 200_000,
                                   seed=mcmc_seed)
        abc_cfg = abcsampler.AbcConfig(population=50 if tiny else 1000,
                                       budget=100 if tiny else 100_000,
                                       seed=sabc_seed, n_steps=200)
        return obs, mcmc_cfg, abc_cfg

    def call(self, inputs) -> Outcome:
        obs, mcmc_cfg, abc_cfg = inputs
        prior = models.prior_for(self.model)
        t0 = _clock()
        truth, accept = mcmc.metropolis_run(self.model, None, obs, mcmc_cfg)
        t1 = _clock()
        sample, record = abcsampler.sabc_run(
            self.model, None, abcsampler.stats_fn_suffstats(), obs, abc_cfg)
        t2 = _clock()
        out = Outcome(stages={"mcmc": t1 - t0, "sabc": t2 - t1})
        if not 0.0 < accept < 1.0:
            out.problems.append(f"post-burn-in Metropolis acceptance {accept} "
                                "outside (0, 1)")
        _sabc_checks(sample, record, abc_cfg, prior, out)
        _, normed = marginal_wasserstein(sample, truth, prior)
        out.info.update({
            "mcmc.accept_ratio": accept,
            "mcmc.chain_length": mcmc_cfg.chain_length,
            "mcmc.posterior_mean": np.mean(truth.draws, axis=0).tolist(),
            "abc_w1_norm": float(np.sum(normed)),
            "abc_w1_norm_marginals": normed.tolist(),
        })
        out.digest = _digest(truth.draws, sample.draws, sample.distances)
        return out

    def named(self, inputs, calls_s, outcomes):
        _, mcmc_cfg, abc_cfg = inputs
        mcmc_s = np.median([o.stages["mcmc"] for o in outcomes])
        sabc_s = np.median([o.stages["sabc"] for o in outcomes])
        w1 = outcomes[0].info["abc_w1_norm"]
        return {
            "mcmc_steps_per_s": (mcmc_cfg.chain_length / mcmc_s, "1/s",
                                 "chain steps / wall time of metropolis_run"),
            "sabc_sims_per_s": (abc_cfg.budget / sabc_s, "1/s",
                                "simulations used / wall time of sabc_run"),
            "abc_w1_norm": (w1, "1", "sum over marginals of W1 / prior range, "
                            "SABC against Metropolis; deterministic per seed"),
        }


WORKLOADS = {w.name: w for w in (EncaTrain(), IncaTrain(), AbcLearned(),
                                 PosteriorExact())}
