import csv
import io
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from statforge.abcsampler import (
    AbcConfig,
    fit_standardizer,
    sabc_run,
    stats_fn_from_weights,
)
from statforge.cli import main
from statforge.config import KEYS, load_config, model_spec_from_config
from statforge.enca import EncaConfig, train_enca
from statforge.encoder import MIN_INPUT_LENGTH, encoder_subset, init_encoder
from statforge.inca import IncaConfig
from statforge.mcmc import McmcConfig, metropolis_run
from statforge.models import (
    DEFAULT_DYNAMO_MAP,
    TRUE_THETA,
    DynamoMap,
    draw_bare_noise,
    simulate,
    trajectory_from_csv,
)
from statforge.samples import sample_set_from_csv
from statforge.tensor import load_weights, save_weights


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def obs_dir(tmp_path):
    out = tmp_path / "obs"
    assert run(["simulate", "--model", "nlar1", "--theta", "5.3,0.015",
                "--seed", "7", "--n-steps", "60", "--out", out]) == 0
    return out


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["simulate", "--model", "nlar1", "--theta", "5.3,0.015",
                        "--seed", "7", "--out", out]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_written(self, obs_dir):
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seeds"] == {"seed": 7}
        assert "config_hash" in manifest

    def test_batch_binary(self, tmp_path):
        out = tmp_path / "batch"
        assert run(["simulate", "--model", "dynamo", "--format", "bin",
                    "--count", "5", "--n-steps", "40", "--seed", "1",
                    "--out", out]) == 0
        from statforge.models import load_trajectory_batch
        x, x0 = load_trajectory_batch(out / "trajectories.traj")
        assert x.shape == (5, 40)
        assert x0 == 1.0

    def test_bad_theta_usage_error(self, tmp_path):
        assert run(["simulate", "--model", "nlar1", "--theta", "oops",
                    "--out", tmp_path / "x"]) == 2

    def test_unknown_flag_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", "nlar1", "--nope", "--out", tmp_path])
        assert exc.value.code == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STATFORGE_SEED", "7")
        out_env = tmp_path / "env"
        assert run(["simulate", "--model", "nlar1", "--theta", "5.3,0.015",
                    "--out", out_env]) == 0
        out_flag = tmp_path / "flag"
        assert run(["simulate", "--model", "nlar1", "--theta", "5.3,0.015",
                    "--seed", "7", "--out", out_flag]) == 0
        assert (out_env / "trajectory.csv").read_bytes() == \
            (out_flag / "trajectory.csv").read_bytes()


class TestBifurcationAndSuffstats:
    def test_bifurcation_csv(self, tmp_path):
        out = tmp_path / "bif"
        assert run(["bifurcation", "--model", "nlar1", "--alpha-min", "4.2",
                    "--alpha-max", "5.8", "--points", "5", "--transient", "200",
                    "--record", "16", "--x0", "0.25,0.6667", "--out", out]) == 0
        lines = (out / "bifurcation.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,x0,value,diverged"
        assert len(lines) == 1 + 5 * 16 * 2

    def test_suffstats_roundtrip(self, tmp_path, obs_dir):
        out = tmp_path / "stats"
        assert run(["suffstats", "--input", obs_dir / "trajectory.csv",
                    "--out", out]) == 0
        text = (out / "suffstats.csv").read_text()
        assert text.startswith("alpha_hat,sigma2_hat,order,sigma_hat")


class TestTrainAndEncode:
    def test_train_encode_abc_pipeline(self, tmp_path, obs_dir):
        train_out = tmp_path / "train"
        assert run(["train-enca", "--model", "nlar1", "--q", "3", "--steps", "5",
                    "--minibatch", "8", "--n-steps", "60", "--seed", "3",
                    "--c-x", "0.05", "--out", train_out]) == 0
        assert (train_out / "weights.sfwt").exists()
        log_rows = [json.loads(line) for line in
                    (train_out / "train_log.jsonl").read_text().splitlines()]
        assert log_rows and set(log_rows[0]) >= {"step", "loss", "regression",
                                                 "reconstruction"}
        enc_out = tmp_path / "enc"
        assert run(["encode", "--weights", train_out / "weights.sfwt",
                    "--input", obs_dir / "trajectory.csv", "--out", enc_out]) == 0
        stats = (enc_out / "stats.csv").read_text().strip().split("\n")
        assert stats[0] == "s1,s2,s3"
        abc_out = tmp_path / "abc"
        assert run(["abc", "--model", "nlar1",
                    "--observation", obs_dir / "trajectory.csv",
                    "--weights", train_out / "weights.sfwt",
                    "--budget", "600", "--population", "50", "--seed", "5",
                    "--out", abc_out]) == 0
        ss = sample_set_from_csv((abc_out / "samples.csv").read_text())
        assert ss.m == 50
        assert ss.component_distances.shape == (50, 3)
        manifest = json.loads((abc_out / "manifest.json").read_text())
        assert manifest["config"]["encoder_dtype"] == "float32"

    def test_train_inca_cli(self, tmp_path):
        out = tmp_path / "inca"
        assert run(["train-inca", "--model", "nlar1", "--q", "3", "--steps", "3",
                    "--theta-batch", "4", "--n-replicas", "2", "--n-steps", "40",
                    "--seed", "2", "--out", out]) == 0
        assert (out / "weights.sfwt").exists()

    def test_missing_weights_flag(self, tmp_path, obs_dir, capsys):
        code = run(["abc", "--model", "nlar1",
                    "--observation", obs_dir / "trajectory.csv",
                    "--budget", "500", "--population", "50",
                    "--out", tmp_path / "abc2"])
        assert code == 2
        assert "--weights" in capsys.readouterr().err

    def test_missing_weights_file(self, tmp_path, obs_dir, capsys):
        code = run(["encode", "--weights", tmp_path / "nope.sfwt",
                    "--input", obs_dir / "trajectory.csv",
                    "--out", tmp_path / "enc2"])
        assert code == 2
        assert "--weights" in capsys.readouterr().err


class TestMalformedTrajectoryCsv:
    """A trajectory CSV that cannot be parsed is a usage error (exit 2), not a crash."""

    FILES = {"empty": "", "header_only": "step,x\n",
             "non_numeric": "step,x\n0,0.25\n1,0.3\n2,oops\n",
             "x0_only": "step,x\n0,0.25\n"}

    @pytest.mark.parametrize("shape", sorted(FILES))
    def test_abc_and_encode_exit_2(self, tmp_path, capsys, shape):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.FILES[shape])
        weights = tmp_path / "w.sfwt"
        save_weights(weights, init_encoder(3, np.random.default_rng(0)))
        assert run(["abc", "--model", "nlar1", "--stats", "suffstats",
                    "--observation", bad, "--out", tmp_path / "abc"]) == 2
        assert run(["encode", "--weights", weights, "--input", bad,
                    "--out", tmp_path / "enc"]) == 2
        err = capsys.readouterr().err
        assert err.count("usage error: --observation") == 1
        assert err.count("usage error: --input") == 1


class TestShortTrajectory:
    """A trajectory shorter than the encoder's minimum input is a usage error."""

    def write(self, path, n_steps):
        x = np.linspace(0.1, 0.3, n_steps)
        path.write_text("step,x\n0,0.25\n" + "".join(
            f"{i},{float(v)!r}\n" for i, v in enumerate(x, start=1)))
        return path

    def test_encode_and_abc_exit_2(self, tmp_path, capsys):
        weights = tmp_path / "w.sfwt"
        save_weights(weights, init_encoder(3, np.random.default_rng(0)))
        for n_steps in (2, MIN_INPUT_LENGTH - 1):
            short = self.write(tmp_path / f"short{n_steps}.csv", n_steps)
            assert run(["encode", "--weights", weights, "--input", short,
                        "--out", tmp_path / "enc"]) == 2
            assert run(["abc", "--model", "nlar1", "--weights", weights,
                        "--observation", short, "--budget", "100",
                        "--population", "20", "--out", tmp_path / "abc"]) == 2
        err = capsys.readouterr().err
        assert err.count(f"at least {MIN_INPUT_LENGTH} are needed") == 4
        assert "Traceback" not in err
        ok = self.write(tmp_path / "ok.csv", MIN_INPUT_LENGTH)
        assert run(["encode", "--weights", weights, "--input", ok,
                    "--out", tmp_path / "enc_ok"]) == 0

    def test_training_and_scatter_exit_2(self, tmp_path, capsys):
        weights = tmp_path / "w.sfwt"
        save_weights(weights, init_encoder(3, np.random.default_rng(0)))
        for n_steps in ("10", str(MIN_INPUT_LENGTH - 1)):
            assert run(["train-enca", "--model", "nlar1", "--steps", "2",
                        "--minibatch", "8", "--n-steps", n_steps,
                        "--out", tmp_path / "enca"]) == 2
            assert run(["train-inca", "--model", "nlar1", "--steps", "2",
                        "--n-steps", n_steps, "--out", tmp_path / "inca"]) == 2
            assert run(["diagnose", "--weights", weights, "--scatter", "20",
                        "--n-steps", n_steps, "--out", tmp_path / "diag"]) == 2
        err = capsys.readouterr().err
        assert err.count(f"at least {MIN_INPUT_LENGTH} are needed") == 6
        assert "Traceback" not in err
        assert run(["diagnose", "--weights", weights, "--scatter", "20",
                    "--n-steps", str(MIN_INPUT_LENGTH), "--out", tmp_path / "ok"]) == 0

    def test_configured_n_steps_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "short.ini"
        cfg.write_text("[model]\nn_steps = 10\n")
        assert run(["train-enca", "--model", "nlar1", "--steps", "2", "--minibatch", "8",
                    "--config", cfg, "--out", tmp_path / "enca"]) == 2
        assert f"at least {MIN_INPUT_LENGTH} are needed" in capsys.readouterr().err


class TestConfiguredDynamoMap:
    """The [dynamo_f2] constants reach every simulation and are recorded as run."""

    F2 = "[dynamo_f2]\nx1 = 0.4\nd1 = 0.2\nx2 = 1.2\nd2 = 0.3\n"
    CUSTOM = {"x1": 0.4, "d1": 0.2, "x2": 1.2, "d2": 0.3, "source": "config"}

    @pytest.fixture
    def f2_config(self, tmp_path):
        path = tmp_path / "f2.ini"
        path.write_text(self.F2)
        return path

    def test_spec_records_the_source(self, f2_config):
        shipped = model_spec_from_config(load_config(), "dynamo")
        assert shipped.f2 == DEFAULT_DYNAMO_MAP
        assert shipped.record()["f2"]["source"] == "calibrated"
        custom = model_spec_from_config(load_config(f2_config), "dynamo")
        assert custom.record()["f2"] == self.CUSTOM
        assert model_spec_from_config(load_config(f2_config), "nlar1").f2 is None

    def test_library_outputs_follow_the_map(self, f2_config):
        specs = [model_spec_from_config(load_config(path), "dynamo")
                 for path in (None, f2_config)]
        # generated under the configured map; its likelihood is also
        # finite for some prior draws under the shipped one
        obs = simulate(specs[1], TRUE_THETA["dynamo"], draw_bare_noise("dynamo", 60, 0))
        stats_fn = stats_fn_from_weights(
            encoder_subset(init_encoder(3, np.random.default_rng(0))))
        centers = [fit_standardizer(spec, stats_fn, m=1000, n_steps=60).center
                   for spec in specs]
        assert not np.array_equal(*centers)
        # one standardizer for both runs, so the draws differ only through
        # the particles' own simulations
        std = fit_standardizer(specs[0], stats_fn, m=1000, n_steps=60)
        runs = []
        for spec in specs:
            trained = train_enca(spec, EncaConfig(q=3, minibatch=8, steps=2, seed=1,
                                                  n_steps=40))
            abc, _ = sabc_run(spec, None, stats_fn, obs,
                              AbcConfig(population=20, budget=100, seed=2, n_steps=60),
                              std=std)
            mc, _ = metropolis_run(spec, None, obs, McmcConfig(chain_length=2000, seed=3))
            runs.append((trained.store.arrays(), abc.draws, mc.draws))
        (w0, abc0, mc0), (w1, abc1, mc1) = runs
        assert not any(np.array_equal(w0[k], w1[k]) for k in w0
                       if k.startswith("encoder."))
        assert not np.array_equal(abc0, abc1)
        assert not np.array_equal(mc0, mc1)

    def test_cli_runs_follow_and_record_the_map(self, tmp_path, f2_config):
        obs = tmp_path / "obs"
        assert run(["simulate", "--model", "dynamo", "--n-steps", "60", "--seed", "0",
                    "--config", f2_config, "--out", obs]) == 0
        observation = obs / "trajectory.csv"
        samples = {}
        for tag, extra in (("calibrated", []), ("config", ["--config", f2_config])):
            out = tmp_path / tag
            assert run(["mcmc", "--model", "dynamo", "--observation", observation,
                        "--chain-length", "2000", "--seed", "1", "--out", out]
                       + extra) == 0
            samples[tag] = (out / "samples.csv").read_bytes()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["model_spec"]["f2"]["source"] == tag
        assert samples["calibrated"] != samples["config"]

        train = tmp_path / "train"
        assert run(["train-enca", "--model", "dynamo", "--q", "3", "--steps", "2",
                    "--minibatch", "8", "--n-steps", "60", "--seed", "3",
                    "--config", f2_config, "--out", train]) == 0
        _, header = load_weights(train / "weights.sfwt")
        assert header["meta"]["model"]["f2"] == self.CUSTOM
        abc = tmp_path / "abc"
        assert run(["abc", "--model", "dynamo", "--observation", observation,
                    "--weights", train / "weights.sfwt", "--budget", "100",
                    "--population", "20", "--seed", "4", "--config", f2_config,
                    "--out", abc]) == 0
        manifest = json.loads((abc / "manifest.json").read_text())
        assert manifest["config"]["model_spec"]["f2"] == self.CUSTOM

    def test_mcmc_outside_the_configured_support_exits_1(self, tmp_path, f2_config,
                                                       capsys):
        # simulated under the shipped map, the observation has zero likelihood
        # under the configured one for every prior draw
        obs = tmp_path / "obs"
        assert run(["simulate", "--model", "dynamo", "--n-steps", "60", "--seed", "0",
                    "--out", obs]) == 0
        assert run(["mcmc", "--model", "dynamo", "--observation", obs / "trajectory.csv",
                    "--chain-length", "2000", "--seed", "1", "--config", f2_config,
                    "--out", tmp_path / "mc"]) == 1
        err = capsys.readouterr().err
        assert "runtime error (DegenerateLikelihoodError)" in err
        assert "finite likelihood" in err
        assert "Traceback" not in err


class TestConfigFile:
    """INI values reach the run as the flags do; without --config, the run
    dataclass's defaults run."""

    def _abc(self, out, obs_dir, *extra):
        assert run(["abc", "--model", "nlar1", "--stats", "suffstats",
                    "--observation", obs_dir / "trajectory.csv", "--seed", "5",
                    "--out", out, *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["config"]["abc"]["config"], (out / "samples.csv").read_text()

    def test_abc_population_from_the_file(self, tmp_path, obs_dir):
        ini = tmp_path / "abc.ini"
        ini.write_text("[abc]\npopulation = 30\nbudget = 300\n")
        from_file, samples_file = self._abc(tmp_path / "ini", obs_dir, "--config", ini)
        from_flags, samples_flags = self._abc(tmp_path / "flags", obs_dir,
                                              "--population", "30", "--budget", "300")
        assert from_file["population"] == 30 and from_file["budget"] == 300
        assert from_file == from_flags
        assert samples_file == samples_flags
        # the defaults of the keys neither the file nor the flags set
        assert from_flags["velocity"] == 0.3 and from_flags["proposal_scale"] == 0.5

    def test_flag_overrides_the_file(self, tmp_path, obs_dir):
        ini = tmp_path / "abc.ini"
        ini.write_text("[abc]\npopulation = 30\nbudget = 300\n")
        merged, _ = self._abc(tmp_path / "both", obs_dir, "--config", ini,
                              "--population", "40")
        assert merged["population"] == 40 and merged["budget"] == 300

    def test_smoke_passes_the_file_to_its_steps(self, tmp_path, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text("[abc]\nvelocty = 0.01\n")
        assert run(["smoke", "--config", ini, "--out", tmp_path / "smoke"]) == 2
        assert "[abc] velocty: unknown key" in capsys.readouterr().err

    def test_no_file_reads_no_section(self):
        assert load_config() == {}

    def test_keys_are_fields_of_the_run_dataclasses(self):
        classes = {"dynamo_f2": DynamoMap, "enca": EncaConfig, "inca": IncaConfig,
                   "abc": AbcConfig, "mcmc": McmcConfig}
        for section, cls in classes.items():
            hints = typing.get_type_hints(cls)
            assert {key: hints[key] for key in KEYS[section]} == KEYS[section]


class TestSettingsChecks:
    """A flag given as 0 runs as 0; an unknown key, an uncastable value or an
    out-of-range setting is a usage error (exit 2) without a traceback."""

    BASE = {"abc": ["--model", "nlar1", "--stats", "suffstats", "--budget", "300",
                    "--population", "30", "--seed", "5"],
            "train-enca": ["--model", "nlar1", "--steps", "2", "--minibatch", "8"],
            "simulate": ["--model", "dynamo", "--n-steps", "30", "--seed", "0"]}
    # (command, flags, INI text, exit code, stderr fragment)
    CASES = {
        "velocity_flag_0": ("abc", ["--velocity", "0"], None, 0, ""),
        "n_steps_flag_0": ("train-enca", ["--n-steps", "0"], None, 2,
                           "n_steps = 0 is too short for the encoder"),
        "uncastable_value": ("abc", [], "[abc]\npopulation = abc\n", 2,
                             "[abc] population: invalid literal"),
        "misspelt_key": ("abc", [], "[abc]\nvelocty = 0.01\n", 2,
                         "[abc] velocty: unknown key"),
        "population_flag_5": ("abc", ["--population", "5"], None, 2,
                              "[abc]: population must be >= 10"),
        "prior_without_hi": ("abc", [], "[prior]\nalpha = 4.2\n", 2,
                             "[prior] alpha: expected lo,hi"),
        "n_steps_flag_negative": ("simulate", ["--n-steps", "-1"], None, 2,
                                  "n_steps = -1 is too short"),
        "f2_width_0": ("simulate", [], "[dynamo_f2]\nd1 = 0\n", 2,
                       "[dynamo_f2]: f2 widths must be > 0"),
        "f2_width_negative": ("simulate", [], "[dynamo_f2]\nd1 = -0.15\n", 2,
                              "[dynamo_f2]: f2 widths must be > 0"),
        "f2_constant_nan": ("simulate", [], "[dynamo_f2]\nx2 = nan\n", 2,
                            "[dynamo_f2]: f2 constants must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, tmp_path, obs_dir, capsys, case):
        command, flags, ini, code, message = self.CASES[case]
        argv = [command, *self.BASE[command], *flags, "--out", tmp_path / "out"]
        if command == "abc":
            argv += ["--observation", obs_dir / "trajectory.csv"]
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            argv += ["--config", tmp_path / "run.ini"]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if code == 0:
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["config"]["abc"]["config"]["velocity"] == 0.0


class TestBlasThreads:
    """--threads and the training commands cap numpy's OpenBLAS for the run,
    restore it afterwards, and record what was in effect."""

    @pytest.fixture
    def blas(self):
        from statforge.cli import _openblas

        blas = _openblas()
        if blas is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        get, set_ = blas
        before = get()
        set_(2)
        yield blas
        set_(before)

    def test_training_runs_and_records_one_thread(self, tmp_path, monkeypatch, blas):
        from statforge import inca

        seen = []
        train = inca.train_inca

        def spy(*args, **kwargs):
            seen.append(blas[0]())
            return train(*args, **kwargs)

        monkeypatch.setattr(inca, "train_inca", spy)
        out = tmp_path / "inca"
        assert run(["train-inca", "--model", "nlar1", "--q", "3", "--steps", "2",
                    "--theta-batch", "2", "--n-replicas", "2", "--n-steps", "40",
                    "--seed", "2", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["extra"]["blas_threads"] == {
            "requested": 1, "applied": True, "in_effect": 1}
        assert seen == [1]
        assert blas[0]() == 2  # restored

    def test_abc_threads_flag(self, tmp_path, obs_dir, blas):
        records = {}
        for label, flag in (("set", ["--threads", "1"]), ("unset", [])):
            out = tmp_path / label
            assert run(["abc", "--model", "nlar1",
                        "--observation", obs_dir / "trajectory.csv",
                        "--stats", "suffstats", "--budget", "200",
                        "--population", "20", "--seed", "4", "--out", out]
                       + flag) == 0
            records[label] = json.loads(
                (out / "manifest.json").read_text())["extra"]["blas_threads"]
        assert records["set"] == {"requested": 1, "applied": True, "in_effect": 1}
        assert records["unset"] == {"requested": None, "applied": False,
                                    "in_effect": 2}
        assert blas[0]() == 2


class TestAbcSuffstats:
    def test_suffstats_sampler(self, tmp_path, obs_dir):
        out = tmp_path / "abc_suff"
        assert run(["abc", "--model", "nlar1",
                    "--observation", obs_dir / "trajectory.csv",
                    "--stats", "suffstats", "--q", "2",
                    "--budget", "600", "--population", "50", "--seed", "9",
                    "--out", out]) == 0
        ss = sample_set_from_csv((out / "samples.csv").read_text())
        assert ss.component_distances.shape == (50, 2)
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "sweep,acceptance,tolerance"
        assert json.loads((out / "manifest.json").read_text())["config"]["encoder_dtype"] is None


class TestMcmcAndDiagnose:
    def test_mcmc_then_compare(self, tmp_path, obs_dir):
        mcmc_out = tmp_path / "mcmc"
        assert run(["mcmc", "--model", "nlar1",
                    "--observation", obs_dir / "trajectory.csv",
                    "--chain-length", "4000", "--seed", "1",
                    "--out", mcmc_out]) == 0
        ss = sample_set_from_csv((mcmc_out / "samples.csv").read_text())
        assert ss.p == 2 and ss.m > 100
        abc_out = tmp_path / "abc3"
        assert run(["abc", "--model", "nlar1",
                    "--observation", obs_dir / "trajectory.csv",
                    "--stats", "suffstats", "--budget", "600",
                    "--population", "50", "--seed", "2", "--out", abc_out]) == 0
        diag_out = tmp_path / "diag"
        assert run(["diagnose", "--posterior", abc_out / "samples.csv",
                    "--reference", mcmc_out / "samples.csv", "--model", "nlar1",
                    "--distances", abc_out / "samples.csv",
                    "--out", diag_out]) == 0
        assert (diag_out / "wasserstein.csv").exists()
        assert (diag_out / "quantiles.csv").exists()
        assert (diag_out / "histograms.csv").exists()

    def test_mcmc_manifest_records_the_chains(self, tmp_path, obs_dir):
        out = tmp_path / "mcmc"
        assert run(["mcmc", "--model", "nlar1", "--observation", obs_dir / "trajectory.csv",
                    "--chain-length", "8000", "--seed", "1", "--out", out]) == 0
        record = json.loads((out / "manifest.json").read_text())["config"]["mcmc"]
        assert record["chains"] == 8 and record["config"]["chain_length"] == 8000
        assert record["steps_per_chain"] == 1000
        assert len(record["chain_acceptance"]) == 8
        assert all(0.0 < a < 1.0 for a in record["chain_acceptance"])
        assert record["acceptance_rate"] == pytest.approx(np.mean(record["chain_acceptance"]))
        assert len(record["rhat"]) == len(record["ess_bulk"]) == 2
        assert all(r >= 0.9 for r in record["rhat"]) and all(e > 0 for e in record["ess_bulk"])
        # each chain keeps every 10th of its 750 post-burn-in steps, chain by chain
        assert sample_set_from_csv((out / "samples.csv").read_text()).m == 8 * 75

    def test_mcmc_chain_length_not_divisible_is_usage_error(self, tmp_path, obs_dir, capsys):
        assert run(["mcmc", "--model", "nlar1", "--observation", obs_dir / "trajectory.csv",
                    "--chain-length", "4001", "--out", tmp_path / "mc"]) == 2
        assert "multiple of the 8 chains" in capsys.readouterr().err

    def test_diagnose_requires_work(self, tmp_path):
        assert run(["diagnose", "--out", tmp_path / "d"]) == 2


class TestDiagnoseInputs:
    """A missing sample file, half of the --posterior/--reference pair, or a
    pair of different dimension is a usage error (exit 2)."""

    CASES = {
        "missing_posterior": (["--posterior", "nope.csv", "--reference", "ok.csv"],
                              "--posterior: file not found"),
        "missing_reference": (["--posterior", "ok.csv", "--reference", "nope.csv"],
                              "--reference: file not found"),
        "missing_distances": (["--distances", "nope.csv"], "--distances: file not found"),
        "posterior_alone": (["--posterior", "ok.csv", "--distances", "ok.csv"],
                            "--posterior and --reference go together"),
        "reference_alone": (["--reference", "ok.csv", "--distances", "ok.csv"],
                            "--posterior and --reference go together"),
        "dimensions_differ": (["--posterior", "ok.csv", "--reference", "dynamo.csv"],
                              "--posterior has 2 parameters, --reference 3"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, tmp_path, capsys, case):
        (tmp_path / "ok.csv").write_text(
            "alpha,sigma,dist_1,dist_total\n5.0,0.01,0.1,0.1\n5.1,0.02,0.2,0.2\n")
        (tmp_path / "dynamo.csv").write_text("alpha,delta,eps\n1.1,0.1,0.1\n1.2,0.2,0.1\n")
        flags, message = self.CASES[case]
        argv = [tmp_path / f if f.endswith(".csv") else f for f in flags]
        assert run(["diagnose", *argv, "--out", tmp_path / "d"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestCsvCells:
    # a 4000-proposal chain is too short to converge; only its CSV matters here
    @pytest.mark.filterwarnings("ignore:Metropolis chains disagree")
    def test_every_cell_the_cli_writes_is_a_number(self, tmp_path, obs_dir):
        """Every non-empty data cell of every CSV the CLI writes parses with
        float().  An empty cell holds no value: sweep 0's acceptance, the x0
        of a sweep run without --x0."""
        obs = obs_dir / "trajectory.csv"
        weights = tmp_path / "train" / "weights.sfwt"
        for argv in (
                ["bifurcation", "--model", "nlar1", "--alpha-min", "4.2", "--alpha-max",
                 "5.8", "--points", "3", "--transient", "50", "--record", "4",
                 "--out", tmp_path / "bif"],
                ["bifurcation", "--model", "dynamo", "--alpha-min", "0.9", "--alpha-max",
                 "1.4", "--points", "3", "--transient", "50", "--record", "4",
                 "--x0", "1.0,0.5", "--out", tmp_path / "bif_x0"],
                ["suffstats", "--input", obs, "--out", tmp_path / "suff"],
                ["train-enca", "--model", "nlar1", "--q", "3", "--steps", "2",
                 "--minibatch", "8", "--n-steps", "60", "--seed", "3", "--c-x", "0.05",
                 "--out", tmp_path / "train"],
                ["encode", "--weights", weights, "--input", obs, "--out", tmp_path / "enc"],
                ["abc", "--model", "nlar1", "--observation", obs, "--weights", weights,
                 "--budget", "200", "--population", "20", "--seed", "5",
                 "--out", tmp_path / "abc"],
                ["mcmc", "--model", "nlar1", "--observation", obs, "--chain-length",
                 "4000", "--seed", "1", "--out", tmp_path / "mcmc"],
                ["diagnose", "--posterior", tmp_path / "abc" / "samples.csv",
                 "--reference", tmp_path / "mcmc" / "samples.csv", "--model", "nlar1",
                 "--distances", tmp_path / "abc" / "samples.csv", "--bins", "5",
                 "--weights", weights, "--scatter", "50", "--n-steps", "60",
                 "--out", tmp_path / "diag"]):
            assert run(argv) == 0, argv
        files = sorted(tmp_path.rglob("*.csv"))
        assert {p.name for p in files} == {
            "trajectory.csv", "bifurcation.csv", "suffstats.csv", "stats.csv",
            "samples.csv", "trace.csv", "wasserstein.csv", "quantiles.csv",
            "histograms.csv", "regression.csv", "latent.csv"}
        for path in files:
            rows = list(csv.reader(io.StringIO(path.read_text())))
            assert len(rows) > 1, path
            for row in rows[1:]:
                for cell in row:
                    if cell:
                        float(cell)  # a numpy repr such as np.float64(0.5) raises


class TestManifestReproducibility:
    def test_trajectory_reconstructible_from_manifest(self, tmp_path, obs_dir):
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        cfg = manifest["config"]
        out2 = tmp_path / "again"
        assert run(["simulate", "--model", cfg["model"],
                    "--theta", ",".join(str(v) for v in cfg["theta"]),
                    "--n-steps", cfg["n_steps"], "--x0", cfg["x0"],
                    "--seed", manifest["seeds"]["seed"], "--out", out2]) == 0
        assert (out2 / "trajectory.csv").read_bytes() == \
            (obs_dir / "trajectory.csv").read_bytes()

    def test_no_writes_outside_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only_here"
        assert run(["simulate", "--model", "nlar1", "--seed", "1",
                    "--n-steps", "30", "--out", out]) == 0
        entries = {p.name for p in tmp_path.iterdir()}
        assert entries == {"only_here"}
