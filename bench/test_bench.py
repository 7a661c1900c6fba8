"""Fast self-test of the benchmark: every workload at tiny size.

    python3 -m pytest bench/test_bench.py -q

Each workload runs once plain and once traced with ``--tiny``.  The result
line must be correct and carry every metric declared in BENCHMARK.json with
its unit, and the workload's named metrics must be reported by name with
their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "enca-train": {"enca_steps_per_s": "1/s"},
    "inca-train": {"inca_steps_per_s": "1/s"},
    "abc-learned": {"sabc_sims_per_s": "1/s"},
    "posterior-exact": {"mcmc_steps_per_s": "1/s", "sabc_sims_per_s": "1/s",
                        "abc_w1_norm": "1"},
}
# layer that each workload must show busy in its traced run
BUSY = {
    "enca-train": ("tensor.bilstm.bwd_ms", "share.tensor.bilstm"),
    "inca-train": ("tensor.conv1d.bwd_ms", "inca.training_losses.ms"),
    "abc-learned": ("share.encoder.encode_forward", "share.models.stream"),
    "posterior-exact": ("share.models.log_likelihood", "share.models.stream"),
}


def _run(workload, trace, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_end_to_end_and_named_metrics(workload):
    result, report = _parse(_run(workload, 0))
    _check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {k: m["unit"] for k, m in report["named"].items()} == NAMED[workload]
    assert report["host"]["blas_threads_requested"] == 1
    for key in ("cpu", "nproc", "python", "numpy", "scipy", "numba_importable",
                "blas", "blas_threads_in_effect"):
        assert key in report["host"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    result, _ = _parse(_run(workload, 1))
    _check_result(result, SPEC["per_layer"])
    for name in BUSY[workload]:
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("enca-train", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
