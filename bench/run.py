"""statforge benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a statforge checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The workloads are defined in
``workloads.py`` and declared, with the metrics and their bounds, in
``BENCHMARK.json`` at the root.

One process, one caller: each call starts after the previous one returns
(closed loop), and calls repeat until ``--seconds`` have passed and at least
MIN_CALLS calls were made.  BLAS is pinned to BLAS_THREADS threads before
numpy is imported, because training is documented as single-threaded and
bit-reproducible.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
call, the median set-up time of SETUP_REPEATS fresh interpreters (import plus
input construction) and the peak resident memory.  ``--trace 1`` alternates
plain and traced calls on the same inputs, checks that both give identical
outputs, and reports the per-layer metrics of the traced calls (per call,
median over the run).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--tiny`` shrinks every workload to a few milliseconds for the self-test.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MIN_CALLS = 3   # plain calls per untraced run, at least
MIN_PAIRS = 2   # (plain, traced) call pairs per traced run, at least

_clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the benchmark's self-test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import statforge from this checkout's src/, or exit with an error."""
    init = SRC / "statforge" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a statforge checkout")
    sys.path.insert(0, str(SRC))
    import statforge

    if Path(statforge.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported statforge from {statforge.__file__}, not {init}")
    return statforge


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_effect(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None if unknown."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info() -> dict:
    import numpy as np
    import scipy
    from statforge import tensor

    try:
        import numba  # noqa: F401
        numba_importable = True
    except ImportError:
        numba_importable = False
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba_importable,
        "numba_used_by_statforge": bool(tensor._HAVE_NUMBA),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(np),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_call(fn, inputs):
    """(seconds, Outcome) of one call; an exception becomes a failed outcome."""
    from workloads import Outcome

    t0 = _clock()
    try:
        outcome = fn(inputs)
    except Exception as err:  # the run goes on; the call counts as failed
        traceback.print_exc()
        outcome = Outcome(problems=[f"{type(err).__name__}: {err}"])
    return _clock() - t0, outcome


def count_failed(outcomes, reference: str) -> tuple[int, list]:
    """Calls with failed output checks or a digest that differs from ``reference``."""
    failed, notes = 0, []
    for i, out in enumerate(outcomes):
        problems = list(out.problems)
        if not problems and out.digest != reference:
            problems.append(f"digest {out.digest} != {reference}")
        if problems:
            failed += 1
            notes.append(f"call {i}: " + "; ".join(problems))
    return failed, notes


def time_setups(args) -> list:
    """Wall times of fresh interpreters that import statforge and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = _clock()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(_clock() - t0)
    return times


def run_plain(wl, inputs, args):
    calls = []
    t_start = _clock()
    while len(calls) < MIN_CALLS or _clock() - t_start < args.seconds:
        calls.append(timed_call(wl.call, inputs))
    return calls, _clock() - t_start


def run_traced(wl, inputs, args):
    from tracing import Tracer, instrument

    pairs = []
    t_start = _clock()
    while len(pairs) < MIN_PAIRS or _clock() - t_start < args.seconds:
        plain = timed_call(wl.call, inputs)
        tracer = Tracer()
        with instrument(tracer):
            traced = timed_call(wl.call, inputs)
        pairs.append((plain, traced, tracer))
    return pairs, _clock() - t_start


def layer_values(tracer, outcome, call_s: float, setup_tracer) -> dict:
    """Per-layer metrics of one traced call."""
    ms = {name: s * 1e3 for name, s in tracer.total.items()}
    self_ms = {name: s * 1e3 for name, s in tracer.self_s.items()}
    counts = tracer.counts
    info = outcome.info
    v = {}
    for layer in ("conv1d", "bilstm"):
        pre = f"tensor.{layer}"
        secs = tracer.total[pre + ".fwd"] + tracer.total[pre + ".bwd"]
        flop = counts[pre + ".fwd.flop"] + counts[pre + ".bwd.flop"]
        v[pre + ".fwd_ms"] = ms.get(pre + ".fwd", 0.0)
        v[pre + ".bwd_ms"] = ms.get(pre + ".bwd", 0.0)
        v[pre + ".gflop_computed"] = flop / 1e9
        v[pre + ".mb_computed"] = (counts[pre + ".fwd.byte"] + counts[pre + ".bwd.byte"]) / 1e6
        v[pre + ".gflops"] = flop / secs / 1e9 if secs > 0 else 0.0
    for name in ("tensor.maxpool.fwd", "tensor.maxpool.bwd"):
        v[name + "_ms"] = ms.get(name, 0.0)
    for name in ("tensor.dense", "tensor.backward", "tensor.adam_step",
                 "enca.training_losses", "inca.training_losses", "models.stream",
                 "models.simulate_batch", "models.draw_noise_batch",
                 "models.sample_prior", "models.log_likelihood",
                 "suffstats.stats_batch", "abcsampler.fit_standardizer"):
        v[name + ".ms"] = ms.get(name, 0.0)
    for name in ("encoder.encode_forward", "abcsampler.sabc_core", "mcmc.metropolis_run"):
        v[name + ".self_ms"] = self_ms.get(name, 0.0)
    v["tensor.backward.nodes"] = counts["tensor.backward.nodes"]
    v["models.stream.calls"] = tracer.calls["models.stream"]
    v["models.simulate_batch.rows"] = counts["models.simulate_batch.rows"]
    v["models.log_likelihood.calls"] = tracer.calls["models.log_likelihood"]
    v["models.log_likelihood.neginf"] = counts["models.log_likelihood.neginf"]
    cx_calls = setup_tracer.calls["enca.estimate_cx"]
    v["enca.estimate_cx.ms"] = (setup_tracer.total["enca.estimate_cx"] * 1e3 / cx_calls
                                if cx_calls else 0.0)
    simulated = info.get("sabc.simulated", 0)
    proposed = info.get("sabc.proposed", 0)
    v["abcsampler.sabc.sweeps"] = info.get("sabc.sweeps", 0)
    v["abcsampler.sabc.accept_ratio"] = info["sabc.accepted"] / simulated if simulated else 0.0
    v["abcsampler.sabc.inbox_ratio"] = simulated / proposed if proposed else 0.0
    chain = info.get("mcmc.chain_length", 0)
    v["mcmc.accept_ratio"] = info.get("mcmc.accept_ratio", 0.0)
    v["mcmc.inbox_ratio"] = tracer.calls["models.log_likelihood"] / chain if chain else 0.0
    call_ms = call_s * 1e3
    v["trace.call_ms"] = call_ms
    v["share.tensor.bilstm"] = 100 * (v["tensor.bilstm.fwd_ms"] + v["tensor.bilstm.bwd_ms"]) / call_ms
    for name in ("encoder.encode_forward", "models.stream", "models.log_likelihood"):
        v["share." + name] = 100 * ms.get(name, 0.0) / call_ms
    return v


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _median(values):
    return float(statistics.median(values))


def _metrics(values: dict, declared: list) -> dict:
    """Attach declared units; the emitted names must equal the declared ones."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"emitted metrics {sorted(set(values) ^ set(names))} "
                           "differ from BENCHMARK.json")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def _print_calls(label: str, seconds: list):
    """Median, plus the highest percentile with at least ten calls above it."""
    n = len(seconds)
    tail = "no percentile above the median has 10 calls beyond it"
    if n - 10 > n / 2:
        tail = f"p{100 * (n - 10) / n:.0f} {sorted(seconds)[n - 11]:.6g} s"
    print(f"# {label}: median {_median(seconds):.6g} s over {n} calls "
          f"(min {min(seconds):.6g}, max {max(seconds):.6g}); {tail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_package()  # imports numpy, after the thread pin
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed, args.tiny)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    host = host_info()
    print(f"# workload {args.workload} (seed {args.seed}, trace {args.trace}"
          f"{', tiny' if args.tiny else ''}): {why}")
    print("# host: " + json.dumps(host))
    print("# loop: closed, one caller in one process; every call repeats the "
          "same seed-derived inputs")

    if args.trace:
        from tracing import Tracer, instrument

        setup_tracer = Tracer()
        with instrument(setup_tracer):
            inputs = wl.setup(args.seed, args.tiny)
    else:
        inputs = wl.setup(args.seed, args.tiny)
    timed_call(wl.call, wl.setup(args.seed, True))  # warm-up at tiny size

    report = {"workload": args.workload, "seed": args.seed, "host": host}
    if args.trace:
        pairs, elapsed = run_traced(wl, inputs, args)
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        reference = plain[0][1].digest
        failed, notes = count_failed([o for _, o in plain + traced], reference)
        attempted = 2 * len(pairs)
        per_call = [layer_values(tr, out, s, setup_tracer)
                    for (_, (s, out), tr) in pairs]
        values = {k: _median([pc[k] for pc in per_call]) for k in per_call[0]}
        plain_s = _median([s for s, _ in plain])
        values["trace.overhead_ms"] = (values["trace.call_ms"] - plain_s * 1e3)
        values["trace.overhead_pct"] = 100 * values["trace.overhead_ms"] / (plain_s * 1e3)
        metrics = _metrics(values, spec["per_layer"])
        print(f"# {len(pairs)} (plain, traced) call pairs in {elapsed:.1f} s; "
              "traced outputs identical to plain: "
              f"{all(o.digest == reference for _, o in traced)}")
        _print_calls("plain call", [s for s, _ in plain])
        _print_calls("traced call", [s for s, _ in traced])
        print("# no layer waits: every layer runs in this one process and nothing "
              "queues, so wait times are not reported")
        print("# per layer, per call (median over traced calls):")
        for name, m in metrics.items():
            print(f"#   {name:38s} {m['value']:14.6g} {m['unit']}")
        report["per_layer"] = values
        report["info"] = traced[0][1].info
    else:
        setups = time_setups(args)
        calls, elapsed = run_plain(wl, inputs, args)
        seconds = [s for s, _ in calls]
        outcomes = [o for _, o in calls]
        failed, notes = count_failed(outcomes, outcomes[0].digest)
        attempted = len(calls)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {"call_s": _median(seconds), "setup_s": _median(setups),
                  "peak_rss_mb": peak_mb}
        metrics = _metrics(values, spec["end_to_end"])
        good = [(s, o) for s, o in calls if not o.problems]
        named = {} if not good else {
            k: {"value": float(v), "unit": u, "note": note}
            for k, (v, u, note) in wl.named(inputs, [s for s, _ in good],
                                            [o for _, o in good]).items()}
        _print_calls("call", seconds)
        _print_calls("set-up in a fresh interpreter", setups)
        for name, m in {**metrics, **named}.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}"
                  + (f"  ({m['note']})" if "note" in m else ""))
        report["named"] = named
        report["info"] = outcomes[0].info
    print("# info (recorded, never compared with golden values): "
          + json.dumps(report["info"]))
    for note in notes:
        print("# FAILED " + note)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
