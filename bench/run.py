#!/usr/bin/env python3
"""Benchmark of longpred: one workload, one seed, timed passes, checked
outputs.

    python3 bench/run.py --workload fi-risk --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports longpred from src/;
set-up time counts from the first line of this file to built inputs.
After set-up it repeats whole passes of the workload's operations until
``--seconds`` have gone by, checks the outputs of the first pass against the
references in reference.py and requires every later pass to reproduce them
exactly.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of tracing.py with
``--trace 1``.  The line before it holds the details: pass times, the probe
rates, the set-up samples and any check failures.  See README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread and longpred's default worker count, fixed before
# numpy loads so that every run uses the same pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LONGPRED_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
# longpred is imported from the checkout's sources, so a directory without
# them fails here with ModuleNotFoundError
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 3         # extra set-ups in fresh interpreters
PROBE_ITERATIONS = 4_000_000


def probe_rate():
    """Iterations per second of a fixed pure-Python loop: the host's speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc ^= i
    return PROBE_ITERATIONS / (time.perf_counter() - t)


def setup(name, seed):
    """Build the workload's inputs; longpred is imported by then."""
    workdir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return workloads.build(name, seed, workdir), workdir


def child_setup_seconds(name, seed):
    """Set-up time of a fresh interpreter, as it measures it itself."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def equal(a, b):
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def run_pass(wl, tracer):
    """One pass over the workload's operations.

    Returns (seconds, raw outputs by key, failed count)."""
    raws, failed = {}, 0
    if tracer is not None:
        tracer.install()
    t = time.perf_counter()
    try:
        for op in wl.ops:
            try:
                raw = op.run()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                raw = None
            if raw is None:
                failed += 1
            else:
                raws[op.key] = raw
    finally:
        seconds = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    return seconds, raws, failed


def measure(wl, seconds, tracer):
    """Whole passes until ``seconds`` have gone by.

    With a tracer, even passes are traced and odd ones are not, so the
    same run gives the traced and the untraced pass times.
    """
    result = {"times": [], "traced_times": [], "per_pass": [],
              "attempted": 0, "failed": 0, "mismatch": [], "first": None}
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.counts = {}
            lo = len(tracer.spans)
        dt, raws, failed = run_pass(wl, tracer if traced else None)
        if traced:
            result["traced_times"].append(dt)
            result["per_pass"].append(tracer.pass_metrics(
                lo, len(tracer.spans), tracer.counts))
        else:
            result["times"].append(dt)
        result["attempted"] += len(wl.ops)
        result["failed"] += failed
        outputs = {op.key: op.collect(raws[op.key])
                   for op in wl.ops if op.key in raws}
        if result["first"] is None:
            result["first"] = outputs
        else:
            result["mismatch"] += [
                f"pass {i + 1}: {key} differs from pass 1"
                for key, value in outputs.items()
                if key in result["first"] and not equal(value,
                                                        result["first"][key])]
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or i >= 2):
            return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it")
    args = parser.parse_args(argv)

    wl, workdir = setup(args.workload, args.seed)
    own_setup = time.perf_counter() - _T0
    try:
        if args.setup_only:
            print(repr(own_setup))
            return 0
        return benchmark(args, wl, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, wl, own_setup):
    tracer = tracing.Tracer() if args.trace else None

    probe_before = probe_rate()
    res = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = probe_rate()

    failures = list(res["mismatch"])
    if res["first"] is not None and len(res["first"]) == len(wl.ops):
        failures += wl.check(wl.parse(res["first"]))
    setups = [own_setup] + [child_setup_seconds(args.workload, args.seed)
                            for _ in range(SETUP_CHILDREN)]

    details = {
        "workload": args.workload, "seed": args.seed,
        "pass_s": res["times"], "traced_pass_s": res["traced_times"],
        "setup_samples_s": setups, "probe_rate_before": probe_before,
        "probe_rate_after": probe_after, "probe_unit": "1/s",
        "failures": failures,
    }
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(res["times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        layer, unsteady = tracing.summarise(res["per_pass"])
        failures += [f"traced count {name} differs between passes"
                     for name in unsteady]
        traced = statistics.median(res["traced_times"])
        untraced = statistics.median(res["times"])
        details["trace_overhead"] = {"traced_wall_s": traced,
                                     "untraced_wall_s": untraced,
                                     "ratio": traced / untraced}
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}.json"),
                    dict(details, per_pass=res["per_pass"]))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({"correct": not failures, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
