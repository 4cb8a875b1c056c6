#!/usr/bin/env python3
"""Benchmark of the cvwerner package, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  The run builds the workload's inputs from the seed, warms up
on one fixed point, then repeats whole rounds of the workload until S
seconds have passed, checks every output against references computed apart
from the package, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the layers'
public functions are wrapped during the timed phase and the metrics are
per layer, and the spans are written to ``perfbench/out/``.

The benchmark leaves thread settings (CVW_THREADS, the BLAS variables)
as it finds them and records them in the stamp line it prints.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7
THREAD_VARS = ("CVW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_pts_s": "points/s",
    "op_p50_ms": "ms",
    "cpu_s_per_pt": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load(name, seed):
    """Import the package and build the workload's inputs from the seed."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from workloads import WORKLOADS

    return WORKLOADS[name](np.random.default_rng(seed))


def setup_seconds(args):
    """Median over fresh interpreters of the time from spawning one to the
    end of its warm-up point: imports, inputs and lazy caches."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    counts = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return counts
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(lib)] = fn()
                break
    return counts


def stamp(seed):
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def timed_phase(workload, seconds):
    """Whole rounds until ``seconds`` have passed.  Returns every op's
    outcomes, the wall time per point of each op (of each round, for a
    workload whose points run inside one call), the rounds, wall and CPU
    seconds."""
    outcomes, latencies = [], []
    rounds = 0
    cpu0, t0 = time.process_time(), time.perf_counter()
    while True:
        round_start, round_points = time.perf_counter(), 0
        for op in workload.ops:
            start = time.perf_counter()
            result = workload.run(op)
            if workload.point_by_point:
                latencies.append((time.perf_counter() - start) / len(result))
            outcomes.append((op, result))
            round_points += len(result)
        if not workload.point_by_point:
            latencies.append((time.perf_counter() - round_start) / round_points)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return outcomes, latencies, rounds, time.perf_counter() - t0, time.process_time() - cpu0


def validate(workload, outcomes):
    """Count failed points and name every failure."""
    attempted = failed = 0
    expected, unexpected, checks = Counter(), Counter(), Counter()
    for op, result in outcomes:
        attempted += len(result)
        values = []
        for value, error in result:
            if error is None:
                values.append(value)
                continue
            failed += 1
            label = f"{op.kind}{op.args}: {error.split(':')[0]}"
            (expected if workload.expected_failure(op, error) else unexpected)[label] += 1
        for names in workload.check(op, values):
            failed += bool(names)
            checks.update(names)
    for kind, counter in (("expected failure", expected), ("unexpected failure", unexpected),
                          ("check failed", checks)):
        for label, count in sorted(counter.items()):
            print(f"{kind} x{count}: {label}")
    return attempted, failed, not unexpected and not checks


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cvwerner" / "__init__.py").is_file():
        print(f"error: no cvwerner sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        load(args.workload, args.seed).warm_up()
        print("ready", flush=True)
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else setup_seconds(args)
    workload = load(args.workload, args.seed)
    workload.warm_up()
    gc.collect()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        outcomes, latencies, rounds, wall, cpu = timed_phase(workload, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    points = sum(len(result) for _, result in outcomes)
    header = {"stamp": stamp(args.seed), "workload": args.workload, "rounds": rounds,
              "points": points, "wall_s": wall, "throughput_pts_s": points / wall}
    print(json.dumps(header))
    attempted, failed, correct = validate(workload, outcomes)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "throughput_pts_s": points / wall,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "cpu_s_per_pt": cpu / points,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json.gz", header)
        values = tracing.layer_metrics(tracer.spans, rounds, points)
        units = tracing.UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
