"""Benchmark worker: runs one workload in a closed loop for a set time.

Started by run.py with the environment already pinned (one BLAS/OpenMP
thread, src on PYTHONPATH). One client, one process: each pass waits for the
previous one. Prints one JSON object as its last line of output.

Untraced passes time each unit with host-speed probes around and inside
it (hostspeed.Sampler) and report each unit's median time at the reference
host speed; traced passes run without probes.

--setup-only does only what set-up time measures: import the package (with
numpy and scipy) and load the generated configs, probing host speed
meanwhile, then print the raw time and its speed factor and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
from inputs import WORKLOADS, make_inputs

#: timed passes a run makes even if they overrun --seconds, so the median
#: of the longest workload still has three samples
MIN_PASSES = 3


def _setup_only(inputs: dict) -> dict:
    """Import the package and load the configs, probing host speed meanwhile."""
    # numpy is part of what is timed, so the probe runs on Python floats
    sampler = hostspeed.Sampler(hostspeed.probe_python)
    sampler.arm()
    t0 = time.perf_counter()
    import invariant_control  # noqa: F401  (numpy and scipy come with it)
    from invariant_control import cli

    # design is called through the library and has no config to load
    for cfg in inputs.get("configs", {}).values():
        cli.ExperimentConfig.from_json(json.dumps(cfg))
    sampler.disarm()
    raw_s = time.perf_counter() - t0 - sampler.probing_s
    return {"raw_s": raw_s, "speed": sampler.finish()}


def _run(args, inputs: dict) -> dict:
    import numpy
    import scipy

    from workloads import make_workload

    run_dir = Path(args.out) / f"{args.workload}-s{args.seed}"
    workload = make_workload(args.workload, inputs, run_dir, args.seed)

    tracer_cls = None
    if args.trace:
        from tracer import Tracer as tracer_cls

    untraced, traced, layer_samples, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced passes, so tracing
        # overhead is measured under the same conditions
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        if trace_this:
            with tracer_cls() as tr:
                res = workload.run_pass()
            traced.append(res)
            layer_samples.append(tr.layer_metrics(res.wall_s, res.csv_bytes))
            spans = tr.trace_records()
        else:
            untraced.append(res := workload.run_pass(probing=True))
        elapsed = time.perf_counter() - start
        done = len(untraced) + len(traced)
        need_more = len(untraced) < MIN_PASSES or (args.trace and not traced)
        # stop when one more pass would end after --seconds
        if not need_more and elapsed * (done + 1) / done > args.seconds:
            break

    passes = untraced + traced
    # each unit's time at the reference host speed, median over the passes
    units = {u: statistics.median(p.unit_s[u] * p.speed[u] for p in untraced)
             for u in untraced[0].unit_s}
    wall_s = sum(units.values())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.csv_sha256 for p in passes if p.csv_sha256})
    out = {
        "attempted": attempted,
        "failed": failed,
        "skipped": sum(p.skipped for p in passes),
        "fail_frac": failed / attempted if attempted else 1.0,
        "passes": len(untraced),
        "wall_samples": [p.work_s for p in untraced],
        "cpu_samples": [p.cpu_s for p in untraced],
        "raw_wall_s": statistics.median(p.work_s for p in untraced),
        "speed": statistics.median(v for p in untraced for v in p.speed.values()),
        "unit_s": units,
        "wall_s": wall_s,
        "cells_per_s": min(p.passed for p in untraced) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_sha256": digests[0] if len(digests) == 1 else (digests or None),
        "failures": [f for p in passes for f in p.failures][:20],
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if args.trace:
        layers = {k: statistics.median(s[k] for s in layer_samples)
                  for k in layer_samples[0]}
        wall_traced = statistics.median(p.work_s for p in traced)
        layers["trace.overhead_frac"] = wall_traced / out["raw_wall_s"] - 1.0
        layers["fail_frac"] = out["fail_frac"]
        out["layers"] = layers
        out["traced_wall_s"] = wall_traced
        trace_path = Path(args.out) / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": spans}))
        out["trace_file"] = str(trace_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(_setup_only(inputs)))
        return 0
    print(json.dumps(_run(args, inputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
