"""Benchmark launcher for invariant-control.

    python3 perfbench/run.py --workload tls_scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It pins the environment (one CPU for every
process, one BLAS/OpenMP thread, src on PYTHONPATH, no worker pool), times
SETUP_PROBES fresh-process imports of the package for setup_s, then runs the
workload in one worker process for --seconds. Times are normalised to a
reference host speed (hostspeed.py). It prints the environment and
non-metric outputs (CSV digests, fail_frac, raw times, samples) first, and
as its last line one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.

Exits 2 without a result if the package sources are missing or the worker
fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
#: every run must end within 180 s; the worker gets what set-up leaves
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from inputs import WORKLOADS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _worker(args, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(OUT), *extra]
    return subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def _setup_s(args, deadline: float):
    """Median set-up time of fresh processes that import and load the config.

    Returns (normalised, raw) seconds: each process's time to import and
    load, without its host-speed probes, raw and rescaled to the reference
    host speed.
    """
    raw, normalised = [], []
    for i in range(SETUP_PROBES + 1):
        proc = _worker(args, "--setup-only", timeout=deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:  # the first probe compiles bytecode; it is not timed
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            raw.append(res["raw_s"])
            normalised.append(res["raw_s"] * res["speed"])
    return statistics.median(normalised), statistics.median(raw)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="invariant-control benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invariant_control" / "__init__.py").is_file():
        print("perfbench: src/invariant_control not found; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    # one core for every process, so each probe runs on the core whose
    # speed it stands for
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        setup_s, raw_setup_s = _setup_s(args, deadline)
        proc = _worker(args, "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       timeout=deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 2
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    info = {k: res[k] for k in ("passes", "wall_samples", "cpu_samples", "raw_wall_s",
                                "speed", "unit_s", "fail_frac", "skipped", "csv_sha256",
                                "failures", "env")}
    info.update(workload=args.workload, seed=args.seed, setup_probes=SETUP_PROBES,
                raw_setup_s=raw_setup_s, cpu=sorted(os.sched_getaffinity(0)))
    if args.trace:
        info.update(traced_wall_s=res["traced_wall_s"], trace_file=res["trace_file"])
        metrics = {k: _metric(v, _layer_unit(k)) for k, v in res["layers"].items()}
    else:
        metrics = {
            "wall_s": _metric(res["wall_s"], "s"),
            "cells_per_s": _metric(res["cells_per_s"], "cells/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        print("  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in metrics.items())
              + f"  fail_frac={res['fail_frac']:.4g} ratio")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("fock_dim"):
        return "levels"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
