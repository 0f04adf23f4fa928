"""Self-check of the benchmark's tracing.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload it runs, in one process, untraced, traced, traced and
untraced passes on the same seed, and checks that:

1. the tracer restores every patched attribute, so the untraced run is
   unaffected: the originals are back and the untraced passes write the same
   outputs before and after the traced ones;
2. the layer self times plus cli.self_s add up to the traced wall_s within
   trace.overhead_frac (floored at MIN_COVERAGE_TOL, so a noisy overhead
   near zero cannot fail the check on harness glue alone);
3. every per-layer counter repeats exactly across the two traced passes.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402

#: floor of the coverage tolerance, as a share of the traced wall time
MIN_COVERAGE_TOL = 0.01
#: per-layer metrics that are counts and must repeat exactly
_COUNTS = (".calls", ".evals", "fock_dim", ".errors", "truncation_warnings",
           "csv_bytes", "infeasible_ratio")


def _attributes():
    return {(owner, attr): vars(owner)[attr] for owner, attr, *_ in TARGETS}


def check(name: str, seed: int, run_dir: Path) -> list[str]:
    problems = []
    workload = make_workload(name, make_inputs(name, seed), run_dir, seed)
    before = _attributes()

    untraced = [workload.run_pass()]
    traced, layers = [], []
    for _ in range(2):
        with Tracer() as tr:
            res = workload.run_pass()
        traced.append(res)
        layers.append(tr.layer_metrics(res.wall_s, res.csv_bytes))
        after = _attributes()
        if any(after[k] is not v for k, v in before.items()):
            problems.append("tracer left a wrapper installed")
    untraced.append(workload.run_pass())

    for res in untraced + traced:
        if res.failed:
            problems.append(f"pass failed its checks: {res.failures[:3]}")
    a, b = untraced
    if a.csv_sha256 != b.csv_sha256 or a.outputs != b.outputs:
        problems.append("untraced outputs changed across a traced run")

    overhead = (statistics.median(r.wall_s for r in traced)
                / statistics.median(r.wall_s for r in untraced) - 1.0)
    tol = max(overhead, MIN_COVERAGE_TOL)
    for res, m in zip(traced, layers):
        covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        gap = (res.wall_s - covered) / res.wall_s
        if not -1e-9 <= gap <= tol:
            problems.append(
                f"layer self times cover {covered:.4f} s of {res.wall_s:.4f} s "
                f"(gap {gap:.4f}, tolerance {tol:.4f})")

    counts = [{k: v for k, v in m.items() if k.endswith(_COUNTS)} for m in layers]
    changed = {k for k in counts[0] if counts[0][k] != counts[1][k]}
    if changed:
        problems.append(f"counters differ between traced passes: {sorted(changed)}")
    print(f"{name}: overhead {overhead:+.3f}, walls "
          f"{[round(r.wall_s, 3) for r in untraced + traced]}, "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in args.workload:
            for problem in check(name, args.seed, Path(tmp) / name):
                print(f"  {name}: {problem}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
