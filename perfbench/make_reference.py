"""Regenerate reference.json: every workload's outputs on the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the numbers, and say so with
the change. The benchmark compares default-seed outputs against this file
(fidelities to FIDELITY_ATOL, closed forms to CLOSED_FORM_RTOL).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import CLI_WORKLOADS, DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOAD_CLASSES  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in WORKLOADS:
            inputs = make_inputs(name, DEFAULT_SEED)
            workload = WORKLOAD_CLASSES[name](inputs, Path(tmp) / name)
            res = workload.run_pass()
            if res.failed:
                print(f"{name}: checks failed: {res.failures}", file=sys.stderr)
                return 1
            out = dict(res.outputs)
            if name in CLI_WORKLOADS:
                fock = out.pop("fock", None)
                out = {"tables": out}
                if fock is not None:
                    out["fock"] = fock
            reference[name] = out
            print(f"{name}: {res.attempted} cells, {res.wall_s:.2f} s")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
