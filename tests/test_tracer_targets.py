"""The benchmark tracer patches package functions by name: they must exist."""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    # a deleted or renamed target would break only the traced benchmark run
    targets = runpy.run_path(str(TRACER), run_name="tracer")["TARGETS"]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert targets and not missing
