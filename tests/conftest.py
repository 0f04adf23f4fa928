"""Shared helpers for the test suite.

The checkout's own src is appended to sys.path, behind every PYTHONPATH
entry: an explicit PYTHONPATH chooses the sources under test, and this
checkout's are the fallback.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)

from invariant_control.dynamics import tls_fidelity  # noqa: E402,F401
