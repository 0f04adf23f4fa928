"""Host-speed probe: one fixed computation, timed next to and during the work.

The benchmark runs on a few cores of a shared host. How fast those cores
execute drifts by tens of percent over seconds to hours, and CPU time
follows wall time, so the drift is contention for the core itself, not
descheduling. A probe is a fixed computation that calls no package code,
so no change to the package moves it. A time measured while probing is
rescaled to what it would have been at REFERENCE_S per probe:

    normalised = measured * REFERENCE_S / mean probe time

A Sampler probes once before a block of work, every INTERVAL_S during it
(from a SIGALRM handler, so only in the main thread) and once after it, and
keeps the time its probes took so the caller can take it out of the block's
wall time. The module imports numpy only inside probe_numpy.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: probe period inside a block of work
INTERVAL_S = 0.2
#: RK4 steps of one probe
PROBE_STEPS = {"python": 3000, "numpy": 400}


def _rhs(t, q, p):
    return p, -(1.0 + 0.1 * math.cos(t)) * q


def probe_python() -> float:
    """Wall seconds of a fixed RK4 integration on Python floats."""
    t0 = time.perf_counter()
    t, q, p, h = 0.0, 1.0, 0.0, 0.01
    for _ in range(PROBE_STEPS["python"]):
        k1 = _rhs(t, q, p)
        k2 = _rhs(t + h / 2, q + h / 2 * k1[0], p + h / 2 * k1[1])
        k3 = _rhs(t + h / 2, q + h / 2 * k2[0], p + h / 2 * k2[1])
        k4 = _rhs(t + h, q + h * k3[0], p + h * k3[1])
        q += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        t += h
    return time.perf_counter() - t0


def probe_numpy() -> float:
    """Wall seconds of the same integration on 2-element numpy arrays."""
    import numpy as np

    def rhs(t, y):
        return np.array([y[1], -(1.0 + 0.1 * np.cos(t)) * y[0]])

    t0 = time.perf_counter()
    t, y, h = 0.0, np.array([1.0, 0.0]), 0.01
    for _ in range(PROBE_STEPS["numpy"]):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return time.perf_counter() - t0


#: about the median time of each probe on the reference machine (2-core VM,
#: Intel Xeon, Python 3.11.7, numpy 2.4.6); they only set the scale of
#: normalised times
REFERENCE_S = {probe_python: 0.005, probe_numpy: 0.006}


class Sampler:
    """Probes before, periodically during, and after one block of work."""

    def __init__(self, probe=probe_numpy):
        self.probe = probe
        self.samples = []
        #: wall seconds spent in probes while armed
        self.probing_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.probing_s += time.perf_counter() - t0

    def arm(self):
        """Probe once, then every INTERVAL_S until disarm()."""
        self.samples.append(self.probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def finish(self) -> float:
        """Probe once more; return the block's scale to the reference speed.

        A wall time measured over the block times this factor is the time
        at REFERENCE_S per probe.
        """
        self.samples.append(self.probe())
        return REFERENCE_S[self.probe] / statistics.fmean(self.samples)
