"""Deterministic scans and simplex descent over free protocol coefficients.

The primary mode is a full-factorial grid scan of the free polynomial
coefficients; Nelder-Mead refinement is available as a convenience.
Everything is deterministic: identical inputs give bit-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import NonFiniteObjective
from .protocols import ProtocolFamily

__all__ = ["Objective", "ScanRow", "scan", "minimize", "constrained_minimize"]


@dataclass(frozen=True)
class Objective:
    """Measure objective over a protocol family.

    evaluate(free) builds the protocol at the given free coefficients
    (scaled t/t_f units, so steps are well conditioned at any duration)
    and applies the measure function.
    """

    family: ProtocolFamily
    measure: object  # callable protocol -> float

    def evaluate(self, free) -> float:
        proto = self.family.with_free(free).build()
        return float(self.measure(proto))


@dataclass
class ScanRow:
    """One scan cell: free coefficients and the measures evaluated there."""

    coeffs: tuple[float, ...]
    measures: dict = field(default_factory=dict)


def scan(evaluate, ranges, sizes) -> list[ScanRow]:
    """Full-factorial scan of `evaluate` over a coefficient box.

    ranges is a sequence of (lo, hi) pairs, sizes the per-axis point counts.
    evaluate(coeffs) may return a float or a dict of named measures. Rows
    are ordered row-major over the axes.
    """
    ranges = list(ranges)
    sizes = list(sizes)
    if len(ranges) != len(sizes):
        raise ValueError("need one grid size per coefficient range")
    for lo, hi in ranges:
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("scan ranges must be finite")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(ranges, sizes)]
    cells = [tuple(float(v) for v in c) for c in product(*axes)] or [()]

    def run(coeffs):
        out = evaluate(coeffs)
        if not isinstance(out, dict):
            out = {"value": float(out)}
        return ScanRow(coeffs=coeffs, measures=out)

    return [run(c) for c in cells]


def minimize(objective, x0, xatol: float = 1e-6, max_iter: int = 500):
    """Nelder-Mead descent; never returns a value above the starting one.

    objective is an Objective or a plain callable on the coefficient vector.
    Returns (best_coeffs, best_value). Imports scipy on its first call.
    """
    from scipy.optimize import minimize as _nm_minimize

    fn = objective.evaluate if isinstance(objective, Objective) else objective
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    f0 = float(fn(x0))
    if not np.isfinite(f0):
        raise NonFiniteObjective("objective not finite at the starting point")
    res = _nm_minimize(
        fn, x0, method="Nelder-Mead",
        options={"xatol": xatol, "fatol": 1e-12, "maxiter": max_iter},
    )
    if res.fun <= f0:
        return np.asarray(res.x, dtype=float), float(res.fun)
    return x0, f0


def constrained_minimize(build_constrained, r6_values, measure):
    """Scan r6, solving the equality constraint for r7 at every cell.

    build_constrained(r6) must return a protocol satisfying the constraint
    (raising NoRoot when infeasible, which propagates). Returns
    (best_protocol, best_r6, best_value, rows) where rows lists
    (r6, protocol, value) in scan order.
    """
    r6_values = [float(v) for v in np.atleast_1d(r6_values)]

    def run(r6):
        proto = build_constrained(r6)
        return r6, proto, float(measure(proto))

    rows = [run(v) for v in r6_values]
    best = min(rows, key=lambda row: row[2])
    return best[1], best[0], best[2], rows
