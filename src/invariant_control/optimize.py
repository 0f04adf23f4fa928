"""Deterministic scans and simplex descent over free protocol coefficients.

The primary mode is a full-factorial grid scan of the free polynomial
coefficients; Nelder-Mead refinement is available as a convenience. The
descent is an in-package numpy loop (no scipy) that reproduces scipy's
Nelder-Mead, its test oracle, bit for bit.
Everything is deterministic: identical inputs give bit-identical tables.
"""

from __future__ import annotations

import operator
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
    if any(n < 1 for n in sizes):
        raise ValueError("every scan axis needs at least one point")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(ranges, sizes)]
    cells = [tuple(float(v) for v in c) for c in product(*axes)]

    def run(coeffs):
        out = evaluate(coeffs)
        if not isinstance(out, dict):
            out = {"value": float(out)}
        return ScanRow(coeffs=coeffs, measures=out)

    return [run(c) for c in cells]


#: Nelder-Mead reflection, expansion, contraction and shrink coefficients
#: (Nelder & Mead, Comput. J. 7, 308 (1965)), the non-adaptive ones of scipy
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
#: relative step of each start vertex, and its step on a zero coordinate
_NONZDELT, _ZDELT = 0.05, 0.00025
#: absolute spread of the simplex values at which the descent stops
_FATOL = 1e-12


def minimize(objective, x0, xatol: float = 1e-6, max_iter: int = 500):
    """Nelder-Mead descent; never returns a value above the starting one.

    objective is an Objective or a plain callable on the coefficient vector.
    Returns (best_coeffs, best_value). x0 must be a nonempty finite vector
    and max_iter an integer.
    The loop is scipy's unbounded, non-adaptive Nelder-Mead as
    scipy.optimize.minimize(method="Nelder-Mead", options={"xatol": xatol,
    "fatol": 1e-12, "maxiter": max_iter}) runs it, operation for operation,
    so it returns the same coefficients and value bit for bit; the start
    vertex reuses the start value, one objective call fewer. Numpy only.
    """
    fn = objective.evaluate if isinstance(objective, Objective) else objective
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or x0.size == 0 or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a nonempty finite vector")
    max_iter = operator.index(max_iter)  # no evaluation cap, so never inf

    def f(x):
        fx = fn(np.copy(x))
        return fx if np.isscalar(fx) else np.asarray(fx).item()

    f0 = float(f(x0))
    if not np.isfinite(f0):
        raise NonFiniteObjective("objective not finite at the starting point")
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + _NONZDELT)*y[k]
        else:
            y[k] = _ZDELT
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    fsim[0] = f0
    for k in range(1, N + 1):
        fsim[k] = f(sim[k])
    # sorted twice, as scipy does: argsort is not stable, so a second pass
    # may reorder equal values
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while iterations < max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                # inside contraction
                xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxcc = f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    fval = np.min(fsim)
    if fval <= f0:
        return sim[0], float(fval)
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
