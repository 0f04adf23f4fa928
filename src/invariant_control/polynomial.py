"""Boundary-constrained polynomials.

All protocol ansätze are real polynomials pinned by boundary values and
derivatives, with any excess coefficients left free for the optimizer.
Coefficients are stored in the scaled variable s = t / duration so that the
constraint solve stays well conditioned for microsecond-scale durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import InvariantControlError, SingularInterpolation

__all__ = ["Constraint", "BoundaryPolynomial", "solve_boundary_polynomial", "horner"]


def horner(c, s):
    """c[0] + c[1] s + ... + c[-1] s^(n-1) by Horner's rule: npoly.polyval's
    own recurrence, so a Python-float s gives a Python float and an array s
    gets polyval's operations bit for bit."""
    acc = c[-1] + s * 0
    for ci in c[-2::-1]:
        acc = ci + acc * s
    return acc


@dataclass(frozen=True)
class Constraint:
    """Require the order-th time derivative at `time` to equal `value`."""

    time: float
    order: int
    value: float


@dataclass(frozen=True, eq=False)
class BoundaryPolynomial:
    """Polynomial in t with coefficients stored in s = t / duration.

    Equal only to itself: the coefficients must not change (_derivs caches
    what they give), and the closed-form slots of measures key on the object.
    """

    coefficients: np.ndarray
    duration: float
    free_values: tuple[float, ...] = ()
    _derivs: dict = field(default_factory=dict, repr=False, compare=False)

    def _scaled_coeffs(self, order: int) -> tuple[float, ...]:
        """Coefficients in s of the order-th derivative, as Python floats;
        order -1 is the antiderivative that vanishes at 0. The products
        k c[k] and quotients c[k] / (k + 1) are npoly.polyder's and
        npoly.polyint's, so the coefficients are theirs bit for bit."""
        if order not in self._derivs:
            c = self.coefficients.tolist()
            if order == -1:
                c = [0.0, *(ck / (k + 1) for k, ck in enumerate(c))]
            elif order < 0:
                raise ValueError(f"derivative order {order} is below -1")
            elif order >= len(c):
                c = [c[0] * 0]
            else:
                for _ in range(order):
                    c = [k * c[k] for k in range(1, len(c))]
            self._derivs[order] = tuple(c)
        return self._derivs[order]

    def _scaled_time(self, t):
        if isinstance(t, float):
            return t / self.duration
        return np.asarray(t, dtype=float) / self.duration

    def __call__(self, t, order: int = 0):
        """Evaluate the order-th physical-time derivative at t."""
        return horner(self._scaled_coeffs(order), self._scaled_time(t)) / self.duration**order

    def antiderivative_at(self, t) -> np.ndarray:
        """Exact integral of the polynomial from 0 to t."""
        return horner(self._scaled_coeffs(-1), self._scaled_time(t)) * self.duration


def _constraint_row(s: float, order: int, degree: int) -> np.ndarray:
    # row of the linear system in the scaled variable s = t / duration; the
    # right-hand side is scaled by duration**order instead, keeping the
    # matrix O(1) for any physical duration
    row = np.zeros(degree + 1)
    for j in range(order, degree + 1):
        fac = factorial(j) / factorial(j - order)
        row[j] = fac * s ** (j - order)
    return row


@lru_cache(maxsize=128)
def _constraint_system(scaled: tuple, degree: int, n_free: int):
    """(rows of the free coefficients, matrix of the solved ones), read-only,
    for the constraints scaled = ((t / duration, order), ...) with the top
    n_free coefficients free. Raises SingularInterpolation for a
    rank-deficient matrix; an exception is not cached, so every solve of
    that system raises."""
    # column-major: the product and the solve then see Fortran-ordered column
    # blocks, the layout whose operation order every pinned figure comes from
    rows = np.array([_constraint_row(s, order, degree) for s, order in scaled], order="F")
    n_solved = degree + 1 - n_free
    free_rows, a = rows[:, n_solved:], rows[:, :n_solved]
    if np.linalg.matrix_rank(a) < n_solved:
        raise SingularInterpolation(
            "constraint system is singular (degenerate constraint times?)"
        )
    for arr in (free_rows, a):
        arr.flags.writeable = False
    return free_rows, a


def solve_boundary_polynomial(
    constraints,
    degree: int,
    free_values=(),
    duration: float | None = None,
) -> BoundaryPolynomial:
    """Solve for the constrained coefficients of a degree-`degree` polynomial.

    The number of constraints plus free coefficients must equal degree + 1;
    the free coefficients take the highest-degree slots. The matrix depends
    only on the scaled constraint times and orders, so it is built and
    checked once per system (_constraint_system) and solved per call.
    """
    constraints = tuple(constraints)
    free_values = tuple(float(v) for v in free_values)
    n_free = len(free_values)
    if len(constraints) + n_free != degree + 1:
        raise ValueError(
            f"degree {degree} needs {degree + 1} conditions, got "
            f"{len(constraints)} constraints + {n_free} free values"
        )
    if duration is None:
        duration = max(c.time for c in constraints)
    if duration <= 0:
        raise ValueError("polynomial duration must be positive")

    free_rows, a = _constraint_system(
        tuple((c.time / duration, c.order) for c in constraints), degree, n_free)
    # a float64 power overflows to inf where a float power raises; checked below
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.array([c.value * np.float64(duration)**c.order for c in constraints])
        if n_free:
            rhs = rhs - free_rows @ np.asarray(free_values)
    if not np.isfinite(rhs).all():
        raise InvariantControlError("the constraint right-hand side is not finite")
    coeffs = np.concatenate((np.linalg.solve(a, rhs), free_values))
    if not np.isfinite(coeffs).all():
        raise InvariantControlError("the polynomial coefficients are not finite")
    return BoundaryPolynomial(coefficients=coeffs, duration=duration, free_values=free_values)
