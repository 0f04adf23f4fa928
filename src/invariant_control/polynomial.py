"""Boundary-constrained polynomials.

All protocol ansätze are real polynomials pinned by boundary values and
derivatives, with any excess coefficients left free for the optimizer.
Coefficients are stored in the scaled variable s = t / duration so that the
constraint solve stays well conditioned for microsecond-scale durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import SingularInterpolation

__all__ = ["Constraint", "BoundaryPolynomial", "solve_boundary_polynomial"]


@dataclass(frozen=True)
class Constraint:
    """Require the order-th time derivative at `time` to equal `value`."""

    time: float
    order: int
    value: float


@dataclass(frozen=True)
class BoundaryPolynomial:
    """Polynomial in t with coefficients stored in s = t / duration."""

    coefficients: np.ndarray
    duration: float
    constraints: tuple[Constraint, ...] = ()
    free_indices: tuple[int, ...] = ()
    free_values: tuple[float, ...] = ()
    _derivs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def _scaled_coeffs(self, order: int) -> np.ndarray:
        if order not in self._derivs:
            self._derivs[order] = npoly.polyder(self.coefficients, order)
        return self._derivs[order]

    def __call__(self, t, order: int = 0):
        """Evaluate the order-th physical-time derivative at t."""
        s = np.asarray(t, dtype=float) / self.duration
        c = self._scaled_coeffs(order)
        return npoly.polyval(s, c) / self.duration**order

    def with_free_values(self, free_values) -> "BoundaryPolynomial":
        """Re-solve the same constraint set with new free coefficients."""
        return solve_boundary_polynomial(
            self.constraints, self.degree, free_values, self.free_indices,
            duration=self.duration,
        )

    def antiderivative_at(self, t) -> np.ndarray:
        """Exact integral of the polynomial from 0 to t."""
        c = npoly.polyint(self.coefficients)
        s = np.asarray(t, dtype=float) / self.duration
        return npoly.polyval(s, c) * self.duration


def _constraint_row(c: Constraint, degree: int, duration: float) -> np.ndarray:
    # row of the linear system in the scaled variable s = t / duration; the
    # right-hand side is scaled by duration**order instead, keeping the
    # matrix O(1) for any physical duration
    s = c.time / duration
    row = np.zeros(degree + 1)
    for j in range(c.order, degree + 1):
        fac = factorial(j) / factorial(j - c.order)
        row[j] = fac * s ** (j - c.order)
    return row


def solve_boundary_polynomial(
    constraints,
    degree: int,
    free_values=(),
    free_indices=None,
    duration: float | None = None,
) -> BoundaryPolynomial:
    """Solve for the constrained coefficients of a degree-`degree` polynomial.

    The number of constraints plus free coefficients must equal degree + 1.
    Free coefficients default to the highest-degree slots.
    """
    constraints = tuple(
        c if isinstance(c, Constraint) else Constraint(*c) for c in constraints
    )
    free_values = tuple(float(v) for v in np.atleast_1d(free_values)) \
        if len(np.atleast_1d(free_values)) else ()
    n_con = len(constraints)
    n_free = len(free_values)
    if n_con + n_free != degree + 1:
        raise ValueError(
            f"degree {degree} needs {degree + 1} conditions, got "
            f"{n_con} constraints + {n_free} free values"
        )
    if free_indices is None:
        free_indices = tuple(range(degree + 1 - n_free, degree + 1))
    else:
        free_indices = tuple(free_indices)
    if duration is None:
        duration = max(c.time for c in constraints)
    if duration <= 0:
        raise ValueError("polynomial duration must be positive")

    solved_indices = [j for j in range(degree + 1) if j not in free_indices]
    rows = np.array([_constraint_row(c, degree, duration) for c in constraints])
    rhs = np.array(
        [c.value * duration**c.order for c in constraints], dtype=float
    )
    if n_free:
        rhs = rhs - rows[:, list(free_indices)] @ np.asarray(free_values)
    a = rows[:, solved_indices]
    if np.linalg.matrix_rank(a) < len(solved_indices):
        raise SingularInterpolation(
            "constraint system is singular (degenerate constraint times?)"
        )
    sol = np.linalg.solve(a, rhs)
    coeffs = np.zeros(degree + 1)
    coeffs[solved_indices] = sol
    for idx, val in zip(free_indices, free_values):
        coeffs[idx] = val
    return BoundaryPolynomial(
        coefficients=coeffs,
        duration=duration,
        constraints=constraints,
        free_indices=free_indices,
        free_values=free_values,
    )
