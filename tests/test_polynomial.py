"""Boundary-constrained polynomial solver."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from invariant_control.errors import SingularInterpolation
from invariant_control.polynomial import Constraint, solve_boundary_polynomial


def test_cubic_step_matches_hand_solution():
    # value 0 -> 1 with flat edges over [0, 2]: p(s) = 3s^2 - 2s^3, s = t/2
    poly = solve_boundary_polynomial(
        [
            Constraint(0.0, 0, 0.0),
            Constraint(2.0, 0, 1.0),
            Constraint(0.0, 1, 0.0),
            Constraint(2.0, 1, 0.0),
        ],
        degree=3,
    )
    np.testing.assert_allclose(
        poly.coefficients, [0.0, 0.0, 3.0, -2.0], atol=1e-12
    )
    assert poly(1.0) == pytest.approx(0.5, abs=1e-12)
    assert poly(1.0, 1) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("duration", [1e-7, 1e-3, 1.0, 50.0])
def test_constraints_satisfied_across_durations(duration):
    rng = np.random.default_rng(7)
    for _ in range(20):
        values = rng.uniform(-3.0, 3.0, 4)
        slopes = rng.uniform(-2.0, 2.0, 2) / duration
        constraints = [
            Constraint(0.0, 0, values[0]),
            Constraint(duration, 0, values[1]),
            Constraint(0.25 * duration, 0, values[2]),
            Constraint(0.75 * duration, 0, values[3]),
            Constraint(0.0, 1, slopes[0]),
            Constraint(duration, 1, slopes[1]),
        ]
        poly = solve_boundary_polynomial(constraints, degree=5, duration=duration)
        res = np.array([poly(c.time, c.order) - c.value for c in constraints])
        scale = np.max(np.abs(values)) + 1.0
        assert np.max(np.abs(res[:4])) < 1e-9 * scale
        assert np.max(np.abs(res[4:])) < 1e-9 * (np.max(np.abs(slopes)) + 1.0)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    duration = 0.37
    poly = solve_boundary_polynomial(
        [
            Constraint(0.0, 0, 1.0),
            Constraint(duration, 0, -2.0),
            Constraint(0.0, 1, 0.5),
            Constraint(duration, 1, 0.0),
        ],
        degree=5,
        free_values=rng.uniform(-1.0, 1.0, 2),
    )
    ts = rng.uniform(0.05 * duration, 0.95 * duration, 50)
    h = 1e-6 * duration
    fd1 = (poly(ts + h) - poly(ts - h)) / (2.0 * h)
    fd2 = (poly(ts + h) - 2.0 * poly(ts) + poly(ts - h)) / h**2
    np.testing.assert_allclose(poly(ts, 1), fd1, rtol=1e-7, atol=1e-6)
    np.testing.assert_allclose(poly(ts, 2), fd2, rtol=1e-3, atol=1e-2)


def test_free_values_default_to_highest_degree_slots():
    poly = solve_boundary_polynomial(
        [
            Constraint(0.0, 0, 0.0),
            Constraint(1.0, 0, 1.0),
            Constraint(0.0, 1, 0.0),
            Constraint(1.0, 1, 0.0),
        ],
        degree=5,
        free_values=(0.3, -0.7),
    )
    assert poly.coefficients[4] == pytest.approx(0.3)
    assert poly.coefficients[5] == pytest.approx(-0.7)


def test_antiderivative_matches_quadrature():
    poly = solve_boundary_polynomial(
        [
            Constraint(0.0, 0, 1.0),
            Constraint(2.0, 0, 0.25),
            Constraint(0.0, 1, 0.0),
            Constraint(2.0, 1, 0.0),
        ],
        degree=3,
    )
    ts = np.linspace(0.0, 2.0, 20001)
    numeric = np.trapezoid(poly(ts), ts)
    assert poly.antiderivative_at(2.0) == pytest.approx(numeric, rel=1e-8)
    # the cached coefficients give the uncached polyint form bit for bit
    direct = npoly.polyval(ts / 2.0, npoly.polyint(poly.coefficients)) * 2.0
    for _ in range(2):
        assert np.array_equal(poly.antiderivative_at(ts), direct)


def test_degenerate_constraint_times_raise():
    with pytest.raises(SingularInterpolation):
        solve_boundary_polynomial(
            [
                Constraint(0.0, 0, 0.0),
                Constraint(0.0, 0, 1.0),
                Constraint(1.0, 0, 1.0),
                Constraint(1.0, 1, 0.0),
            ],
            degree=3,
        )


def test_condition_count_mismatch_raises():
    with pytest.raises(ValueError):
        solve_boundary_polynomial(
            [Constraint(0.0, 0, 0.0), Constraint(1.0, 0, 1.0)], degree=3
        )


def test_nonpositive_duration_raises():
    with pytest.raises(ValueError):
        solve_boundary_polynomial(
            [Constraint(0.0, 0, 0.0), Constraint(0.0, 1, 1.0)],
            degree=1,
            duration=0.0,
        )
