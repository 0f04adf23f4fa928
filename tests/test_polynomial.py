"""Boundary-constrained polynomial solver."""

from math import factorial

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from invariant_control import polynomial
from invariant_control.errors import InvariantControlError, SingularInterpolation
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


def _solve_uncached(constraints, degree, free_values=(), duration=None):
    """Coefficients by the uncached route: rows built and rank-checked per
    call, the oracle of the cached constraint systems."""
    n_free = len(free_values)
    free_indices = tuple(range(degree + 1 - n_free, degree + 1))
    if duration is None:
        duration = max(c.time for c in constraints)
    solved = [j for j in range(degree + 1) if j not in free_indices]
    rows = np.zeros((len(constraints), degree + 1))
    for i, c in enumerate(constraints):
        s = c.time / duration
        for j in range(c.order, degree + 1):
            rows[i, j] = factorial(j) / factorial(j - c.order) * s ** (j - c.order)
    rhs = np.array([c.value * duration**c.order for c in constraints], dtype=float)
    if n_free:
        rhs = rhs - rows[:, list(free_indices)] @ np.asarray(free_values, dtype=float)
    a = rows[:, solved]
    if np.linalg.matrix_rank(a) < len(solved):
        raise SingularInterpolation("singular")
    coeffs = np.zeros(degree + 1)
    coeffs[solved] = np.linalg.solve(a, rhs)
    for idx, val in zip(free_indices, free_values):
        coeffs[idx] = val
    return coeffs


def _ermakov_set(rng, duration):
    """Six Ermakov boundary conditions of an inner polynomial P."""
    return [Constraint(0.0, 0, 1.0), Constraint(duration, 0, rng.uniform(0.01, 100.0)),
            *(Constraint(t, k, 0.0) for k in (1, 2) for t in (0.0, duration))]


def _tls_set(rng, duration):
    """Angle boundary values and slopes of a TLS polynomial, plus pinned times."""
    v0 = rng.uniform(-np.pi, np.pi)
    pins = rng.uniform(0.1, 0.9, rng.integers(0, 3))
    return [Constraint(0.0, 0, v0), Constraint(duration, 0, rng.uniform(-np.pi, np.pi)),
            Constraint(0.0, 1, rng.uniform(-1.0, 1.0) / duration),
            Constraint(duration, 1, rng.uniform(-1.0, 1.0) / duration),
            *(Constraint(f * duration, 0, v0) for f in pins)]


def test_cached_constraint_systems_equal_the_uncached_solve():
    rng = np.random.default_rng(15)
    for _ in range(300):
        duration = 10.0 ** rng.uniform(-6.0, 3.0)
        constraints = (_ermakov_set if rng.random() < 0.5 else _tls_set)(rng, duration)
        free = tuple(rng.uniform(-5.0, 5.0, rng.integers(0, 3)))
        degree = len(constraints) + len(free) - 1
        want = _solve_uncached(constraints, degree, free, duration)
        for _ in range(2):  # a miss, then a hit of the cache
            poly = solve_boundary_polynomial(constraints, degree, free, duration)
            assert np.array_equal(poly.coefficients, want)


def test_singular_system_raises_on_every_call():
    degenerate = [Constraint(0.0, 0, 0.0), Constraint(0.0, 0, 1.0),
                  Constraint(1.0, 0, 1.0), Constraint(1.0, 1, 0.0)]
    for _ in range(3):
        with pytest.raises(SingularInterpolation):
            solve_boundary_polynomial(degenerate, degree=3)


def test_cached_constraint_system_is_read_only():
    solve_boundary_polynomial([Constraint(0.0, 0, 0.0), Constraint(1.0, 0, 1.0),
                               Constraint(0.0, 1, 0.0)], degree=3, free_values=(0.5,))
    for arr in polynomial._constraint_system(((0.0, 0), (1.0, 0), (0.0, 1)), 3, 1):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert polynomial._constraint_system.cache_info().hits >= 1


def test_horner_evaluation_equals_polyval():
    # scalars stay Python floats, arrays take polyval's operations bit for bit
    rng = np.random.default_rng(3)
    duration = 2.7e-5
    poly = solve_boundary_polynomial(_ermakov_set(rng, duration), degree=7,
                                     free_values=(1.5, -2.5), duration=duration)
    ts = rng.uniform(0.0, duration, 257)
    for order in range(4):
        c = npoly.polyder(poly.coefficients, order)
        want = npoly.polyval(ts / duration, c) / duration**order
        assert np.array_equal(poly(ts, order), want)
        for t, w in zip(ts[:20].tolist(), want[:20]):
            got = poly(t, order)
            assert type(got) is float and got == w
            assert poly(np.asarray(t), order) == got
    direct = npoly.polyval(ts / duration, npoly.polyint(poly.coefficients)) * duration
    assert np.array_equal(poly.antiderivative_at(ts), direct)
    assert [poly.antiderivative_at(float(t)) for t in ts] == direct.tolist()


@pytest.mark.parametrize("duration, free", [
    (1.0, (1e308,)),      # the free columns overflow the right-hand side
    (1.0, (np.nan,)),
    (1e200, ()),          # duration**2 overflows
    (1.0, (-1.7e308, 1.7e308)),
])
def test_a_right_hand_side_or_solve_that_is_not_finite_raises(duration, free):
    constraints = [Constraint(0.0, 0, 1.0), Constraint(duration, 0, 2.0),
                   Constraint(0.0, 1, 0.0), Constraint(duration, 1, 0.0),
                   Constraint(0.0, 2, 0.0), Constraint(duration, 2, 0.0)]
    with pytest.raises(InvariantControlError, match="not finite"):
        solve_boundary_polynomial(constraints, degree=5 + len(free), free_values=free,
                                  duration=duration)


def test_a_solve_past_the_largest_double_raises():
    # a finite right-hand side whose cubic step needs 3 v > DBL_MAX
    constraints = [Constraint(0.0, 0, 0.0), Constraint(1.0, 0, 1.7e308),
                   Constraint(0.0, 1, 0.0), Constraint(1.0, 1, 0.0)]
    with pytest.raises(InvariantControlError, match="coefficients are not finite"):
        solve_boundary_polynomial(constraints, degree=3)
