"""Noise-sensitivity measures and their closed forms."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import hermite
from scipy.integrate import quad, simpson

from invariant_control import algebra, measures
from invariant_control.constants import TWO_PI
from invariant_control.errors import AllZeroStrengths, DegenerateSpectrum
from invariant_control.protocols import make_tls_dual_protocol, make_tls_protocol

O_MAX = measures.O_MAX_TWO_LEVEL


def test_overlap_matrix_bounds_two_level():
    # identical bases saturate the lower bound, mutually unbiased the upper
    eye = np.eye(2, dtype=complex)
    x_vecs = np.linalg.eigh(np.asarray(algebra.PAULI_X))[1]
    assert np.sum(np.abs(measures.overlap_matrix(eye, eye))) == pytest.approx(2.0)
    assert np.sum(np.abs(measures.overlap_matrix(eye, x_vecs))) == pytest.approx(
        2.0 + O_MAX, abs=1e-12
    )


def test_measure_O_constant_equator_path():
    # invariant fixed on the equator against X = sigma_z: O = 2 sqrt(2) - 2
    def path(t):
        return algebra.su2_invariant_matrix(np.pi / 2, np.pi / 2, 1.0)

    val = measures.measure_O(path, algebra.PAULI_Z, 1.0)
    assert val == pytest.approx(O_MAX, abs=1e-9)


def test_measure_O_matches_closed_form_on_protocol():
    delta0, t_f = TWO_PI * 10e3, 0.5e-3
    proto = make_tls_protocol(delta0, t_f, g_extra=(0.4,))
    direct = measures.measure_O(proto.invariant, algebra.PAULI_Z, t_f, grid=2001)
    closed = measures.closed_form_O_z(lambda t: proto.g_poly(t), t_f, grid=2001)
    assert direct == pytest.approx(closed, abs=1e-7)


def test_measure_A_matches_closed_form_on_protocol():
    delta0, t_f = TWO_PI * 10e3, 0.5e-3
    proto = make_tls_protocol(delta0, t_f, g_extra=(-0.3,))
    direct = measures.measure_A(proto.invariant, algebra.PAULI_Z, t_f, grid=2001)
    closed = measures.closed_form_A_z(lambda t: proto.g_poly(t), t_f, grid=2001)
    assert direct == pytest.approx(closed, abs=1e-7)


def test_measure_A_extremes():
    z_path = lambda t: np.asarray(algebra.PAULI_Z)
    assert measures.measure_A(z_path, algebra.PAULI_X, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert measures.measure_A(z_path, algebra.PAULI_Z, 1.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_measure_O_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrum):
        measures.measure_O(lambda t: np.eye(2, dtype=complex), algebra.PAULI_Z, 1.0,
                           grid=11)


def test_closed_form_O_x_depends_on_both_angles():
    t_f = 1.0
    # G pinned at a pole: the sigma_x overlap sits at its maximum
    val = measures.closed_form_O_x(lambda t: 0.0 * t, lambda t: 0.0 * t, t_f)
    assert val == pytest.approx(O_MAX, abs=1e-12)
    # G on the equator with B = 0: X = sigma_x shares the eigenbasis
    val = measures.closed_form_O_x(
        lambda t: np.pi / 2 + 0.0 * t, lambda t: 0.0 * t, t_f
    )
    assert val == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 401, 2001, 4001])
def test_cached_simpson_rule_agrees_with_scipy(n):
    # scipy.integrate.simpson is the oracle: the weights h/3 (1, 4, 2, ..., 4, 1)
    # sum the same terms in another order, so the two differ by at most n
    # roundings of the integral of |y| (the worst draw here takes 66)
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    for t_f in (1e-6, 3.7e-4, 1.0, 2.5e3, 1e5):
        ts, w = measures._simpson_rule(t_f, n)
        x = np.linspace(0.0, t_f, n)
        assert np.array_equal(ts, x)
        assert measures._simpson_rule(t_f, n)[0] is ts  # built once per grid
        assert not any(a.flags.writeable for a in (ts, w))
        for _ in range(10):
            y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
            assert abs(w @ y - simpson(y, x=x)) <= n * eps * (np.abs(w) @ np.abs(y))


def test_closed_forms_agree_with_scipy():
    # the route the cached rule replaced, kept as the oracle: O_z and A_z
    # come out bit for bit, O_x within 2.6 eps
    t_f = 0.5e-3
    proto = make_tls_dual_protocol(TWO_PI * 10e3, t_f, -0.5, 0.7)
    ts = np.linspace(0.0, t_f, 4001)
    g, b = proto.g_poly(ts), proto.b_poly(ts)
    o_z = 2.0 * (np.sqrt(1.0 + np.abs(np.sin(g))) - 1.0)
    cbsg = np.cos(b) * np.sin(g)
    o_x = 2.0 * (np.sqrt((1.0 - cbsg) / 2.0) + np.sqrt((1.0 + cbsg) / 2.0) - 1.0)
    for got, integrand in ((measures.closed_form_O_z(proto.g_poly, t_f), o_z),
                           (measures.closed_form_A_z(proto.g_poly, t_f), np.abs(np.sin(g))),
                           (measures.closed_form_O_x(proto.g_poly, proto.b_poly, t_f), o_x)):
        want = float(simpson(integrand, x=ts) / t_f)
        assert got == pytest.approx(want, rel=4.0 * np.finfo(float).eps, abs=0.0)


def test_one_sine_overlap_sum_z_agrees_with_the_half_angle_form():
    # 2(|sin(G/2)| + |cos(G/2)|) is the oracle of 2 sqrt(1 + |sin G|): both lie
    # in [2, 2 sqrt 2], and they differ by at most one rounding of the sum
    # (measured: one ulp), on a grid over [-0.1, 4 pi] and near G = 0 and pi
    g = np.concatenate([np.linspace(-0.1, 4.0 * np.pi, 24001),
                        np.linspace(-1e-6, 1e-6, 2001), np.pi + np.linspace(-1e-6, 1e-6, 2001)])
    half_angle = 2.0 * (np.abs(np.sin(g / 2)) + np.abs(np.cos(g / 2)))
    got = measures._overlap_sum_z(g)
    assert np.all(np.abs(got - half_angle) <= 2.0 * np.spacing(half_angle))
    assert np.all((2.0 <= got) & (got <= 2.0 + O_MAX))


@pytest.mark.parametrize("grid", [0, 1, 2, 4, 4000])
def test_even_or_too_small_simpson_grid_raises(grid):
    def flat(t):
        return np.ones_like(t)

    with pytest.raises(ValueError, match="odd number >= 3"):
        measures.closed_form_O_z(flat, 1.0, grid=grid)
    with pytest.raises(ValueError, match="odd number >= 3"):
        measures.ho_overlap_Sn(flat, 0, 1.0, 1.0, 1.0, grid=grid)
    with pytest.raises(ValueError, match="odd number >= 3"):
        measures.average_power(flat, np.ones(max(grid, 1)), 1.0, 1.0, grid=grid)


def test_weighted_average():
    assert measures.weighted_average([1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)
    assert measures.weighted_average([1.0, 3.0], [2.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(AllZeroStrengths):
        measures.weighted_average([1.0], [0.0])
    with pytest.raises(ValueError):
        measures.weighted_average([1.0, 2.0], [1.0, -1.0])


def test_hermite_abs_integrals_low_orders():
    # n = 0: integral of exp(-y^2/2) = sqrt(2 pi)
    assert measures.hermite_abs_integral(0) == pytest.approx(
        np.sqrt(2.0 * np.pi), rel=1e-10
    )
    # n = 1: integral of exp(-y^2/2) 2|y| = 4
    assert measures.hermite_abs_integral(1) == pytest.approx(4.0, rel=1e-10)


def test_measures_module_imports_no_scipy():
    # scipy.integrate's quad and simpson are the oracles of this module's
    # routes; they live in the tests only
    tree = ast.parse(Path(measures.__file__).read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert modules and not [m for m in modules if m.split(".")[0] == "scipy"]


def _hermite_abs_integral_quad(n):
    """J_n by adaptive quadrature between the Hermite roots: the oracle of
    the exact antiderivative route."""
    coeffs = np.eye(n + 1)[n]
    edge = np.sqrt(2.0 * n + 1.0) + 12.0
    pts = [-edge, *np.sort(hermite.hermroots(coeffs).real), edge] if n else [-edge, edge]
    return sum(quad(lambda y: np.exp(-0.5 * y * y) * abs(hermite.hermval(y, coeffs)),
                    lo, hi, limit=200)[0] for lo, hi in zip(pts[:-1], pts[1:]))


@pytest.mark.parametrize("n", range(16))
def test_exact_hermite_abs_integral_matches_quadrature(n):
    assert measures.hermite_abs_integral(n) == pytest.approx(
        _hermite_abs_integral_quad(n), rel=1e-15, abs=0.0)


def test_ho_overlap_Sn_constant_path():
    # rho = 1 throughout: S_n reduces to the protocol-independent constant
    mass, omega0 = 2.0, 3.0
    val = measures.ho_overlap_Sn(lambda t: np.ones_like(t), 0, mass, omega0, 1.0)
    expected = (mass * omega0) ** -0.25 * np.pi**-0.25 * np.sqrt(2.0 * np.pi)
    assert val == pytest.approx(expected, rel=1e-9)


def test_ho_overlap_Sn_ratio_independent_of_n():
    mass, omega0, t_f = 1.0, 2.0, 1.0
    path_a = lambda t: 1.0 + 0.5 * np.sin(np.pi * t / t_f) ** 2
    path_b = lambda t: 2.0 - np.cos(2.0 * np.pi * t / t_f) * 0.3
    ratios = [
        measures.ho_overlap_Sn(path_a, n, mass, omega0, t_f)
        / measures.ho_overlap_Sn(path_b, n, mass, omega0, t_f)
        for n in range(4)
    ]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


def test_average_power_constant_trap_is_zero():
    val = measures.average_power(lambda t: np.zeros_like(t), np.ones(2001), 1.0, 1.0)
    assert val == 0.0


def test_average_power_linear_ramp():
    # omega^2 = 1 + t, <q^2> = 1, mass = 2: P = (1/t_f) int m/2 dt = 1
    val = measures.average_power(lambda t: np.ones_like(t), np.ones(2001), 2.0, 3.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_two_channel_landscape_extremes():
    for p in (0.0, 0.3, 0.5, 1.0):
        out = measures.two_channel_landscape(p)
        expected_min = 2.0 * np.sqrt(2.0) * min(p, 1.0 - p) + 2.0 * max(p, 1.0 - p)
        assert out["minimum"] == pytest.approx(expected_min, abs=1e-3)
        assert out["maximum"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        measures.two_channel_landscape(1.5)


def test_two_channel_landscape_equals_a_fresh_computation():
    # the cached p-independent surfaces give the uncached surface bit for bit
    for n_theta, n_phi in ((181, 361), (19, 37), (2, 5)):
        theta = np.linspace(0.0, np.pi, n_theta)
        phi = np.linspace(0.0, 2.0 * np.pi, n_phi)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        cps = np.cos(ph) * np.sin(th)
        for p in (0.0, 0.3, 0.5, 0.77, 1.0):
            w = (p * 2.0 * np.sqrt(1.0 + np.abs(np.sin(th)))
                 + (1.0 - p) * 2.0 * (np.sqrt((1.0 - cps) / 2.0) + np.sqrt((1.0 + cps) / 2.0)))
            out = measures.two_channel_landscape(p, n_theta, n_phi)
            assert np.array_equal(out["surface"], w)
            assert np.array_equal(out["theta"], theta) and np.array_equal(out["phi"], phi)
            assert out["minimum"] == w.min() and out["maximum"] == w.max()
            imin = np.unravel_index(np.argmin(w), w.shape)
            assert out["argmin"] == (theta[imin[0]], phi[imin[1]])
            assert not out["theta"].flags.writeable and not out["phi"].flags.writeable
            assert out["surface"].flags.writeable  # a fresh array per call
