"""Noise-sensitivity measures and their closed forms."""

import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite
from scipy.integrate import quad, simpson

from invariant_control import algebra, measures
from invariant_control.constants import TWO_PI
from invariant_control.errors import AllZeroStrengths, DegenerateSpectrum
from invariant_control.protocols import (
    make_tls_dual_protocol,
    make_tls_protocol,
    make_tls_steep_protocol,
)

import oracles

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
    t_f = 0.5e-3
    proto = make_tls_protocol(t_f, g_extra=(0.4,))
    invariant = oracles.tls_invariant(proto, TWO_PI * 10e3)
    direct = measures.measure_O(invariant, algebra.PAULI_Z, t_f, grid=2001)
    closed = measures.closed_form_O_z(lambda t: proto.g_poly(t), t_f, grid=2001)
    assert direct == pytest.approx(closed, abs=1e-7)


def test_measure_A_matches_closed_form_on_protocol():
    t_f = 0.5e-3
    proto = make_tls_protocol(t_f, g_extra=(-0.3,))
    invariant = oracles.tls_invariant(proto, TWO_PI * 10e3)
    direct = measures.measure_A(invariant, algebra.PAULI_Z, t_f, grid=2001)
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
    proto = make_tls_dual_protocol(t_f, -0.5, 0.7)
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
    got = measures._overlap_sum_z(np.sin(g))  # the sum takes sin G
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


@pytest.mark.parametrize("t_f", [0.0, -1.0, np.inf, np.nan])
def test_a_t_f_not_positive_and_finite_raises(t_f):
    def flat(t):
        return np.ones_like(t)

    with pytest.raises(ValueError, match="positive and finite"):
        measures.closed_form_O_z(flat, t_f)
    with pytest.raises(ValueError, match="positive and finite"):
        measures.ho_overlap_Sn(flat, 0, 1.0, 1.0, t_f)
    with pytest.raises(ValueError, match="positive and finite"):
        measures.average_power(flat, np.ones(2001), 1.0, t_f)


def test_weighted_average():
    assert measures.weighted_average([1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)
    assert measures.weighted_average([1.0, 3.0], [2.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(AllZeroStrengths):
        measures.weighted_average([1.0], [0.0])
    with pytest.raises(ValueError):
        measures.weighted_average([1.0, 2.0], [1.0, -1.0])
    # a non-finite strength or measure raises, with no RuntimeWarning on the
    # way, a measure of weight zero included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, eta in [([1.0, 3.0], [np.nan, 1.0]), ([1.0, 3.0], [np.inf, 1.0]),
                       ([np.nan, 3.0], [1.0, 1.0]), ([1.0, np.inf], [1.0, 1.0]),
                       ([1.0, -np.inf], [1.0, 1.0]), ([np.nan, 3.0], [0.0, 1.0]),
                       ([np.inf, 3.0], [0.0, 1.0])]:
            with pytest.raises(ValueError, match="finite"):
                measures.weighted_average(m, eta)


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


# ---------------------------------------------------------------------------
# reuse of the closed forms' last results


_T_F = 0.5e-3
#: steep cells (g4) and dual cells (shape, b_dip): dual cells of one shape
#: share G, and shape >= 0 keeps B at pi/2 whatever b_dip is
_STEEP = (0.0, 0.35, 1.0)
_DUAL = ((-1.0, 0.0), (-1.0, 0.5), (-0.3, 0.5), (0.0, 0.2), (0.0, 0.9), (0.6, 0.9))


def _cell_measures(cell):
    if len(cell) == 1:
        g = make_tls_steep_protocol(_T_F, cell[0]).g_poly
        return (measures.closed_form_O_z(g, _T_F), measures.closed_form_A_z(g, _T_F))
    proto = make_tls_dual_protocol(_T_F, *cell)
    return (measures.closed_form_O_z(proto.g_poly, _T_F),
            measures.closed_form_O_x(proto.g_poly, proto.b_poly, _T_F))


def _cold(cell):
    measures._slots.clear()
    return _cell_measures(cell)


_CELLS = [(g4,) for g4 in _STEEP] + list(_DUAL)
_COLD = {cell: _cold(cell) for cell in _CELLS}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(order=st.lists(st.sampled_from(_CELLS), min_size=1, max_size=12))
def test_closed_forms_in_any_cell_order_equal_a_cold_call(order):
    # repeats, G shared across b_dip, B shared across shape >= 0 and steep
    # cells between them: every value equals the cell's own cold call
    for cell in order:
        assert _cell_measures(cell) == _COLD[cell]


def _count_sines(monkeypatch):
    """Record the length of every np.sin argument, with empty slots."""
    sines = []
    sin = np.sin

    def counting(x, *args, **kwargs):
        sines.append(np.size(x))
        return sin(x, *args, **kwargs)

    measures._slots.clear()
    monkeypatch.setattr(np, "sin", counting)
    return sines


def test_a_steep_cell_takes_one_sine_for_O_z_and_A_z(monkeypatch):
    sines = _count_sines(monkeypatch)
    got = _cell_measures((0.35,))
    assert sines == [4001] and got == _COLD[(0.35,)]


def test_changed_paths_t_f_or_grid_miss_the_slots(monkeypatch):
    # the slots key on (G, t_f, grid) and (G, B, t_f, grid): a value-equal
    # fresh path hits, and a G one ulp off in one weight, another t_f or
    # another grid misses and equals a cold call
    g = make_tls_steep_protocol(_T_F, 0.35).g_poly
    b = make_tls_dual_protocol(_T_F, -0.5, 0.7).b_poly
    sines = _count_sines(monkeypatch)

    def forms(g, b, t_f=_T_F, grid=4001):
        return (measures.closed_form_O_z(g, t_f, grid), measures.closed_form_A_z(g, t_f, grid),
                measures.closed_form_O_x(g, b, t_f, grid))

    def cold(*args):
        measures._slots.clear()
        return forms(*args)

    first = forms(g, b)
    assert forms(replace(g), replace(b)) == first and sines == [4001]  # equal paths hit
    moved = replace(g, weights=(g.weights[0], np.nextafter(g.weights[1], 0.0)))
    for args in ((moved, b), (g, b, 2.0 * _T_F), (g, b, _T_F, 2001)):
        n = len(sines)
        got = forms(*args)
        assert len(sines) == n + 1  # the sine missed; O_z, A_z and O_x share it
        assert got == cold(*args)
        forms(g, b)  # back in the slots
    b_moved = make_tls_dual_protocol(_T_F, -0.5, 0.2).b_poly
    n = len(sines)
    got = measures.closed_form_O_x(g, b_moved, _T_F)
    assert got != first[2] and len(sines) == n  # O_x keys on B too; G's sine hit
    assert got == cold(g, b_moved)[2]


def test_distinct_polynomial_and_lambda_paths_alternate_through_the_slots():
    # a BoundaryPolynomial and a lambda are equal only to themselves: two of
    # each, alternated through the three closed forms, raise nothing in the
    # key compare and each give a cold call's values
    protos = [make_tls_protocol(_T_F, g_extra=(x,)) for x in (0.4, -0.3)]
    lambdas = [(lambda t, p=p: p.g_poly(t), lambda t, p=p: p.b_poly(t)) for p in protos]
    paths = [(p.g_poly, p.b_poly) for p in protos] + lambdas

    def forms(g, b):
        return (measures.closed_form_O_z(g, _T_F), measures.closed_form_A_z(g, _T_F),
                measures.closed_form_O_x(g, b, _T_F))

    cold = []
    for g, b in paths:
        measures._slots.clear()
        cold.append(forms(g, b))
    assert cold[0] != cold[1] and cold[2:] == cold[:2]
    for k in (0, 2, 1, 3, 0, 1, 1, 2, 3, 0, 3):
        assert forms(*paths[k]) == cold[k]
    # G of one with B of the other
    got = measures.closed_form_O_x(paths[0][0], paths[3][1], _T_F)
    measures._slots.clear()
    assert got == measures.closed_form_O_x(paths[0][0], paths[3][1], _T_F)


def test_closed_form_slots_hold_one_grid_array():
    # stated bound: 8 * grid bytes, the sine; the keys hold paths and numbers
    measures._slots.clear()
    for cell in _CELLS:
        _cell_measures(cell)
        held = sum(getattr(value, "nbytes", 0) for _, value in measures._slots.values())
        assert held <= 8 * 4001
        for key, _ in measures._slots.values():
            assert all(callable(part) or isinstance(part, (int, float)) for part in key)
    assert set(measures._slots) == {"sin", "O_z", "O_x"}
