"""Noise-sensitivity measures and their closed forms."""

import numpy as np
import pytest

from invariant_control import algebra, measures
from invariant_control.constants import TWO_PI
from invariant_control.errors import AllZeroStrengths, DegenerateSpectrum
from invariant_control.protocols import make_tls_protocol

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
