"""SU(2) and Ermakov inverse-engineering building blocks."""

import numpy as np
import pytest

from invariant_control import algebra
from invariant_control.errors import NonPositiveRho, SingularControl
from invariant_control.protocols import BSpec, make_tls_protocol


def test_invariant_matrix_spectrum_and_hermiticity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g, b = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
        omega_r = rng.uniform(0.5, 3.0)
        inv = algebra.su2_invariant_matrix(g, b, omega_r)
        np.testing.assert_allclose(inv, inv.conj().T, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(inv), [-omega_r, omega_r], atol=1e-12
        )


def test_invariant_equation_holds_for_synthesized_controls():
    # dI/dt = -i [H, I] with H built from the synthesized controls
    ts = np.linspace(0.15, 0.85, 29)
    h_step = 1e-7

    def g_of(t):
        return 0.5 + 0.8 * np.sin(np.pi * t) ** 2

    def b_of(t):
        return np.pi / 2 + 0.25 * np.sin(2.0 * np.pi * t)

    for t in ts:
        g, b = g_of(t), b_of(t)
        g_dot = (g_of(t + h_step) - g_of(t - h_step)) / (2.0 * h_step)
        b_dot = (b_of(t + h_step) - b_of(t - h_step)) / (2.0 * h_step)
        delta, omega, _ = algebra.su2_controls_from_angles(g, g_dot, b, b_dot)
        h = 0.5 * delta * algebra.PAULI_Z + 0.5 * omega * algebra.PAULI_X
        inv_p = algebra.su2_invariant_matrix(g_of(t + h_step), b_of(t + h_step), 1.0)
        inv_m = algebra.su2_invariant_matrix(g_of(t - h_step), b_of(t - h_step), 1.0)
        inv = algebra.su2_invariant_matrix(g, b, 1.0)
        di_dt = (inv_p - inv_m) / (2.0 * h_step)
        comm = -1j * (h @ inv - inv @ h)
        np.testing.assert_allclose(di_dt, comm, rtol=0, atol=5e-6)


def test_singular_controls_raise():
    # one tolerance, 1e-9, on sin(B) and on sin(G) sin(B); Gdot = 1 throughout
    for g, b in ((0.5, 0.0), (0.0, np.pi / 4), (np.pi / 2, 0.5e-9), (0.5e-9, np.pi / 4)):
        with pytest.raises(SingularControl):
            algebra.su2_controls_from_angles(g, 1.0, b, 0.0)
    for g, b in ((np.pi / 2, 2e-9), (2e-9, np.pi / 4)):
        _, omega, removable = algebra.su2_controls_from_angles(g, 1.0, b, 0.0)
        assert np.isfinite(omega) and not removable
    # 0/0 with Gdot = 0 is removable, not singular
    assert algebra.su2_controls_from_angles(0.0, 0.0, np.pi / 4, 0.0)[2]
    # the protocol raises through the same formula: B held at 0 while G moves
    proto = make_tls_protocol(0.5e-3, b_spec=BSpec(b0=0.0, bf=0.0))
    with pytest.raises(SingularControl):
        proto.controls(np.linspace(0.0, 0.5e-3, 11))


def test_omega_sq_from_rho():
    assert algebra.omega_sq_from_rho(1.0, 0.0, 2.0) == pytest.approx(4.0)
    # static solution rho = (omega0/omega)^(1/2) gives omega^2 back
    omega0, omega = 3.0, 1.5
    rho = np.sqrt(omega0 / omega)
    assert algebra.omega_sq_from_rho(rho, 0.0, omega0) == pytest.approx(omega**2)
    with pytest.raises(NonPositiveRho):
        algebra.omega_sq_from_rho(-1.0, 0.0, 1.0)


def test_omega_sq_from_rho_on_floats():
    # floats take Python arithmetic: a float out, the array route's value to
    # within its powers' roundings (Python's ** and numpy's power may differ
    # in the last bit of rho^4); a power that underflows to a zero divisor
    # takes the array route, to inf with numpy's warning
    rng = np.random.default_rng(5)
    omega0 = 2.0e8
    for rho, rho_ddot in zip(rng.uniform(0.05, 20.0, 2000), rng.normal(0.0, 1e16, 2000)):
        got = algebra.omega_sq_from_rho(float(rho), float(rho_ddot), omega0)
        want = algebra.omega_sq_from_rho(np.asarray(rho), np.asarray(rho_ddot), omega0)
        assert type(got) is float
        scale = omega0**2 / rho**4 + abs(rho_ddot / rho)
        assert abs(got - want) <= 4.0 * np.finfo(float).eps * scale
    for bad in (0.0, -2.5):
        with pytest.raises(NonPositiveRho):
            algebra.omega_sq_from_rho(bad, 0.0, 1.0)
    with pytest.warns(RuntimeWarning):
        assert algebra.omega_sq_from_rho(1e-100, 0.0, 1.0) == np.inf
