"""Protocol construction: boundary conditions, controls, families."""

import numpy as np
import pytest

from conftest import tls_fidelity
from invariant_control import algebra
from invariant_control.constants import MASS_100_CA40, TWO_PI
from invariant_control.errors import NonPositiveRho, NoRoot
from invariant_control.polynomial import BoundaryPolynomial
from invariant_control.protocols import (
    BSpec,
    DEFAULT_STEEP_CHAIN,
    HoProtocol,
    ProtocolFamily,
    SmoothstepChain,
    constrain_g_phase,
    make_constant_mu_protocol,
    make_ho_protocol,
    make_tls_dual_protocol,
    make_tls_protocol,
    make_tls_steep_protocol,
)

DELTA0 = TWO_PI * 10e3
T_F = 0.5e-3


# ---------------------------------------------------------------------------
# two-level protocols


def test_tls_boundary_conditions():
    proto = make_tls_protocol(DELTA0, T_F)
    ts = np.array([0.0, T_F])
    g, b = proto.g_poly(ts), proto.b_poly(ts)
    np.testing.assert_allclose(g, [np.pi, 0.0], atol=1e-9)
    np.testing.assert_allclose(b, [np.pi / 2, np.pi / 2], atol=1e-9)
    assert abs(proto.g_poly(0.0, 1)) < 1e-9 / T_F
    assert abs(proto.g_poly(T_F, 1)) < 1e-9 / T_F


def test_tls_controls_regular_and_zero_at_edges():
    proto = make_tls_protocol(DELTA0, T_F)
    ts = np.linspace(0.0, T_F, 101)
    delta, omega = proto.controls(ts)
    assert np.all(np.isfinite(delta)) and np.all(np.isfinite(omega))
    assert abs(delta[0]) < 1e-9 and abs(delta[-1]) < 1e-9
    assert abs(omega[0]) < 1e-9 and abs(omega[-1]) < 1e-9


def test_tls_invariant_equation_on_interior_grid():
    rng = np.random.default_rng(17)
    for g_extra in ((), tuple(rng.uniform(-1.0, 1.0, 2))):
        proto = make_tls_protocol(DELTA0, T_F, g_extra)
        h_step = 1e-7 * T_F
        for t in np.linspace(0.1 * T_F, 0.9 * T_F, 17):
            h = proto.hamiltonian(t)
            di_dt = (proto.invariant(t + h_step) - proto.invariant(t - h_step)) / (
                2.0 * h_step
            )
            comm = -1j * (h @ proto.invariant(t) - proto.invariant(t) @ h)
            scale = np.max(np.abs(di_dt)) + DELTA0
            np.testing.assert_allclose(di_dt, comm, atol=1e-5 * scale)


def test_boundary_detuning_spec_hits_target_at_edges():
    # G touches the poles quadratically, so the removable limit gives
    # Delta(t_b) = -3 Bdot(t_b); interior pins hold B near pi/2
    b_spec = BSpec(b0_dot=-DELTA0 / 3.0, bf_dot=DELTA0 / 3.0, pins=(0.25, 0.5, 0.75))
    proto = make_tls_protocol(DELTA0, T_F, b_spec=b_spec)
    delta, _ = proto.controls(np.array([0.0, T_F]))
    assert delta[0] == pytest.approx(DELTA0, rel=1e-3)
    assert delta[-1] == pytest.approx(-DELTA0, rel=1e-3)
    # interior pins keep the azimuth close to pi/2 so sin(B) stays bounded
    ts = np.linspace(0.0, T_F, 501)
    assert np.min(np.sin(proto.b_poly(ts))) > 0.9


def test_smoothstep_chain_edges_and_derivatives():
    chain = SmoothstepChain(DEFAULT_STEEP_CHAIN, 1.0)
    assert chain(0.0) == 0.0 and chain(1.0) == 1.0
    assert chain(0.0, 1) == 0.0 and chain(1.0, 1) == 0.0
    us = np.linspace(0.2, 0.8, 31)
    h = 1e-5
    fd1 = (chain(us + h) - chain(us - h)) / (2.0 * h)
    fd2 = (chain(us + h) - 2.0 * chain(us) + chain(us - h)) / h**2
    np.testing.assert_allclose(chain(us, 1), fd1, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(
        chain(us, 2), fd2, rtol=1e-3, atol=1e-3 * np.max(np.abs(fd2))
    )
    # monotone on [0, 1] up to roundoff in the flat tails
    vals = chain(np.linspace(0.0, 1.0, 401))
    assert np.all(np.diff(vals) >= -1e-12)


def test_smoothstep_chain_center_slope():
    # single cubic step slope at the midpoint is 140/64; composition multiplies
    chain = SmoothstepChain((3, 3, 3), 1.0)
    assert chain(0.5, 1) == pytest.approx((140.0 / 64.0) ** 3, rel=1e-12)


def test_windowed_chain_flat_outside_window():
    chain = SmoothstepChain((3, 3), 1.0, window=(0.4, 0.6))
    ts = np.array([0.0, 0.1, 0.39, 0.61, 0.9, 1.0])
    np.testing.assert_array_equal(chain(ts[:3]), 0.0)
    np.testing.assert_array_equal(chain(ts[3:]), 1.0)
    np.testing.assert_array_equal(chain(ts, 1), 0.0)


def test_steep_blend_endpoints_and_midpoint():
    for g4 in (0.0, 0.5, 1.0):
        proto = make_tls_steep_protocol(DELTA0, T_F, g4)
        g = proto.g_poly(np.array([0.0, 0.5 * T_F, T_F]))
        np.testing.assert_allclose(g, [np.pi, np.pi / 2, 0.0], atol=1e-12)


def test_dual_family_reduces_to_steep_blend_without_plateau():
    # for shape >= 0 the azimuth dip is disabled and the polar path matches
    # the single-channel steep blend at g4 = shape
    ts = np.linspace(0.0, T_F, 301)
    for shape in (0.0, 0.4, 1.0):
        dual = make_tls_dual_protocol(DELTA0, T_F, shape, 0.7)
        single = make_tls_steep_protocol(DELTA0, T_F, shape)
        np.testing.assert_allclose(dual.g_poly(ts), single.g_poly(ts), atol=1e-14)
        np.testing.assert_allclose(dual.b_poly(ts), np.pi / 2, atol=1e-14)
        # B is exactly flat on the equator, so the detuning is exactly 0
        assert not np.any(dual.controls(ts)[0])


def test_dual_family_plateau_and_dip():
    proto = make_tls_dual_protocol(DELTA0, T_F, -1.0, 1.0)
    g, b = proto.g_poly(np.array([0.5 * T_F])), proto.b_poly(np.array([0.5 * T_F]))
    assert g[0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert b[0] == pytest.approx(np.pi / 2 - 0.95 * np.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        make_tls_dual_protocol(DELTA0, T_F, 1.5, 0.0)
    with pytest.raises(ValueError):
        make_tls_dual_protocol(DELTA0, T_F, 0.0, -0.1)


def test_tls_controls_go_through_the_algebra_formula(monkeypatch):
    # the one SU(2) control formula, looked up at call time
    calls = []
    formula = algebra.su2_controls_from_angles

    def counting(*args):
        calls.append(len(args[0]))
        return formula(*args)

    monkeypatch.setattr(algebra, "su2_controls_from_angles", counting)
    proto = make_tls_dual_protocol(DELTA0, T_F, -0.5, 0.5)
    delta, omega = proto.controls(np.linspace(0.0, T_F, 101))
    assert calls and calls[0] == 101
    assert np.all(np.isfinite(delta)) and np.all(np.isfinite(omega))


def test_dual_plateau_protocol_inverts_without_noise():
    # the polar angle only moves inside two narrow windows; the integrator
    # must not step across them even though H = 0 on the long plateau
    proto = make_tls_dual_protocol(DELTA0, T_F, -1.0, 0.5)
    assert tls_fidelity(proto) > 1.0 - 1e-6


# ---------------------------------------------------------------------------
# harmonic-oscillator protocols


@pytest.mark.parametrize("form", ["inverse_sqrt_poly", "sqrt_poly"])
def test_ho_boundary_conditions(form):
    omega0 = TWO_PI * 2.53e6
    omega_f = omega0 / 100.0
    t_f = 10e-6
    proto = make_ho_protocol(omega0, omega_f, t_f=t_f, form=form)
    assert proto.rho(0.0) == pytest.approx(1.0, abs=1e-12)
    assert proto.rho(t_f) == pytest.approx(np.sqrt(omega0 / omega_f), rel=1e-12)
    rho_f = np.sqrt(omega0 / omega_f)
    for order in (1, 2):
        # compare against the natural derivative scale rho / t_f^order
        assert abs(proto.rho(0.0, order)) < 1e-9 / t_f**order
        assert abs(proto.rho(t_f, order)) < 1e-9 * rho_f / t_f**order
    assert proto.omega_sq(0.0) == pytest.approx(omega0**2, rel=1e-9)
    assert proto.omega_sq(t_f) == pytest.approx(omega_f**2, rel=1e-9)


def test_ho_ermakov_residual_small():
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    ts = np.linspace(0.0, proto.t_f, 501)
    res = proto.ermakov_residual(ts)
    scale = np.max(np.abs(omega0**2 / proto.rho(ts) ** 3))
    assert np.max(np.abs(res)) < 1e-9 * scale


def test_ho_omega_sq_dot_matches_finite_difference():
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    ts = np.linspace(0.1 * proto.t_f, 0.9 * proto.t_f, 31)
    h = 1e-7 * proto.t_f
    fd = (proto.omega_sq(ts + h) - proto.omega_sq(ts - h)) / (2.0 * h)
    np.testing.assert_allclose(proto.omega_sq_dot(ts), fd, rtol=1e-5, atol=1e-4 * np.max(np.abs(fd)))


def test_ho_rho_crossing_zero_raises():
    omega0 = TWO_PI * 2.53e6
    with pytest.raises(NonPositiveRho):
        make_ho_protocol(
            omega0, omega0 / 100.0, t_f=5e-6, form="inverse_sqrt_poly",
            r_extra=(500.0, 0.0),
        )


def test_ho_rho_dip_between_samples_raises():
    # P(s) = (s - a)(s - b) with both roots between the samples s = 0.3 and
    # 0.3005 of the default 2001-point grid: positive on every sample, but
    # negative on (a, b); lifting it by 1e-6 clears the dip
    omega0 = TWO_PI * 2.53e6
    t_f = 5e-6
    a, b = 0.30011, 0.30039
    dip = BoundaryPolynomial(np.array([a * b, -(a + b), 1.0]), t_f)
    lifted = BoundaryPolynomial(dip.coefficients + [1e-6, 0.0, 0.0], t_f)
    assert np.all(dip(np.linspace(0.0, t_f, 2001)) > 0)
    trap = dict(form="sqrt_poly", omega0=omega0, omega_f=omega0 / 100.0,
                mass=MASS_100_CA40, t_f=t_f)
    HoProtocol(inner=lifted, **trap)
    with pytest.raises(NonPositiveRho):
        HoProtocol(inner=dip, **trap)


def test_heisenberg_coeffs_symplectic():
    # the classical flow (fq, fp; gq, gp) must preserve the Poisson bracket
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=20e-6)
    ts = np.linspace(0.0, proto.t_f, 101)
    fq, fp, gq, gp = proto.heisenberg_coeffs(ts)
    np.testing.assert_allclose(fq * gp - fp * gq, 1.0, rtol=1e-7)


def test_constrain_g_phase_hits_target():
    omega0 = TWO_PI * 15.92e6
    g_target = 50.5e-6
    for r6 in (-15.0, 0.0, 4.0):
        proto = constrain_g_phase(omega0, omega0 / 100.0, g_target, r6=r6)
        assert proto.g_phase == pytest.approx(g_target, rel=1e-6)


def test_constrain_g_phase_solution_affine_in_r6():
    # with the phase fixed, the last coefficient responds linearly to r6
    omega0 = TWO_PI * 15.92e6
    g_target = 50.5e-6
    r7s = [
        constrain_g_phase(omega0, omega0 / 100.0, g_target, r6=r6).inner.free_values[1]
        for r6 in (-10.0, 0.0, 10.0)
    ]
    assert r7s[0] + r7s[2] == pytest.approx(2.0 * r7s[1], abs=1e-9)


def test_constrain_g_phase_infeasible_target():
    omega0 = TWO_PI * 15.92e6
    with pytest.raises((NoRoot, NonPositiveRho)):
        # a negative phase integral needs a sign-changing polynomial
        constrain_g_phase(omega0, omega0 / 100.0, -10e-6, t_f=100e-6)


def test_constrain_g_phase_sqrt_poly_form():
    omega0 = TWO_PI * 2.53e6
    t_f = 10e-6
    base = make_ho_protocol(omega0, omega0 / 100.0, t_f=t_f, form="sqrt_poly",
                            r_extra=(0.0, 0.0))
    g_target = 1.05 * base.g_phase
    proto = constrain_g_phase(
        omega0, omega0 / 100.0, g_target, t_f=t_f, form="sqrt_poly"
    )
    assert proto.g_phase == pytest.approx(g_target, rel=1e-6)


def test_constant_mu_protocol():
    omega0, omega_f, t_f = TWO_PI * 2.53e6, TWO_PI * 2.53e4, 10e-6
    ref = make_constant_mu_protocol(omega0, omega_f, t_f)
    assert ref.omega(0.0) == pytest.approx(omega0, rel=1e-12)
    assert ref.omega(t_f) == pytest.approx(omega_f, rel=1e-12)
    ts = np.linspace(0.1 * t_f, 0.9 * t_f, 21)
    h = 1e-7 * t_f
    fd = (ref.omega_sq(ts + h) - ref.omega_sq(ts - h)) / (2.0 * h)
    np.testing.assert_allclose(ref.omega_sq_dot(ts), fd, rtol=1e-5)
    with pytest.raises(ValueError):
        make_constant_mu_protocol(omega0, omega_f, 0.0)


# ---------------------------------------------------------------------------
# protocol families


def test_protocol_family_builds_every_kind():
    families = [
        ProtocolFamily("tls_steep_blend", {"delta0": DELTA0}, T_F, (0.8,)),
        ProtocolFamily("tls_dual", {"delta0": DELTA0}, T_F, (-0.5, 0.3)),
        ProtocolFamily(
            "ho_coherent",
            {"omega0": TWO_PI * 15.92e6, "omega_f": TWO_PI * 15.92e4,
             "mass": MASS_100_CA40},
            100e-6,
            (1.0, -0.5),
        ),
        ProtocolFamily(
            "ho_thermal",
            {"omega0": TWO_PI * 2.53e6, "omega_f": TWO_PI * 2.53e4},
            10e-6,
            (5.0,),
        ),
        ProtocolFamily(
            "ho_constant_mu",
            {"omega0": TWO_PI * 2.53e6, "omega_f": TWO_PI * 2.53e4},
            10e-6,
        ),
    ]
    for fam in families:
        assert fam.build() is not None


def test_protocol_family_unknown_kind():
    with pytest.raises(ValueError):
        ProtocolFamily("unknown", {}, 1.0)


def test_protocol_family_with_free():
    fam = ProtocolFamily("tls_steep_blend", {"delta0": DELTA0}, T_F, (0.0,))
    assert fam.with_free((0.7,)).free == (0.7,)


def test_protocol_family_with_g_target_solves_the_phase_constraint():
    params = {"omega0": TWO_PI * 15.92e6, "omega_f": TWO_PI * 15.92e4,
              "mass": MASS_100_CA40, "g_target": 50.5e-6}
    fam = ProtocolFamily("ho_coherent", params, 100e-6, (-10.0,))
    proto = fam.build()
    direct = constrain_g_phase(params["omega0"], params["omega_f"], 50.5e-6, r6=-10.0)
    assert proto.inner.free_values == direct.inner.free_values
    assert proto.g_phase == pytest.approx(50.5e-6, rel=1e-6)
    with pytest.raises(ValueError):
        fam.with_free((-10.0, 1.0)).build()  # r7 is solved, not free
