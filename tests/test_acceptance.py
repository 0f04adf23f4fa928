"""End-to-end acceptance checks.

Each test pins one shipped guarantee of the package: noiseless exactness of
the synthesized protocols, closed-form limits of the sensitivity measures,
independent oracles for the dissipative integrators, trend reproduction of
the four figure-level experiments, and the analytic extremes of the
two-channel overlap landscape. Tests that run a full experiment also assert
a wall-clock budget.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from invariant_control import algebra, dynamics, measures, protocols, states
from invariant_control.cli import ExperimentConfig, run_scan
from invariant_control.constants import MASS_100_CA40, TWO_PI
from invariant_control.dynamics import NoiseChannel, tls_fidelity
from invariant_control.errors import NonPositiveRho

import oracles

O_MAX = measures.O_MAX_TWO_LEVEL


# ---------------------------------------------------------------------------
# 1. noiseless exactness


def test_noiseless_tls_inversion_is_exact():
    t_f = 0.5e-3
    proto = protocols.make_tls_protocol(t_f)
    # Bloch-frame Magnus route and the dense master equation
    _, rhos = dynamics.integrate_master(
        np.diag([1.0, 0.0]).astype(complex), oracles.tls_hamiltonian(proto), [], [0.0, t_f],
        max_step=t_f / 100,
    )
    for fidelity in (tls_fidelity(proto), rhos[-1][1, 1].real):
        assert fidelity > 1.0 - 1e-6


def test_noiseless_coherent_expansion_is_exact():
    omega0 = TWO_PI * 15.92e6
    omega_f = omega0 / 100.0
    t_f = 20e-6
    mass = MASS_100_CA40
    alpha = 1.0 + 1.0j
    proto = protocols.make_ho_protocol(omega0, omega_f, mass, t_f)
    init = states.coherent_state(alpha, omega0, mass, "gaussian")
    channel = NoiseChannel("q", 0.0)
    _, ys = dynamics.integrate_moments(
        proto.omega_sq, init.raw(), channel, t_f, mass, t_eval=[0.0, t_f],
    )
    exact = dynamics.exact_q_moments(proto, init.raw(), channel)
    target = states.target_coherent(alpha, proto.g_phase, omega0, omega_f, mass)
    # moment ODE and invariant-frame closed form
    for moments in (ys[-1], exact):
        final = states.GaussianMoments.from_raw(*moments)
        assert states.gaussian_fidelity(final, target.gaussian()) > 1.0 - 1e-6


def test_noiseless_thermal_expansion_is_exact():
    omega0 = TWO_PI * 2.53e6
    omega_f = omega0 / 100.0
    t_f = 5e-6
    mass = MASS_100_CA40
    n_bar = 12.58
    init = states.thermal_state(n_bar, omega0, mass)
    channel = NoiseChannel("q_squared", 0.0)
    target = states.thermal_state(n_bar, omega_f, mass)
    fidelity = {}
    for name, proto in (
        ("sta", protocols.make_ho_protocol(omega0, omega_f, mass, t_f, "sqrt_poly")),
        ("constant_mu", protocols.make_constant_mu_protocol(omega0, omega_f, t_f, mass)),
    ):
        _, ys = dynamics.integrate_moments(
            proto.omega_sq, init.raw(), channel, t_f, mass, t_eval=[0.0, t_f],
        )
        _, flow = dynamics.magnus_q2_moments(proto, init.raw(), channel)
        fidelity[name] = [states.gaussian_fidelity(states.GaussianMoments.from_raw(*m), target)
                          for m in (ys[-1], flow[-1])]
    # moment ODE and closed-form flow: the invariant-based protocol is exact
    assert min(fidelity["sta"]) > 1.0 - 1e-6
    # the constant-mu ramp is no shortcut; its Euler-Cauchy flow agrees with
    # the ODE (measured: 3.2e-12 in F)
    f_ode, f_flow = fidelity["constant_mu"]
    assert f_ode < 0.99
    assert abs(f_flow - f_ode) <= 1e-10


# ---------------------------------------------------------------------------
# 2. closed-form limits of the measures


def test_measure_closed_form_limits():
    t_f = 1.0
    # G pinned on the equator: maximal overlap with the sigma_z eigenbasis
    o_z = measures.closed_form_O_z(lambda t: np.pi / 2 + 0.0 * t, t_f)
    assert o_z == pytest.approx(O_MAX, abs=1e-9)
    # G pinned at either pole: maximal overlap with the sigma_x eigenbasis,
    # for any azimuth path
    for g0 in (0.0, np.pi):
        o_x = measures.closed_form_O_x(
            lambda t: g0 + 0.0 * t, lambda t: 0.3 + 0.4 * t, t_f
        )
        assert o_x == pytest.approx(O_MAX, abs=1e-9)
    # anticommuting pair saturates A = 1; a commuting pair gives A = 0
    x_path = lambda t: np.asarray(algebra.PAULI_X)
    z_path = lambda t: np.asarray(algebra.PAULI_Z)
    assert measures.measure_A(x_path, algebra.PAULI_Z, t_f) == pytest.approx(
        1.0, abs=1e-9
    )
    assert measures.measure_A(z_path, algebra.PAULI_Z, t_f) == pytest.approx(
        0.0, abs=1e-9
    )


# ---------------------------------------------------------------------------
# 3. common-eigenbasis dissipation rates


def test_common_eigenbasis_rates_match_superoperator():
    rng = np.random.default_rng(31)
    d, eta = 4, 0.7
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    _, vecs = np.linalg.eigh(h + h.conj().T)
    x_vals = rng.normal(size=d)
    x = (vecs * x_vals) @ vecs.conj().T

    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    rho_basis = vecs.conj().T @ rho @ vecs

    elems = oracles.dissipative_matrix_elements(rho_basis, vecs, x, eta)
    # diagonal rates vanish, off-diagonals decay at -eta (x_l - x_k)^2
    np.testing.assert_allclose(np.diag(elems), 0.0, atol=1e-12)
    for l in range(d):
        for k in range(d):
            if l == k:
                continue
            rate = -eta * (x_vals[l] - x_vals[k]) ** 2
            assert elems[l, k] == pytest.approx(rate * rho_basis[l, k], abs=1e-12)

    # and the same elements come out of the direct superoperator
    sup = oracles.dissipator_superoperator(x, eta)
    l_rho = (sup @ rho.flatten(order="F")).reshape((d, d), order="F")
    np.testing.assert_allclose(
        elems, vecs.conj().T @ l_rho @ vecs, atol=1e-12
    )


# ---------------------------------------------------------------------------
# 4. analytic dephasing decay


def test_free_dephasing_matches_analytic_decay():
    eta = 100.0
    checkpoints = np.array([0.1, 0.5, 1.0]) / eta
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    _, rhos = dynamics.integrate_master(
        rho0,
        lambda t: np.zeros((2, 2), dtype=complex),
        [NoiseChannel("sigma_z", eta)],
        checkpoints,
        rtol=1e-11,
        atol=1e-14,
    )
    for t, rho in zip(checkpoints, rhos):
        expected = 0.5 * np.exp(-4.0 * eta * t)
        assert rho[0, 1].real == pytest.approx(expected, rel=1e-7)
        assert abs(rho[0, 1].imag) < 1e-12


# ---------------------------------------------------------------------------
# 5. single-channel scan: measure ranks fidelity


def test_single_channel_scan_measure_ranks_fidelity(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(experiment="tls_single", out_dir=str(tmp_path))
    rows, _ = run_scan(config)
    assert len(rows) == 41
    o_z = [r[1] for r in rows]
    fid = [r[3] for r in rows]
    corr = spearmanr(o_z, fid).statistic
    assert corr <= -0.95
    assert max(fid) > 0.99
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. two-channel scan: optimum sits at the weighted-measure bound


def _neighbor_gap(rows, index, n_shape, n_dip):
    """Largest weighted-measure jump from a grid cell to its neighbors."""
    si, di = divmod(index, n_dip)
    gap = 0.0
    for sj, dj in ((si - 1, di), (si + 1, di), (si, di - 1), (si, di + 1)):
        if 0 <= sj < n_shape and 0 <= dj < n_dip:
            gap = max(gap, abs(rows[sj * n_dip + dj][4] - rows[index][4]))
    return gap


def test_dual_channel_optimum_attains_weighted_bound(tmp_path):
    start = time.monotonic()
    n_shape, n_dip = 9, 5
    for eta_z, eta_x in ((125.0, 62.5), (62.5, 125.0), (125.0, 125.0)):
        config = ExperimentConfig(
            experiment="tls_dual",
            channels=[
                {"operator_tag": "sigma_z", "eta": eta_z},
                {"operator_tag": "sigma_x", "eta": eta_x},
            ],
            out_dir=str(tmp_path),
            basename=f"dual_{eta_z:g}_{eta_x:g}",
        )
        rows, _ = run_scan(config)
        assert len(rows) == n_shape * n_dip
        best = int(np.argmax([r[5] for r in rows]))
        theory = O_MAX * min(eta_z, eta_x) / (eta_z + eta_x)
        gap = _neighbor_gap(rows, best, n_shape, n_dip)
        assert abs(rows[best][4] - theory) <= gap
    assert time.monotonic() - start < 180.0


# ---------------------------------------------------------------------------
# 7. boundary and Ermakov residuals over random protocols


def test_random_tls_protocols_meet_boundary_conditions():
    rng = np.random.default_rng(71)
    for _ in range(100):
        t_f = rng.uniform(1e-4, 5e-3)
        proto = protocols.make_tls_protocol(t_f, g_extra=rng.uniform(-0.5, 0.5, size=2))
        assert abs(proto.g_poly(0.0) - np.pi) <= 1e-9 * np.pi
        assert abs(proto.g_poly(t_f)) <= 1e-9 * np.pi
        # flat edges: the polar angle starts and ends at rest
        scale = 1e-9 * np.pi / t_f
        assert abs(proto.g_poly(0.0, 1)) <= scale
        assert abs(proto.g_poly(t_f, 1)) <= scale
        for b_edge in (proto.b_poly(0.0), proto.b_poly(t_f)):
            assert abs(b_edge - np.pi / 2) <= 1e-9 * np.pi


@pytest.mark.parametrize("form", ["inverse_sqrt_poly", "sqrt_poly"])
def test_random_ho_protocols_meet_boundary_and_ermakov(form):
    rng = np.random.default_rng(73 if form == "sqrt_poly" else 79)
    count = 0
    while count < 100:
        omega0 = TWO_PI * rng.uniform(1e6, 2e7)
        omega_f = omega0 / rng.uniform(5.0, 100.0)
        t_f = rng.uniform(2e-6, 5e-5)
        n_extra = int(rng.integers(0, 3))
        try:
            proto = protocols.make_ho_protocol(
                omega0, omega_f, MASS_100_CA40, t_f, form,
                rng.uniform(-5.0, 5.0, size=n_extra),
            )
        except NonPositiveRho:
            continue
        count += 1

        rho_f = np.sqrt(omega0 / omega_f)
        assert abs(proto.rho(0.0) - 1.0) <= 1e-9
        assert abs(proto.rho(t_f) - rho_f) <= 1e-9 * rho_f
        for order in (1, 2):
            scale = 1e-9 * rho_f / t_f**order
            assert abs(proto.rho(0.0, order)) <= scale
            assert abs(proto.rho(t_f, order)) <= scale

        ts = np.linspace(0.0, t_f, 301)
        res = oracles.ermakov_residual(proto, ts)
        scale = (
            omega0**2 / proto.rho(ts) ** 3
            + np.abs(proto.omega_sq(ts) * proto.rho(ts))
            + np.abs(proto.rho(ts, 2))
        )
        assert np.max(np.abs(res) / scale) < 1e-9


# ---------------------------------------------------------------------------
# 8. overlap integrals: path ratio independent of the mode index


def test_ho_overlap_ratio_is_mode_independent():
    rng = np.random.default_rng(83)
    mass, omega0, t_f = MASS_100_CA40, TWO_PI * 2.53e6, 1.0

    def random_path(coeffs):
        def path(t, c=np.asarray(coeffs)):
            out = np.ones_like(np.asarray(t, dtype=float))
            for k, a in enumerate(c, start=1):
                out = out + a * np.sin(k * np.pi * t / t_f) ** 2
            return out

        return path

    reference = random_path([0.4, -0.1, 0.2])
    for _ in range(10):
        path = random_path(rng.uniform(-0.25, 0.25, size=3))
        ratios = [
            measures.ho_overlap_Sn(path, n, mass, omega0, t_f)
            / measures.ho_overlap_Sn(reference, n, mass, omega0, t_f)
            for n in range(4)
        ]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-8)


# ---------------------------------------------------------------------------
# 9. truncated-Fock integrator against the closed moment equations


def test_fock_and_moment_integrators_agree(tmp_path):
    start = time.monotonic()
    omega0 = TWO_PI * 15.92e6
    omega_f = omega0 / 100.0
    t_f = 20e-6
    mass = MASS_100_CA40
    alpha = 1.0 + 1.0j
    channel = NoiseChannel("q", 10.0)
    proto = protocols.make_ho_protocol(omega0, omega_f, mass, t_f)

    def builder(d):
        return states.coherent_state(alpha, omega0, mass, "fock", d)

    small = dynamics.integrate_ho_master(
        proto, builder, channel, t_eval=[0.0, t_f], dim=40
    )
    large = dynamics.integrate_ho_master(
        proto, builder, channel, t_eval=[0.0, t_f], dim=80
    )
    m_small = oracles.fock_moments(small)[-1]
    m_large = oracles.fock_moments(large)[-1]

    init = states.coherent_state(alpha, omega0, mass, "gaussian")
    _, ys = dynamics.integrate_moments(
        proto.omega_sq, init.raw(), channel, t_f, mass, t_eval=[0.0, t_f]
    )
    # two Gaussian routes: moment ODE and invariant-frame closed form
    gaussian_routes = (ys[-1], dynamics.exact_q_moments(proto, init.raw(), channel))

    # per-component scales from the position/momentum spreads, so the
    # relative comparison stays meaningful if a mean passes through zero
    sq, sp = np.sqrt(m_large[2]), np.sqrt(m_large[3])
    floor = np.array([sq, sp, sq * sq, sp * sp, sq * sp])
    denom = np.maximum(np.abs(m_large), 1e-3 * floor)
    assert np.max(np.abs(m_large - m_small) / denom) < 1e-6

    target = states.target_coherent(alpha, proto.g_phase, omega0, omega_f, mass)
    f_fock = states.uhlmann_fidelity(large.final_rho, target.frame_fock(80))
    assert 0.0 < f_fock <= 1.0
    for m_gauss in gaussian_routes:
        assert np.max(np.abs(m_gauss - m_large) / denom) < 1e-4
        f_gauss = states.gaussian_fidelity(
            states.GaussianMoments.from_raw(*m_gauss), target.gaussian()
        )
        assert abs(f_gauss - f_fock) < 1e-3
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# 10. improved thermal expansion never falls below the standard one


def test_improved_thermal_protocol_dominates_standard(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(experiment="ho_thermal", out_dir=str(tmp_path))
    rows, _ = run_scan(config)
    by_protocol = {}
    for t_f, name, _, fid, _ in rows:
        by_protocol.setdefault(name, {})[t_f] = fid
    standard = by_protocol["standard_sta"]
    improved = by_protocol["improved_sta"]
    assert len(standard) == len(improved) == 10
    for t_f in standard:
        assert improved[t_f] >= standard[t_f]
    assert time.monotonic() - start < 180.0


# ---------------------------------------------------------------------------
# 11. coherent expansion scan: S0 ranks fidelity


def test_coherent_scan_S0_ranks_fidelity(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(experiment="ho_coherent", out_dir=str(tmp_path))
    rows, _, _ = run_scan(config)
    assert len(rows) == 9
    s0 = [r[1] for r in rows]
    fid = [r[3] for r in rows]
    assert spearmanr(s0, fid).statistic <= -0.9
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 12. two-channel overlap landscape extremes


def test_landscape_extremes_match_closed_forms():
    for p in (0.0, 0.25, 0.5, 1.0):
        out = measures.two_channel_landscape(p)
        expected_min = (
            2.0 * np.sqrt(2.0) * min(p, 1.0 - p) + 2.0 * max(p, 1.0 - p)
        )
        assert out["minimum"] == pytest.approx(expected_min, abs=1e-3)
        assert out["maximum"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        # the basis halfway between the two noise axes sits on the grid
        # and attains the maximum for every weight
        i_theta = np.argmin(np.abs(out["theta"] - np.pi / 2))
        i_phi = np.argmin(np.abs(out["phi"] - np.pi / 2))
        assert out["surface"][i_theta, i_phi] == pytest.approx(
            out["maximum"], abs=1e-12
        )
