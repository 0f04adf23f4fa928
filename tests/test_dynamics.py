"""Master-equation integrators and dissipator diagnostics."""

import numpy as np
import pytest

from invariant_control import algebra, dynamics, measures, states
from invariant_control.constants import MASS_100_CA40, TWO_PI
from invariant_control.errors import DimensionMismatch, StepSizeUnderflow, UnsupportedChannel
from invariant_control.protocols import (
    ProtocolFamily,
    constrain_g_phase,
    make_constant_mu_protocol,
    make_ho_protocol,
    make_tls_protocol,
)


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# right-hand side and dense integrator


def test_noise_channel_validation():
    with pytest.raises(UnsupportedChannel):
        dynamics.NoiseChannel("bogus", 1.0)
    with pytest.raises(ValueError):
        dynamics.NoiseChannel("sigma_z", -1.0)
    np.testing.assert_array_equal(
        dynamics.NoiseChannel("sigma_x", 1.0).matrix(), algebra.PAULI_X
    )
    with pytest.raises(UnsupportedChannel):
        dynamics.NoiseChannel("q", 1.0).matrix()


def test_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = _random_density(rng, 4)
        h = _random_hermitian(rng, 4)
        x = _random_hermitian(rng, 4)
        out = dynamics.lindblad_rhs(rho, h, [(x, 0.7)])
        assert abs(np.trace(out)) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_rhs_unital_fixed_point():
    rng = np.random.default_rng(29)
    d = 3
    rho = np.eye(d, dtype=complex) / d
    out = dynamics.lindblad_rhs(
        rho, np.zeros((d, d)), [(_random_hermitian(rng, d), 1.3)]
    )
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_rhs_dimension_check():
    with pytest.raises(DimensionMismatch):
        dynamics.lindblad_rhs(np.eye(2) / 2, np.eye(3), [])


def test_pure_dephasing_closed_form():
    # H = 0, X = sigma_z: rho_01(t) = rho_01(0) exp(-4 eta t)
    eta = 2.0
    rho0 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    t_f = 1.0
    times, rhos = dynamics.integrate_master(
        rho0,
        lambda t: np.zeros((2, 2)),
        [dynamics.NoiseChannel("sigma_z", eta)],
        np.linspace(0.0, t_f, 11),
        rtol=1e-11,
        atol=1e-14,
    )
    expected = 0.5 * np.exp(-4.0 * eta * times)
    np.testing.assert_allclose(
        np.real([r[0, 1] for r in rhos]), expected, rtol=1e-8
    )
    np.testing.assert_allclose(
        np.real([r[0, 0] for r in rhos]), 0.5, atol=1e-10
    )


def test_rabi_oscillation_closed_form():
    # H = (Omega/2) sigma_x, no noise: population oscillates at Omega
    omega = 3.0
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t_f = 2.0
    times, rhos = dynamics.integrate_master(
        rho0,
        lambda t: 0.5 * omega * algebra.PAULI_X,
        [],
        np.linspace(0.0, t_f, 21),
        rtol=1e-11,
        atol=1e-14,
    )
    p1 = np.real([r[1, 1] for r in rhos])
    np.testing.assert_allclose(p1, np.sin(0.5 * omega * times) ** 2, atol=1e-8)


def test_max_step_resolves_narrow_late_pulse():
    # a pulse confined to the last tenth of the span after a long H = 0
    # stretch: without a step cap the adaptive solver walks straight past it
    t_f = 1.0

    def hamiltonian(t):
        inside = 0.92 < t < 0.98
        amp = np.pi / 0.06 if inside else 0.0
        return 0.5 * amp * np.sin(np.pi * (t - 0.92) / 0.06) ** 2 * algebra.PAULI_X

    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, rhos = dynamics.integrate_master(
        rho0, hamiltonian, [], [0.0, t_f],
        rtol=1e-9, atol=1e-12, max_step=t_f / 100,
    )
    # the pulse area is pi/2 . integral(sin^2) = pi/2 . not identity
    assert rhos[-1][1, 1].real > 0.4


@pytest.mark.parametrize(
    "kind, free, etas",
    [
        ("tls_steep_blend", (1.25,), {"sigma_z": 250.0}),
        ("tls_dual", (1.0, 0.0), {"sigma_z": 125.0, "sigma_x": 62.5}),
        ("tls_dual", (-1.0, 1.0), {"sigma_z": 125.0, "sigma_x": 62.5}),
    ],
)
def test_tls_fidelity_magnus_route_matches_master_equation(kind, free, etas):
    # the steepest fig1 cell and the dual cells with the steepest windows:
    # tls_fidelity's Bloch-frame Magnus route against RK45 on the dense
    # master equation at rtol 1e-11. Measured agreement: |dF| <= 3.4e-10
    t_f = 0.5e-3
    proto = ProtocolFamily(kind, {"delta0": TWO_PI * 10e3}, t_f).with_free(free).build()
    channels = [dynamics.NoiseChannel(tag, eta) for tag, eta in etas.items()]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, rhos = dynamics.integrate_master(
        rho0, proto.hamiltonian, channels, [0.0, t_f],
        rtol=1e-11, atol=1e-14, max_step=t_f / 100,
    )
    assert abs(dynamics.tls_fidelity(proto, channels) - rhos[-1][1, 1].real) <= 1e-9


def _tls_dual_cell():
    proto = ProtocolFamily("tls_dual", {"delta0": TWO_PI * 10e3}, 0.5e-3).with_free(
        (-1.0, 1.0)).build()
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    return lambda: dynamics.tls_fidelity(proto, channels)


def _fig4_q2_run(proto):
    init = states.thermal_state(12.58, proto.omega0, proto.mass, "gaussian").raw()
    return lambda: dynamics.magnus_q2_moments(
        proto, init, dynamics.NoiseChannel("q_squared", 0.0527))


def _fig4_q2_cell():
    omega0 = TWO_PI * 2.53e6
    return _fig4_q2_run(make_ho_protocol(
        omega0, omega0 / 100.0, MASS_100_CA40, 20e-6, "sqrt_poly", (0.0,)))


def _fig4_constant_mu_cell():
    omega0 = TWO_PI * 2.53e6
    return _fig4_q2_run(make_constant_mu_protocol(omega0, omega0 / 100.0, 20e-6, MASS_100_CA40))


@pytest.mark.parametrize("cell, first_grid", [
    (_tls_dual_cell, 2 * dynamics._TLS_MIN_STEPS),
    (_fig4_q2_cell, 2 * dynamics._Q2_INTERVALS),
    (_fig4_constant_mu_cell, 2 * dynamics._Q2_INTERVALS),
], ids=["tls_dual", "fig4_q2", "fig4_constant_mu"])
def test_magnus_propagator_raises_when_the_step_cap_is_reached(monkeypatch, cell, first_grid):
    # the dual cell (-1, 1) does not settle on its first 1024 half steps, nor
    # the fig4 cells at t_f = 20 us (r6 = 0 and constant mu) on their first
    # 800: their steps must be split
    run = cell()
    monkeypatch.setattr(dynamics, "_MAX_HALF_STEPS", first_grid)
    with pytest.raises(StepSizeUnderflow):
        run()


def test_tls_fidelity_rejects_oscillator_channels():
    proto = make_tls_protocol(TWO_PI * 10e3, 0.5e-3)
    for tag in ("q", "q_squared"):
        with pytest.raises(UnsupportedChannel):
            dynamics.tls_fidelity(proto, [dynamics.NoiseChannel(tag, 1.0)])


def _expm3_reference(x):
    """The step exponential as written before it worked in place: the oracle
    of the buffer-swapping kernel."""
    norm = float(np.abs(x).sum(axis=-1).max())
    squarings = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    x = x / 2.0**squarings
    eye = np.eye(3)
    out = eye + x / 12
    for k in range(11, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def _magnus_steps_reference(generator, left, width):
    a = generator(np.concatenate([left + (0.5 - dynamics._GL) * width,
                                  left + (0.5 + dynamics._GL) * width]))
    a1, a2 = a[:len(left)], a[len(left):]
    w = width[:, None, None]
    return _expm3_reference(
        0.5 * w * (a1 + a2) + (np.sqrt(3.0) / 12.0) * w * w * (a2 @ a1 - a1 @ a2))


# batch sizes from one step to 12000 (a (2n, 3, 3) generator batch of 1.7 MB,
# far above 128 kB); scales from no squaring to several squarings
_KERNEL_SIZES = (1, 2, 7, 64, 1000, 5000, 12000)
_KERNEL_SCALES = (0.01, 0.1, 1.0, 5.0, 40.0)


@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_expm3_equals_the_allocating_kernel_bit_for_bit(n):
    assert dynamics._TAYLOR_DEGREE == 12 and dynamics._TAYLOR_NORM == 0.5
    rng = np.random.default_rng(n)
    squarings = set()
    for scale in _KERNEL_SCALES:
        x = scale * rng.normal(size=(n, 3, 3))
        norm = np.abs(x).sum(axis=-1).max()
        squarings.add(int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
        assert np.array_equal(dynamics._expm3(x.copy()), _expm3_reference(x))
    assert 0 in squarings and max(squarings) >= 4


@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_magnus_steps_equal_the_allocating_route_and_leave_the_generator_output(n):
    # generators up to 5 keep the step exponentials finite (the commutator
    # term grows as the square of the scale)
    rng = np.random.default_rng(100 + n)
    for scale in _KERNEL_SCALES[:-1]:
        a = scale * rng.normal(size=(2 * n, 3, 3))
        kept = a.copy()
        left = np.sort(rng.uniform(0.0, 1.0, n))
        width = rng.uniform(0.2, 1.0, n)
        got = dynamics._magnus_steps(lambda t: a, left, width)
        assert np.array_equal(a, kept)
        want = _magnus_steps_reference(lambda t: kept, left, width)
        assert np.isfinite(want).all() and np.array_equal(got, want)
    assert a.nbytes > 128 * 1024 or n < 12000


def _grouped_running_products(count, *runs):
    """The running products as taken before one scan ran over every step:
    start step g holds count[g] steps, a run gives each step as its factors
    in time order, each start step's factors are multiplied left to right,
    and a pairwise scan over the start steps follows. The oracle of
    _running_products at the start-step ends."""
    first = np.cumsum(count) - count
    prod = np.empty((len(runs), len(count), 3, 3))
    for r, factors in enumerate(runs):
        prod[r] = factors[0][first]
        for f in factors[1:]:
            prod[r] = f[first] @ prod[r]
    for j in range(1, count.max()):
        more = np.flatnonzero(count > j)
        for r, factors in enumerate(runs):
            p = prod[r, more]
            for f in factors:
                p = f[first[more] + j] @ p
            prod[r, more] = p
    levels = []
    while prod.shape[1] > 1:
        levels.append(prod)
        prod = prod[:, 1::2] @ prod[:, :-1:2]
    for low in reversed(levels):
        low[:, 2::2] = low[:, 2::2] @ prod[:, :(low.shape[1] - 1) // 2]
        low[:, 1::2] = prod
        prod = low
    return prod


def _rotation_damping_steps(rng, n):
    # two-level kind: a rotation about a random axis plus damping, about
    # 0.1 rad per step
    a = np.zeros((n, 3, 3))
    delta, omega = 0.1 * rng.normal(size=(2, n))
    a[:, 0, 1], a[:, 1, 0] = -delta, delta
    a[:, 1, 2], a[:, 2, 1] = -omega, omega
    a[:, (0, 1, 2), (0, 1, 2)] = -1e-3 * rng.uniform(size=(n, 3))
    return dynamics._expm3(a)


def _rank_one_steps(rng, n):
    # q^2 kind: dose times u w^T with u = (fp^2, -fp fq, fq^2) and
    # w = (fq^2, 2 fq fp, fp^2), the flow (fq, fp) on the unit circle
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    fq, fp = np.cos(th), np.sin(th)
    u = np.stack([fp * fp, -fp * fq, fq * fq], axis=-1)
    w = np.stack([fq * fq, 2.0 * fq * fp, fp * fp], axis=-1)
    return dynamics._expm3(0.01 * u[:, :, None] * w[:, None, :])


@pytest.mark.parametrize("steps", [_rotation_damping_steps, _rank_one_steps])
@pytest.mark.parametrize("n_start", [1, 2, 7, 512, 513])
def test_running_products_match_the_grouped_route_at_the_start_step_ends(steps, n_start):
    # start steps of 1, 2^k and uneven counts; one scan over every step,
    # read at the start-step ends, against the per-start-step products.
    # Tolerance 1e-12 of the largest entry of each running product;
    # measured: at most 1.2e-14 (2533 steps)
    rng = np.random.default_rng(n_start)
    count = rng.choice([1, 1, 1, 2, 4, 8, 16, 3, 5, 6], size=n_start)
    count[0] = 3 if n_start > 1 else 8
    n = count.sum()
    one, first, second = (steps(rng, n) for _ in range(3))
    want = _grouped_running_products(count, (one,), (first, second))
    runs = np.stack([one, second @ first])
    kept = runs.copy()
    got = dynamics._running_products(runs)
    assert got is runs and not np.array_equal(runs, kept)  # the input is consumed
    ends = np.zeros(n, dtype=bool)
    ends[np.cumsum(count) - 1] = True
    err = np.abs(got[:, ends] - want).max(axis=(2, 3)) / np.abs(want).max(axis=(2, 3))
    assert err.max() <= 1e-12


# ---------------------------------------------------------------------------
# dissipator representations


def test_matrix_elements_match_superoperator():
    rng = np.random.default_rng(31)
    for d in (2, 4):
        for _ in range(5):
            x = _random_hermitian(rng, d)
            eta = rng.uniform(0.1, 2.0)
            rho = _random_density(rng, d)
            phi = np.linalg.eigh(_random_hermitian(rng, d))[1]
            rho_basis = phi.conj().T @ rho @ phi
            via_elements = dynamics.dissipative_matrix_elements(
                rho_basis, phi, x, eta
            )
            sup = dynamics.dissipator_superoperator(x, eta)
            l_rho = (sup @ rho.ravel(order="F")).reshape((d, d), order="F")
            via_sup = phi.conj().T @ l_rho @ phi
            np.testing.assert_allclose(via_elements, via_sup, atol=1e-12)


def test_common_eigenbasis_rates():
    # X diagonal in the invariant eigenbasis: populations frozen,
    # coherences decay at -eta (x_l - x_k)^2
    rng = np.random.default_rng(37)
    d = 5
    x_vals = rng.uniform(-2.0, 2.0, d)
    phi = np.linalg.eigh(_random_hermitian(rng, d))[1]
    x = phi @ np.diag(x_vals) @ phi.conj().T
    eta = 0.8
    rho_basis = phi.conj().T @ _random_density(rng, d) @ phi
    out = dynamics.dissipative_matrix_elements(rho_basis, phi, x, eta)
    expected = -eta * (x_vals[:, None] - x_vals[None, :]) ** 2 * rho_basis
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(np.diag(out), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# oscillator integrators


def test_fock_operators_commutator_and_number():
    d = 30
    q, p, n = dynamics.fock_operators(d, 2.0, 1.5)
    comm = q @ p - p @ q
    # canonical except in the truncation corner
    np.testing.assert_allclose(comm[: d - 1, : d - 1], 1j * np.eye(d - 1), atol=1e-12)
    a_num = np.diag(np.diag(n))
    np.testing.assert_allclose(n, a_num, atol=1e-12)
    with pytest.raises(ValueError):
        dynamics.fock_operators(1, 1.0, 1.0)


def test_moment_rhs_noise_terms():
    y = np.array([0.3, -0.2, 1.4, 0.9, 0.1])
    base = dynamics.gaussian_moment_rhs(
        y, 2.0, 1.0, dynamics.NoiseChannel("q", 0.0)
    )
    with_q = dynamics.gaussian_moment_rhs(
        y, 2.0, 1.0, dynamics.NoiseChannel("q", 0.5)
    )
    with_q2 = dynamics.gaussian_moment_rhs(
        y, 2.0, 1.0, dynamics.NoiseChannel("q_squared", 0.5)
    )
    diff_q = with_q - base
    diff_q2 = with_q2 - base
    np.testing.assert_allclose(diff_q, [0, 0, 0, 2.0 * 0.5, 0], atol=1e-14)
    np.testing.assert_allclose(diff_q2, [0, 0, 0, 8.0 * 0.5 * y[2], 0], atol=1e-14)
    with pytest.raises(UnsupportedChannel):
        dynamics.gaussian_moment_rhs(y, 1.0, 1.0, dynamics.NoiseChannel("sigma_z", 1.0))


def test_moments_static_trap_rotation():
    # noiseless static trap: first moments rotate at omega
    omega, mass = 1.3, 1.0
    alpha = 1.0 + 0.5j
    y0 = states.coherent_state(alpha, omega, mass, "gaussian").raw()
    t_f = 4.0
    times, ys = dynamics.integrate_moments(
        lambda t: omega**2, y0, dynamics.NoiseChannel("q", 0.0), t_f, mass,
        t_eval=np.linspace(0.0, t_f, 9),
    )
    q0, p0 = y0[0], y0[1]
    expected_q = q0 * np.cos(omega * times) + p0 * np.sin(omega * times) / (mass * omega)
    expected_p = p0 * np.cos(omega * times) - mass * omega * q0 * np.sin(omega * times)
    np.testing.assert_allclose(ys[:, 0], expected_q, atol=1e-8)
    np.testing.assert_allclose(ys[:, 1], expected_p, atol=1e-8)


def test_moments_match_fock_static_trap_with_noise():
    # static trap, X = q: the closed moment equations and the truncated-Fock
    # master equation are independent routes to the same moments
    omega, mass, eta = 1.0, 1.0, 0.02
    alpha = 0.8 + 0.3j
    t_f = 3.0
    channel = dynamics.NoiseChannel("q", eta)

    y0 = states.coherent_state(alpha, omega, mass, "gaussian").raw()
    _, ys = dynamics.integrate_moments(
        lambda t: omega**2, y0, channel, t_f, mass, t_eval=[0.0, t_f],
        rtol=1e-11, atol=1e-14,
    )

    d = 40
    q, p, _ = dynamics.fock_operators(d, mass, omega)
    rho0 = states.coherent_state(alpha, omega, mass, "fock", d)
    h = p @ p / (2.0 * mass) + 0.5 * mass * omega**2 * (q @ q)
    _, rhos = dynamics.integrate_master(
        rho0, lambda t: h, [(q, eta)], [0.0, t_f],
        rtol=1e-10, atol=1e-13,
    )
    rho_f = rhos[-1]
    fock_moments = [
        np.trace(rho_f @ q).real,
        np.trace(rho_f @ p).real,
        np.trace(rho_f @ (q @ q)).real,
        np.trace(rho_f @ (p @ p)).real,
        0.5 * np.trace(rho_f @ (q @ p + p @ q)).real,
    ]
    np.testing.assert_allclose(fock_moments, ys[-1], rtol=1e-6, atol=1e-7)


def test_ho_master_noiseless_state_frozen_in_frame():
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    traj = dynamics.integrate_ho_master(
        proto,
        lambda d: states.thermal_state(2.0, omega0, proto.mass, "fock", d),
        dynamics.NoiseChannel("q_squared", 0.0),
        t_eval=[0.0, proto.t_f],
        dim=60,
    )
    np.testing.assert_allclose(traj.rhos[0], traj.rhos[-1], atol=1e-12)
    assert traj.dim == 60


def test_ho_master_rejects_pauli_channel():
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    with pytest.raises(UnsupportedChannel):
        dynamics.integrate_ho_master(
            proto, lambda d: np.eye(d) / d,
            dynamics.NoiseChannel("sigma_z", 1.0),
        )


@pytest.mark.parametrize("tag, eta", [("q", 10.0), ("q_squared", 3.0)])
def test_fock_rhs_matches_double_commutator(tag, eta):
    # the two-product right-hand side against lindblad_rhs's five-product
    # -eta [X, [X, rho]] on random Hermitian rho at d = 40; measured over 50
    # draws: within 4.9e-16 (q) and 1.1e-15 (q^2) of the largest entry
    rng = np.random.default_rng(40)
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=20e-6)
    d = 40
    q, p, _ = dynamics.fock_operators(d, proto.mass, omega0)
    rhs = dynamics._fock_rhs(proto, dynamics.NoiseChannel(tag, eta), q, p)
    for t in rng.uniform(0.0, proto.t_f, 4):
        rho = _random_hermitian(rng, d)
        fq, fp, _, _ = proto.heisenberg_coeffs(t)
        x = fq * q + fp * p
        if tag == "q_squared":
            x = x @ x
        ref = -eta * dynamics._double_commutator(x, rho)
        out = rhs(t, rho)
        assert np.array_equal(out, out.conj().T)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fock_run_matches_five_product_route():
    # a d = 40 coherent-state run under q noise against RK45 on the
    # five-product right-hand side at the same tolerances; measured
    # max |d rho| = 3.9e-16 over the five samples (1.1e-15 at t_f = 20 us)
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    eta, d = 10.0, 40
    ts = np.linspace(0.0, proto.t_f, 5)

    def builder(dim):
        return states.coherent_state(1.0 + 1.0j, omega0, proto.mass, "fock", dim)

    traj = dynamics.integrate_ho_master(
        proto, builder, dynamics.NoiseChannel("q", eta), t_eval=ts, dim=d)
    q, p, _ = dynamics.fock_operators(d, proto.mass, omega0)

    def five_products(t, rho):
        fq, fp, _, _ = proto.heisenberg_coeffs(t)
        return -eta * dynamics._double_commutator(fq * q + fp * p, rho)

    ref = dynamics._rk45_matrix(five_products, builder(d), ts, 1e-9, 1e-12)
    assert np.max(np.abs(traj.rhos - ref)) < 1e-14
    assert np.max(np.abs(traj.rhos[-1] - traj.rhos[0])) > 1e-3  # the noise acts


def _full_matrix_fock_rhs(protocol, channel, q, p):
    """The Fock right-hand side on full matrices: x = fq q + fp p from
    Heisenberg coefficients of a 0-d array, new arrays for the Hermitian
    parts. The oracle of the in-place band fill of _fock_rhs."""
    squared = channel.operator_tag == "q_squared"
    scale = channel.eta ** (0.25 if squared else 0.5)

    def rhs(t, rho):
        fq, fp, _, _ = protocol.heisenberg_coeffs(np.asarray(t))
        x = (scale * fq) * q + (scale * fp) * p
        if squared:
            x = x @ x
        c = x @ rho
        c = c - c.conj().T
        y = c @ x
        return y + y.conj().T

    return rhs


@pytest.mark.parametrize("tag, eta", [("q", 10.0), ("q_squared", 0.1)])
def test_fock_run_equals_the_full_matrix_rhs(tag, eta):
    # the band fill, Python-float coefficients and in-place Hermitian parts
    # change no bit of a d = 40 run
    omega0 = TWO_PI * 15.92e6
    proto = constrain_g_phase(omega0, omega0 / 100.0, 0.505 * 5e-6, t_f=5e-6, r6=-10.0)
    d, channel = 40, dynamics.NoiseChannel(tag, eta)

    def initial_state(dim):
        return states.coherent_state(1.0 + 1.0j, omega0, proto.mass, "fock", dim)

    ts = [0.0, proto.t_f]
    rhos = dynamics._integrate_ho_fixed_dim(proto, initial_state, channel, ts, d, 1e-9, 1e-12)
    q, p, _ = dynamics.fock_operators(d, proto.mass, omega0)
    rho0 = initial_state(d)
    ref = dynamics._rk45_matrix(_full_matrix_fock_rhs(proto, channel, q, p),
                                0.5 * (rho0 + rho0.conj().T), ts, 1e-9, 1e-12)
    assert np.array_equal(rhos[-1], ref[-1])
    assert np.max(np.abs(rhos[-1] - rhos[0])) > 1e-6  # the noise acts


@pytest.mark.parametrize(
    "t_f, r6, eta", [(20e-6, 0.0, 0.0), (20e-6, -10.0, 10.0), (50e-6, 5.0, 10.0)]
)
def test_exact_q_moments_match_moment_integrator(t_f, r6, eta):
    # fig3 cells (g = 0.505 t_f): the invariant-frame closed form against
    # DOP853 at rtol 1e-10. Measured agreement: |dF| <= 1.2e-10, moments to
    # 5e-8 relative, which is the ODE's own error (it shrinks to 1e-9 at
    # rtol 1e-13, while the quadrature changes F by < 1e-11 from 16 to 64
    # samples per period)
    omega0 = TWO_PI * 15.92e6
    omega_f = omega0 / 100.0
    mass = MASS_100_CA40
    alpha = 1.0 + 1.0j
    proto = constrain_g_phase(
        omega0, omega_f, 0.505 * t_f, mass, t_f, "inverse_sqrt_poly", r6=r6
    )
    channel = dynamics.NoiseChannel("q", eta)
    y0 = states.coherent_state(alpha, omega0, mass, "gaussian").raw()
    _, ys = dynamics.integrate_moments(
        proto.omega_sq, y0, channel, t_f, mass, t_eval=[0.0, t_f],
        rtol=1e-10, atol=1e-14,
    )
    exact = dynamics.exact_q_moments(proto, y0, channel)
    np.testing.assert_allclose(exact, ys[-1], rtol=1e-6)

    target = states.target_coherent(alpha, proto.g_phase, omega0, omega_f, mass)
    f_ode, f_exact = (
        states.gaussian_fidelity(states.GaussianMoments.from_raw(*y), target.gaussian())
        for y in (ys[-1], exact)
    )
    assert abs(f_exact - f_ode) <= 1e-7


def test_exact_q_moments_reject_other_channels():
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    y0 = states.coherent_state(1.0, omega0, proto.mass, "gaussian").raw()
    for tag in ("q_squared", "sigma_z"):
        with pytest.raises(UnsupportedChannel):
            dynamics.exact_q_moments(proto, y0, dynamics.NoiseChannel(tag, 1.0))


def test_q_noise_quadrature_raises_past_its_interval_cap():
    # r6 = -1.4e16 gives a g-constrained fig3 protocol with 3.4e17 periods of
    # phase: the quadrature refuses its 5e18 intervals instead of sweeping them
    omega0 = TWO_PI * 15.92e6
    proto = constrain_g_phase(omega0, omega0 / 100.0, 50.5e-6, r6=-1.4097324734086768e16)
    assert float(proto.theta(proto.t_f)) / np.pi > 1e17
    with pytest.raises(StepSizeUnderflow, match="intervals"):
        dynamics.coherent_fidelity(proto, 1.0 + 1.0j, dynamics.NoiseChannel("q", 10.0))


@pytest.mark.parametrize("r6", [0.0, 400.0, 800.0, pytest.param(None, id="constant_mu")])
@pytest.mark.parametrize("t_f", [0.2e-6, 2.6e-6, 20e-6])
def test_thermal_fidelity_magnus_route_matches_moment_integrator(t_f, r6):
    # fig4 cells (r6 None: the constant-mu reference, with its closed-form
    # Euler-Cauchy flow): thermal_fidelity's Magnus route against DOP853 at
    # rtol 1e-13 on the same 401 samples. Measured agreement on these nine
    # r6 cells: |dF| <= 4.7e-12, mean power to 1.6e-9 relative; on the ten
    # default constant-mu rows of fig4: |dF| <= 7.5e-12, power to 2.1e-9
    omega0 = TWO_PI * 2.53e6
    n_bar = 12.58
    if r6 is None:
        proto = make_constant_mu_protocol(omega0, omega0 / 100.0, t_f, MASS_100_CA40)
    else:
        proto = make_ho_protocol(omega0, omega0 / 100.0, MASS_100_CA40, t_f,
                                 "sqrt_poly", (r6,))
    channel = dynamics.NoiseChannel("q_squared", 0.0527)
    init = states.thermal_state(n_bar, omega0, proto.mass, "gaussian")
    ts, ys = dynamics.integrate_moments(
        proto.omega_sq, init.raw(), channel, t_f, proto.mass,
        t_eval=np.linspace(0.0, t_f, 401), rtol=1e-13, atol=1e-14,
    )
    target = states.thermal_state(n_bar, proto.omega_f, proto.mass, "gaussian")
    f_ode = states.gaussian_fidelity(states.GaussianMoments.from_raw(*ys[-1]), target)
    p_ode = measures.average_power(proto.omega_sq_dot, ys[:, 2], proto.mass, t_f,
                                   grid=len(ts))

    fid, power = dynamics.thermal_fidelity(proto, n_bar, channel)
    assert abs(fid - f_ode) <= 1e-11
    assert abs(power - p_ode) <= 1e-8 * abs(p_ode)


def test_magnus_q2_moments_reject_other_channels():
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    y0 = states.thermal_state(1.0, omega0, proto.mass, "gaussian").raw()
    for tag in ("q", "sigma_z"):
        with pytest.raises(UnsupportedChannel):
            dynamics.magnus_q2_moments(proto, y0, dynamics.NoiseChannel(tag, 1.0))
