"""Master-equation integrators and dissipator diagnostics."""

import itertools
import signal
import tracemalloc

import numpy as np
import pytest

from invariant_control import algebra, cli, dynamics, measures, protocols, states
from invariant_control.constants import MASS_100_CA40, TWO_PI
from invariant_control.errors import (
    DimensionMismatch,
    StepSizeUnderflow,
    TruncationWarning,
    UnsupportedChannel,
)
from invariant_control.protocols import (
    HoProtocol,
    ProtocolFamily,
    constrain_g_phase,
    make_constant_mu_protocol,
    make_ho_protocol,
    make_tls_protocol,
)

import oracles


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
    for eta in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            dynamics.NoiseChannel("sigma_z", eta)
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
    # master equation at rtol 1e-11. Measured agreement: |dF| <= 3.5e-10
    t_f = 0.5e-3
    proto = ProtocolFamily(kind, {}, t_f).with_free(free).build()
    channels = [dynamics.NoiseChannel(tag, eta) for tag, eta in etas.items()]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    _, rhos = dynamics.integrate_master(
        rho0, oracles.tls_hamiltonian(proto), channels, [0.0, t_f],
        rtol=1e-11, atol=1e-14, max_step=t_f / 100,
    )
    assert abs(dynamics.tls_fidelity(proto, channels) - rhos[-1][1, 1].real) <= 1e-9


def _default_two_level_cells(experiment):
    """(protocol, channels) of every cell of invctl reproduce fig1 or fig2."""
    exp = cli._EXPERIMENTS[experiment]
    params = {name: default for name, (default, _) in exp.params.items()}
    family = ProtocolFamily(exp.kind, {}, params["t_f"])
    channels = [dynamics.NoiseChannel(tag, eta) for tag, eta in exp.channels.items()]
    axes = [np.linspace(lo, hi, n) for (lo, hi), n, _ in exp.free.values()]
    return [(family.with_free(tuple(map(float, free))).build(), channels)
            for free in itertools.product(*axes)]


def _magnus4_route(proto, channels):
    """F by the two-level route as it was before Magnus-6: Magnus-4 steps on
    512 uniform start steps, gated on the gap in F alone."""
    def fidelity(path):
        return 0.5 * (1.0 - path[-1, 2])

    path = dynamics._magnus_path(
        dynamics._bloch_generator(proto, channels), proto.t_f, 512, np.array([0.0, 0.0, 1.0]),
        lambda coarse, fine: abs(fidelity(fine) - fidelity(coarse)) / dynamics._TLS_TOL,
        dynamics._magnus_steps, 4)
    return float(fidelity(path))


@pytest.mark.parametrize("experiment", ["tls_single", "tls_dual"])
def test_tls_fidelity_meets_its_tolerance_on_every_default_cell(monkeypatch, experiment):
    # all 41 fig1 and 45 fig2 cells against the route on 1024 start steps
    # (within 1.4e-11 of 8192 on every cell) and against the Magnus-4 route.
    # Measured: within 3.5e-10 (fig1, g4 = 1.25) and 6.3e-11 (fig2) of the
    # converged value, and within 3.9e-10 and 7.4e-10 of the Magnus-4 route,
    # which is itself up to 1.4e-10 and 7.3e-10 off
    cells = _default_two_level_cells(experiment)
    got = [dynamics.tls_fidelity(proto, channels) for proto, channels in cells]
    for f, (proto, channels) in zip(got, cells):
        assert abs(f - _magnus4_route(proto, channels)) <= dynamics._TLS_TOL
    monkeypatch.setattr(dynamics, "_TLS_MIN_STEPS", 1024)
    for f, (proto, channels) in zip(got, cells):
        assert abs(f - dynamics.tls_fidelity(proto, channels)) <= dynamics._TLS_TOL


def _tls_dual_cell():
    proto = ProtocolFamily("tls_dual", {}, 0.5e-3).with_free(
        (-1.0, 1.0)).build()
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    return lambda: dynamics.tls_fidelity(proto, channels)


def _fig4_q2_run(proto):
    init = states.thermal_state(12.58, proto.omega0, proto.mass).raw()
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
    # the dual cell (-1, 1) does not settle on its first 256 half steps, nor
    # the fig4 cells at t_f = 20 us (r6 = 0 and constant mu) on their first
    # 800: their steps must be split
    run = cell()
    monkeypatch.setattr(dynamics, "_MAX_HALF_STEPS", first_grid)
    with pytest.raises(StepSizeUnderflow):
        run()


def test_tls_fidelity_rejects_oscillator_channels():
    proto = make_tls_protocol(0.5e-3)
    for tag in ("q", "q_squared"):
        with pytest.raises(UnsupportedChannel):
            dynamics.tls_fidelity(proto, [dynamics.NoiseChannel(tag, 1.0)])


def _mul(a, b):
    # batched 3x3 products with the batch axes last
    return np.einsum("ij...,jk...->ik...", a, b)


def _expm3_reference(x):
    """The step exponential as written before it worked in place: the
    bit-for-bit oracle of the buffer-swapping kernel, on the (3, 3, n)
    layout."""
    norm = float(np.abs(x).sum(axis=1).max())
    squarings = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    x = x / 2.0**squarings
    eye = np.eye(3)[:, :, None]
    out = eye + x / 12
    for k in range(11, 0, -1):
        out = eye + _mul(x, out) / k
    for _ in range(squarings):
        out = _mul(out, out)
    return out


def _magnus_steps_reference(generator, left, width):
    a = generator(np.concatenate([left + (0.5 - dynamics._GL) * width,
                                  left + (0.5 + dynamics._GL) * width]))
    a1, a2 = a[..., :len(left)], a[..., len(left):]
    return _expm3_reference(
        0.5 * width * (a1 + a2)
        + (np.sqrt(3.0) / 12.0) * width * width * (_mul(a2, a1) - _mul(a1, a2)))


# batch sizes from one step to 12000 (a (3, 3, 2n) generator batch of 1.7 MB,
# far above 128 kB); scales from no squaring to several squarings
_KERNEL_SIZES = (1, 2, 7, 64, 1000, 5000, 12000)
_KERNEL_SCALES = (0.01, 0.1, 1.0, 5.0, 40.0)


@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_expm3_equals_the_allocating_kernel_bit_for_bit(n):
    assert dynamics._TAYLOR_DEGREE == 12 and dynamics._TAYLOR_NORM == 0.5
    rng = np.random.default_rng(n)
    squarings = set()
    for scale in _KERNEL_SCALES:
        x = scale * rng.normal(size=(3, 3, n))
        norm = np.abs(x).sum(axis=1).max()
        squarings.add(int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
        assert np.array_equal(dynamics._expm3(x.copy()), _expm3_reference(x))
    assert 0 in squarings and max(squarings) >= 4


@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_magnus_steps_equal_the_allocating_route_and_leave_the_generator_output(n):
    # generators up to 5 keep the step exponentials finite (the commutator
    # term grows as the square of the scale)
    rng = np.random.default_rng(100 + n)
    for scale in _KERNEL_SCALES[:-1]:
        a = scale * rng.normal(size=(3, 3, 2 * n))
        kept = a.copy()
        left = np.sort(rng.uniform(0.0, 1.0, n))
        width = rng.uniform(0.2, 1.0, n)
        got = dynamics._magnus_steps(lambda t: a, left, width)
        assert np.array_equal(a, kept)
        want = _magnus_steps_reference(lambda t: kept, left, width)
        assert np.isfinite(want).all() and np.array_equal(got, want)
    assert a.nbytes > 128 * 1024 or n < 12000


def _rotation_generator(t):
    # a fresh (3, 3, len(t)) generator batch on every call, as the routes build
    a = np.zeros((3, 3, len(t)))
    a[0, 1], a[1, 2] = -np.sin(t), -np.cos(t)
    a[1, 0], a[2, 1] = -a[0, 1], -a[1, 2]
    return a


@pytest.mark.parametrize("n", [1536, 12000])
def test_magnus_steps_peak_heap_stays_within_four_batch_buffers(n):
    # no per-term temporaries: the generator output (two batches), then
    # Omega_4 (one) and the exponentials' work buffer (two) over the released
    # generator output. A batch buffer is 72 n bytes. Measured peaks: 3.68
    # and 3.34 buffers; the allocating expressions of _magnus_steps_reference
    # reach 6.12 and 5.11
    left = np.linspace(0.0, 1.0, n)
    width = np.full(n, 50.0 / n)
    dynamics._magnus_steps(_rotation_generator, left, width)  # warm up numpy
    tracemalloc.start()
    try:
        dynamics._magnus_steps(_rotation_generator, left, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 72 * n


@pytest.mark.parametrize("n", [1536, 12000])
def test_magnus6_steps_peak_heap_stays_within_four_batch_buffers_and_six_blocks(n):
    # the generator output (three batches, overwritten by the alphas), then
    # Omega_6 (one) and the exponentials' work buffer (two) over the released
    # generator output; the commutator terms take temporaries one block of
    # _ASSEMBLY_BLOCK6 steps at a time. Measured peaks: 4 batch buffers plus
    # 5.09 blocks at both sizes (5.70 and 4.22 batch buffers)
    left = np.linspace(0.0, 1.0, n)
    width = np.full(n, 50.0 / n)
    dynamics._magnus6_steps(_rotation_generator, left, width)  # warm up numpy
    tracemalloc.start()
    try:
        dynamics._magnus6_steps(_rotation_generator, left, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * (4 * n + 6 * dynamics._ASSEMBLY_BLOCK6)


def _tilting_generator(t):
    # a rotation whose axis turns with t, plus damping that grows with t: its
    # values at different times do not commute
    a = _rotation_generator(3.0 * t)
    a[1, 2] -= t
    a[2, 1] += t
    a[0, 0] = -0.1 * t
    return a


def _propagator(steps, n, t_f=2.0):
    h = np.full(n, t_f / n)
    u = steps(_tilting_generator, np.arange(n) * h, h)
    p = np.eye(3)
    for j in range(n):
        p = u[..., j] @ p
    return p


@pytest.mark.parametrize("steps, order", [(dynamics._magnus_steps, 4),
                                          (dynamics._magnus6_steps, 6)])
def test_magnus_steps_converge_at_their_order(steps, order):
    # global error of n uniform steps against 1024 Magnus-6 steps: each
    # halving of h divides it by about 2^order. Measured ratios: 15.3-16.0
    # (Magnus-4) and 63.5-66.0 (Magnus-6) from 4 to 64 steps
    want = _propagator(dynamics._magnus6_steps, 1024)
    errors = [np.abs(_propagator(steps, n) - want).max() for n in (4, 8, 16, 32, 64)]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((0.8 * 2**order < ratios) & (ratios < 1.2 * 2**order)), ratios


def _grouped_running_products(count, *runs):
    """The running products as taken before one scan ran over every step:
    start step g holds count[g] steps, a run gives each step as its factors
    in time order ((3, 3, steps) each), each start step's factors are
    multiplied left to right, and a pairwise scan over the start steps
    follows. The oracle of _running_products at the start-step ends."""
    first = np.cumsum(count) - count
    prod = np.empty((3, 3, len(runs), len(count)))
    for r, factors in enumerate(runs):
        prod[:, :, r] = factors[0][..., first]
        for f in factors[1:]:
            prod[:, :, r] = _mul(f[..., first], prod[:, :, r])
    for j in range(1, count.max()):
        more = np.flatnonzero(count > j)
        for r, factors in enumerate(runs):
            p = prod[:, :, r, more]
            for f in factors:
                p = _mul(f[..., first[more] + j], p)
            prod[:, :, r, more] = p
    levels = []
    while prod.shape[-1] > 1:
        levels.append(prod)
        prod = _mul(prod[..., 1::2], prod[..., :-1:2])
    for low in reversed(levels):
        low[..., 2::2] = _mul(low[..., 2::2], prod[..., :(low.shape[-1] - 1) // 2])
        low[..., 1::2] = prod
        prod = low
    return prod


def _rotation_damping_generators(rng, n):
    # two-level kind: a rotation about a random axis plus damping, about
    # 0.1 rad per step
    a = np.zeros((3, 3, n))
    delta, omega = 0.1 * rng.normal(size=(2, n))
    a[0, 1], a[1, 0] = -delta, delta
    a[1, 2], a[2, 1] = -omega, omega
    a[(0, 1, 2), (0, 1, 2)] = -1e-3 * rng.uniform(size=(3, n))
    return a


def _rank_one_generators(rng, n):
    # q^2 kind: dose times u w^T with u = (fp^2, -fp fq, fq^2) and
    # w = (fq^2, 2 fq fp, fp^2), the flow (fq, fp) on the unit circle
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    fq, fp = np.cos(th), np.sin(th)
    u = np.stack([fp * fp, -fp * fq, fq * fq])
    w = np.stack([fq * fq, 2.0 * fq * fp, fp * fp])
    return 0.01 * u[:, None] * w


def _rotation_damping_steps(rng, n):
    return dynamics._expm3(_rotation_damping_generators(rng, n))


def _rank_one_steps(rng, n):
    return dynamics._expm3(_rank_one_generators(rng, n))


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
    runs = np.stack([one, _mul(second, first)], axis=2)
    kept = runs.copy()
    got = dynamics._running_products(runs)
    assert got is runs and not np.array_equal(runs, kept)  # the input is consumed
    ends = np.zeros(n, dtype=bool)
    ends[np.cumsum(count) - 1] = True
    err = np.abs(got[..., ends] - want).max(axis=(0, 1)) / np.abs(want).max(axis=(0, 1))
    assert err.max() <= 1e-12


# ---------------------------------------------------------------------------
# the Magnus kernel as it was with the batch axis first, (n, 3, 3), and its
# products by matmul: the oracle of the (3, 3, n) kernel


def _rows_expm3(x):
    out, tmp = np.empty((2, *x.shape))
    norm = float(np.abs(x, out=out).sum(axis=-1).max())
    squarings = (int(np.ceil(np.log2(norm / dynamics._TAYLOR_NORM)))
                 if norm > dynamics._TAYLOR_NORM else 0)
    x /= 2.0**squarings
    eye = np.eye(3)
    np.divide(x, dynamics._TAYLOR_DEGREE, out=out)
    out += eye
    for k in range(dynamics._TAYLOR_DEGREE - 1, 0, -1):
        np.matmul(x, out, out=tmp)
        tmp /= k
        tmp += eye
        out, tmp = tmp, out
    for _ in range(squarings):
        np.matmul(out, out, out=tmp)
        out, tmp = tmp, out
    return out


def _rows_magnus_steps(generator, left, width):
    return _rows_expm3(_rows_magnus_exponents(generator(np.concatenate(
        [left + (0.5 - dynamics._GL) * width, left + (0.5 + dynamics._GL) * width])), width))


def _rows_magnus_exponents(a, width):
    a1, a2 = a[:len(width)], a[len(width):]
    w = width[:, None, None]
    omega = a2 @ a1
    for s in range(0, len(width), dynamics._ASSEMBLY_BLOCK):
        b1, b2, wb, o = (v[s:s + dynamics._ASSEMBLY_BLOCK] for v in (a1, a2, w, omega))
        o -= b1 @ b2
        o *= (np.sqrt(3.0) / 12.0) * wb * wb
        o += 0.5 * wb * (b1 + b2)
    return omega


def _rows_magnus6_steps(generator, left, width):
    return _rows_expm3(_rows_magnus6_exponents(generator(np.concatenate(
        [left + (0.5 - dynamics._GL6) * width, left + 0.5 * width,
         left + (0.5 + dynamics._GL6) * width])), width))


def _rows_magnus6_exponents(a, width):
    # Omega_6 as Blanes, Casas & Ros write it, each term a fresh array
    n = len(width)
    w = width[:, None, None]
    a1, a2, a3 = a[:n], a[n:2 * n], a[2 * n:]
    alpha1 = w * a2
    alpha2 = (np.sqrt(15.0) / 3.0) * w * (a3 - a1)
    alpha3 = (10.0 / 3.0) * w * (a3 - 2.0 * a2 + a1)

    def commutator(x, y):
        return x @ y - y @ x

    c1 = commutator(alpha1, alpha2)
    c2 = -commutator(alpha1, 2.0 * alpha3 + c1) / 60.0
    return alpha1 + alpha3 / 12.0 + commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0


def _rows_one_and_halves(generator, steps, left, h, one=None):
    starts, widths = [left, left + 0.5 * h], [0.5 * h, 0.5 * h]
    if one is None:
        starts, widths = [left, *starts], [h, *widths]
    u = steps(generator, np.concatenate(starts), np.concatenate(widths))
    n = len(left)
    return (u[:n] if one is None else one), u[-2 * n:-n], u[-n:]


def _rows_running_products(u):
    levels = []
    while u.shape[1] > 1:
        levels.append(u)
        u = u[:, 1::2] @ u[:, :-1:2]
    for low in reversed(levels):
        low[:, 2::2] = low[:, 2::2] @ u[:, :(low.shape[1] - 1) // 2]
        low[:, 1::2] = u
        u = low
    return u


@np.errstate(over="ignore", invalid="ignore")
def _rows_magnus_path(generator, t_f, n_start, x0, error, steps, order):
    gate = 2.0**order - 1.0
    h = np.full(n_start, t_f / n_start)
    left = np.arange(n_start) * h
    ends = np.ones(n_start, dtype=bool)
    one, first, second = _rows_one_and_halves(generator, steps, left, h)
    while True:
        path = _rows_running_products(np.stack([one, second @ first]))[:, ends] @ x0
        coarse, fine = np.concatenate([np.broadcast_to(x0, (2, 1, 3)), path], axis=1)
        gap = error(coarse, fine)
        if gap <= gate:
            return fine
        if not np.isfinite(gap):
            raise StepSizeUnderflow("overflow")
        diff = np.abs(second @ first - one).max(axis=(1, 2))
        flagged = diff > dynamics._SPLIT * diff.max()
        k = np.ceil(np.log2(gap / gate) / order)
        if 2 * (len(h) + flagged.sum() * (2**k - 1)) > dynamics._MAX_HALF_STEPS:
            raise StepSizeUnderflow("not converged")
        parts = np.where(flagged, 2 ** int(k), 1)
        idx = np.repeat(np.arange(len(h)), parts)
        part = np.arange(len(idx)) - (np.cumsum(parts) - parts)[idx]
        h = h[idx] / parts[idx]
        left = left[idx] + part * h
        ends = ends[idx] & (part == parts[idx] - 1)
        split = parts[idx] > 1
        known = (np.stack([first[flagged], second[flagged]], axis=1).reshape(-1, 3, 3)
                 if k == 1 else None)
        one, first, second = one[idx], first[idx], second[idx]
        one[split], first[split], second[split] = _rows_one_and_halves(
            generator, steps, left[split], h[split], known)


def _rows(batch):
    return np.ascontiguousarray(np.moveaxis(batch, -1, 0))


def _columns(batch):
    return np.ascontiguousarray(np.moveaxis(batch, 0, -1))


def _relative_gap(got, want):
    # largest gap of each matrix over its largest entry
    return (np.abs(got - want).max(axis=(0, 1)) / np.abs(want).max(axis=(0, 1))).max()


# Tolerances of the layouts' agreement: einsum and matmul round 3x3 products
# differently (by up to ~1.8e-15 on random products), and each Taylor term,
# squaring and scan level can carry that on
@pytest.mark.parametrize("n", _KERNEL_SIZES)
def test_expm3_matches_the_matmul_kernel(n):
    # measured, of each exponential's largest entry: at most 7.1e-14 up to
    # scale 5 and 1.9e-12 at scale 40 (ten squarings, each doubling the gap)
    rng = np.random.default_rng(200 + n)
    for scale in _KERNEL_SCALES:
        x = scale * rng.normal(size=(n, 3, 3))
        want = _columns(_rows_expm3(x.copy()))
        assert _relative_gap(dynamics._expm3(_columns(x)), want) <= 1e-11


@pytest.mark.parametrize("generators", [_rotation_damping_generators, _rank_one_generators])
@pytest.mark.parametrize("n", [1, 7, 1000, 5000])
def test_magnus_steps_and_running_products_match_the_matmul_kernel(generators, n):
    # steps of the two generator kinds the routes take, then the scan over
    # two runs of them. Measured: the steps within 1.2e-16 of their largest
    # entry, the running products within 1.1e-14
    rng = np.random.default_rng(300 + n)
    a = generators(rng, 2 * n)
    left = np.sort(rng.uniform(0.0, 1.0, n))
    width = rng.uniform(0.2, 1.0, n)
    steps = dynamics._magnus_steps(lambda t: a.copy(), left, width)
    want = _columns(_rows_magnus_steps(lambda t: _rows(a), left, width))
    assert _relative_gap(steps, want) <= 1e-14
    runs = np.stack([steps, _mul(steps, steps[..., ::-1])], axis=2)
    want = _rows_running_products(np.stack([_rows(steps), _rows(steps) @ _rows(steps)[::-1]]))
    assert _relative_gap(dynamics._running_products(runs), np.moveaxis(want, (2, 3), (0, 1))) <= 1e-13


@pytest.mark.parametrize("generators", [_rotation_damping_generators, _rank_one_generators])
@pytest.mark.parametrize("n", [1, 7, 1000, 5000])
def test_magnus6_steps_match_the_matmul_kernel(generators, n):
    # measured: within 2.2e-16 of each step's largest entry
    rng = np.random.default_rng(400 + n)
    a = generators(rng, 3 * n)
    left = np.sort(rng.uniform(0.0, 1.0, n))
    width = rng.uniform(0.2, 1.0, n)
    steps = dynamics._magnus6_steps(lambda t: a.copy(), left, width)
    want = _columns(_rows_magnus6_steps(lambda t: _rows(a), left, width))
    assert _relative_gap(steps, want) <= 1e-14


#: the (n, 3, 3) oracle of each step kernel
_ROWS_STEPS = {dynamics._magnus_steps: _rows_magnus_steps,
               dynamics._magnus6_steps: _rows_magnus6_steps}


def _matmul_route(monkeypatch):
    """Make the routes propagate through the (n, 3, 3) matmul kernel of the
    step kernel each route takes."""
    def route(generator, t_f, n_start, x0, error, steps, order):
        return _rows_magnus_path(lambda t: _rows(generator(t)), t_f, n_start, x0, error,
                                 _ROWS_STEPS[steps], order)

    monkeypatch.setattr(dynamics, "_magnus_path", route)


@pytest.mark.parametrize("kind, free, etas", [
    ("tls_steep_blend", (1.25,), {"sigma_z": 250.0}),
    ("tls_steep_blend", (-0.5,), {"sigma_z": 250.0}),
    ("tls_dual", (-1.0, 1.0), {"sigma_z": 125.0, "sigma_x": 62.5}),
    ("tls_dual", (0.5, 0.25), {"sigma_z": 125.0, "sigma_x": 62.5}),
])
def test_tls_fidelity_matches_the_matmul_kernel(monkeypatch, kind, free, etas):
    # measured: |dF| <= 5.6e-16 on these fig1 and fig2 cells
    proto = ProtocolFamily(kind, {}, 0.5e-3).with_free(free).build()
    channels = [dynamics.NoiseChannel(tag, eta) for tag, eta in etas.items()]
    got = dynamics.tls_fidelity(proto, channels)
    _matmul_route(monkeypatch)
    assert abs(got - dynamics.tls_fidelity(proto, channels)) <= 1e-14


@pytest.mark.parametrize("r6", [0.0, 400.0, 800.0, pytest.param(None, id="constant_mu")])
@pytest.mark.parametrize("t_f", [0.2e-6, 2.6e-6, 20e-6])
def test_thermal_fidelity_matches_the_matmul_kernel(monkeypatch, t_f, r6):
    # fig4 cells; measured: |dF| <= 2.3e-12 and the mean power to 5.2e-14
    # relative, far inside the route's 2.4e-11 and 4.4e-9 against DOP853
    omega0 = TWO_PI * 2.53e6
    if r6 is None:
        proto = make_constant_mu_protocol(omega0, omega0 / 100.0, t_f, MASS_100_CA40)
    else:
        proto = make_ho_protocol(omega0, omega0 / 100.0, MASS_100_CA40, t_f,
                                 "sqrt_poly", (r6,))
    channel = dynamics.NoiseChannel("q_squared", 0.0527)
    fid, power = dynamics.thermal_fidelity(proto, 12.58, channel)
    _matmul_route(monkeypatch)
    fid_rows, power_rows = dynamics.thermal_fidelity(proto, 12.58, channel)
    assert abs(fid - fid_rows) <= 1e-11
    assert abs(power - power_rows) <= 1e-12 * abs(power_rows)


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
            via_elements = oracles.dissipative_matrix_elements(
                rho_basis, phi, x, eta
            )
            sup = oracles.dissipator_superoperator(x, eta)
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
    out = oracles.dissipative_matrix_elements(rho_basis, phi, x, eta)
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


def _moment_rhs_by_element(y, omega_sq, mass, channel):
    """The moment right-hand side written element by element into
    np.empty(5): the oracle of gaussian_moment_rhs's one np.array."""
    mq, mp, qq, pp, qp = y
    dy = np.empty(5)
    dy[0] = mp / mass
    dy[1] = -mass * omega_sq * mq
    dy[2] = 2.0 * qp / mass
    dy[3] = -2.0 * mass * omega_sq * qp
    dy[4] = pp / mass - mass * omega_sq * qq
    if channel.eta:
        if channel.operator_tag == "q":
            dy[3] += 2.0 * channel.eta
        else:
            dy[3] += 8.0 * channel.eta * qq
    return dy


def test_moment_rhs_equals_the_element_by_element_form():
    rng = np.random.default_rng(25)
    for _ in range(200):
        y = rng.normal(size=5) * 10.0 ** rng.integers(-20, 5, size=5)
        omega_sq = float(rng.normal() * 10.0 ** rng.integers(0, 16))
        mass = float(10.0 ** rng.uniform(-26, 1))
        for tag in ("q", "q_squared"):
            for eta in (0.0, float(10.0 ** rng.uniform(-3, 3))):
                channel = dynamics.NoiseChannel(tag, eta)
                got = dynamics.gaussian_moment_rhs(y, omega_sq, mass, channel)
                assert np.array_equal(got, _moment_rhs_by_element(y, omega_sq, mass, channel))


def test_integrate_moments_rejects_other_channels_before_solving():
    def omega_sq(t):
        raise AssertionError("integrate_moments evaluated the trap")

    for eta in (0.0, 1.0):
        with pytest.raises(UnsupportedChannel):
            dynamics.integrate_moments(omega_sq, np.ones(5),
                                       dynamics.NoiseChannel("sigma_z", eta), 1.0, 1.0)


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
        lambda d: oracles.thermal_fock_state(2.0, d),
        dynamics.NoiseChannel("q_squared", 0.0),
        t_eval=[0.0, proto.t_f],
        dim=60,
    )
    np.testing.assert_allclose(traj.rhos[0], traj.rhos[-1], atol=1e-12)
    assert traj.dim == 60


def test_ho_master_rejects_pauli_channel():
    # before any state is built
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")

    def builder(d):
        raise AssertionError(f"rho0 built at d = {d}")

    with pytest.raises(UnsupportedChannel):
        dynamics.integrate_ho_master(proto, builder, dynamics.NoiseChannel("sigma_z", 1.0))


def _top_two(rho):
    return rho[-1, -1].real + rho[-2, -2].real


def _spy_fock_runs(monkeypatch):
    """Record the truncation of each fixed-dim Fock run, and whether it was
    abandoned."""
    runs = []
    fixed_dim = dynamics._integrate_ho_fixed_dim

    def spy(protocol, rho0_builder, channel, t_eval, d, stop=None):
        rhos = fixed_dim(protocol, rho0_builder, channel, t_eval, d, stop)
        runs.append((d, rhos is None))
        return rhos

    monkeypatch.setattr(dynamics, "_integrate_ho_fixed_dim", spy)
    return runs


def test_adaptive_fock_run_starts_where_rho0_holds_its_tail(monkeypatch):
    # |alpha|^2 = 2: rho0 holds 6.0e-12 on the top two of 20 levels and
    # 6.4e-13 of 21, so the run starts at 21 and passes the 1e-8 gate there
    # (1.3e-12 at t_f); measured |F - F(dim = 40)| = 8.6e-12
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    channel = dynamics.NoiseChannel("q", 10.0)

    def builder(d):
        return states.coherent_state(1.0 + 1.0j, omega0, proto.mass, "fock", d)

    runs = _spy_fock_runs(monkeypatch)
    traj = dynamics.integrate_ho_master(proto, builder, channel, t_eval=[0.0, proto.t_f])
    assert runs == [(21, False)] and traj.dim == 21
    assert _top_two(builder(21)) < 1e-12 <= min(_top_two(builder(d)) for d in range(2, 21))
    assert 1.0 - np.trace(builder(21)).real < 1e-12
    ref = dynamics.integrate_ho_master(
        proto, builder, channel, t_eval=[0.0, proto.t_f], dim=40)
    target = states.target_coherent(1.0 + 1.0j, proto.g_phase, omega0, omega0 / 100.0,
                                    proto.mass)
    f = states.uhlmann_fidelity(traj.final_rho, target.frame_fock(traj.dim))
    f_ref = states.uhlmann_fidelity(ref.final_rho, target.frame_fock(40))
    assert abs(f - f_ref) < 1e-10


def test_fock_start_reads_the_missing_population_too():
    # the number state |10> holds nothing on the top two of d <= 10 levels,
    # and the whole state is missing until d = 11; at 11 and 12 levels it
    # sits on the top two
    def number_state(d):
        rho = np.zeros((d, d), dtype=complex)
        if d > 10:
            rho[10, 10] = 1.0
        return rho

    assert dynamics._fock_start_dim(number_state) == 13


def test_fock_run_of_a_large_coherent_state_starts_past_its_mean(monkeypatch):
    # |alpha|^2 = 32: rho0 holds 4.2e-13 on the top two of 2 levels, and
    # nearly all of it is missing there, so the start is the 40-level cap,
    # whose rho0 already fails the gate: that run is abandoned at t = 0, and
    # the run at 80 is the dim = 80 run
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    channel = dynamics.NoiseChannel("q", 10.0)
    alpha = 4.0 + 4.0j

    def builder(d):
        return states.coherent_state(alpha, omega0, proto.mass, "fock", d)

    assert _top_two(builder(2)) < 1e-12
    runs = _spy_fock_runs(monkeypatch)
    traj = dynamics.integrate_ho_master(proto, builder, channel, t_eval=[0.0, proto.t_f])
    assert _top_two(builder(40)) >= 1e-8
    assert runs == [(40, True), (80, False)] and traj.dim == 80
    ref = dynamics.integrate_ho_master(
        proto, builder, channel, t_eval=[0.0, proto.t_f], dim=80)
    assert np.array_equal(traj.rhos, ref.rhos)
    target = states.target_coherent(alpha, proto.g_phase, omega0, omega0 / 100.0, proto.mass)
    assert states.uhlmann_fidelity(traj.final_rho, target.frame_fock(80)) > 0.99


def test_fock_run_at_a_fixed_dim_runs_to_t_f_and_warns(monkeypatch):
    # the 40-level start of |alpha|^2 = 32 fails the gate at t = 0; a run
    # at dim = 40 keeps no abandoning event, finishes and warns
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    runs = _spy_fock_runs(monkeypatch)
    with pytest.warns(TruncationWarning, match="top two of 40 Fock levels"):
        traj = dynamics.integrate_ho_master(
            proto, lambda d: states.coherent_state(4.0 + 4.0j, omega0, proto.mass, "fock", d),
            dynamics.NoiseChannel("q", 10.0), t_eval=[0.0, proto.t_f], dim=40)
    assert runs == [(40, False)] and traj.dim == 40


def test_fock_start_heated_past_the_gate_goes_on_at_40_levels(monkeypatch):
    # the vacuum starts at 3 levels; q noise lifts their top two to 1e-8
    # long before t_f (1.1e-2 there), so that run is abandoned and the run
    # at 40 levels is the dim = 40 run
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    channel = dynamics.NoiseChannel("q", 10.0)

    def builder(d):
        return states.coherent_state(0.0, omega0, proto.mass, "fock", d)

    runs = _spy_fock_runs(monkeypatch)
    traj = dynamics.integrate_ho_master(proto, builder, channel, t_eval=[0.0, proto.t_f])
    assert runs == [(3, True), (40, False)] and traj.dim == 40
    ref = dynamics.integrate_ho_master(
        proto, builder, channel, t_eval=[0.0, proto.t_f], dim=40)
    assert np.array_equal(traj.rhos, ref.rhos)


def test_fock_run_failing_the_gate_doubles_and_warns_at_the_cap(monkeypatch):
    # with the start capped at 6 and the doubling at 12 levels, the vacuum
    # under strong q noise starts at 3 and 6 (both abandoned when their top
    # two reach 1e-8; 0.075 at t_f at 6), then runs to t_f at 12, the last
    # truncation, and fails the gate there (top two hold 0.0032 at t_f)
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    monkeypatch.setattr(dynamics, "_FOCK_START_MAX_DIM", 6)
    monkeypatch.setattr(dynamics, "_FOCK_MAX_DIM", 12)
    runs = _spy_fock_runs(monkeypatch)
    with pytest.warns(TruncationWarning, match="top two of 12 Fock levels"):
        traj = dynamics.integrate_ho_master(
            proto, lambda d: states.coherent_state(0.0, omega0, proto.mass, "fock", d),
            dynamics.NoiseChannel("q", 1e3), t_eval=[0.0, proto.t_f])
    assert runs == [(3, True), (6, True), (12, False)]
    assert traj.dim == 12


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
    rhos = dynamics._integrate_ho_fixed_dim(proto, initial_state, channel, ts, d)
    q, p, _ = dynamics.fock_operators(d, proto.mass, omega0)
    rho0 = initial_state(d)
    ref = dynamics._rk45_matrix(_full_matrix_fock_rhs(proto, channel, q, p),
                                0.5 * (rho0 + rho0.conj().T), ts, 1e-9, 1e-12)
    assert np.array_equal(rhos[-1], ref[-1])
    assert np.max(np.abs(rhos[-1] - rhos[0])) > 1e-6  # the noise acts


@pytest.mark.parametrize("tag, eta", [("q", 10.0), ("q_squared", 0.01)])
def test_fock_samples_stay_exactly_hermitian(tag, eta):
    # an exactly Hermitian rho0 and right-hand side keep every RK45 stage,
    # step and interpolated sample Hermitian to the last bit, with no
    # projection
    omega0 = TWO_PI * 15.92e6
    proto = constrain_g_phase(omega0, omega0 / 100.0, 0.505 * 5e-6, t_f=5e-6, r6=-10.0)
    traj = dynamics.integrate_ho_master(
        proto, lambda d: states.coherent_state(1.0 + 1.0j, omega0, proto.mass, "fock", d),
        dynamics.NoiseChannel(tag, eta), t_eval=np.linspace(0.0, proto.t_f, 7), dim=40)
    rhos = traj.rhos
    assert np.array_equal(rhos, rhos.conj().transpose(0, 2, 1))
    assert np.max(np.abs(rhos[-1] - rhos[0])) > 1e-6  # the noise acts


def test_rk45_span_ending_at_zero_returns_the_initial_state():
    rho0 = _random_density(np.random.default_rng(3), 3)
    out = dynamics._rk45_matrix(lambda t, rho: rho, rho0, [0.0, 0.0], 1e-9, 1e-12)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out, [rho0, rho0])


def test_rk45_failing_solve_raises_step_size_underflow():
    # d rho/dt = rho^2 from the identity blows up at t = 1
    with pytest.raises(StepSizeUnderflow):
        dynamics._rk45_matrix(lambda t, rho: rho @ rho, np.eye(2), [0.0, 2.0], 1e-9, 1e-12)


def _solve_ivp_rk45_matrix(rhs, rho0, t_eval, rtol, atol, max_step=np.inf, stop=None):
    """_rk45_matrix by one scipy solve_ivp RK45 call, stop a terminal event
    rising through 0: the oracle that the numpy Dormand-Prince loop must
    equal bit for bit."""
    from scipy.integrate import solve_ivp

    rho0 = np.asarray(rho0, dtype=complex)
    if stop is not None and stop(rho0) >= 0.0:
        return None
    n = rho0.shape[0]
    if t_eval[-1] == 0.0:
        return np.repeat(rho0[None], len(t_eval), axis=0)
    events = None
    if stop is not None:
        def events(t, y):
            return stop(y.reshape(n, n))
        events.terminal, events.direction = True, 1.0
    sol = solve_ivp(lambda t, y: rhs(t, y.reshape(n, n)).ravel(), (0.0, t_eval[-1]),
                    rho0.ravel(), method="RK45", t_eval=t_eval, rtol=rtol, atol=atol,
                    max_step=max_step, events=events)
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    if sol.status == 1:
        return None
    return sol.y.T.reshape(-1, n, n)


def _fock_runs_by_both_steppers(monkeypatch, *args, **kwargs):
    """(fixed-dim runs, samples) of integrate_ho_master(*args, **kwargs) by
    _rk45_matrix and by its solve_ivp oracle."""
    runs, out = _spy_fock_runs(monkeypatch), []
    for stepper in (dynamics._rk45_matrix, _solve_ivp_rk45_matrix):
        monkeypatch.setattr(dynamics, "_rk45_matrix", stepper)
        rhos = dynamics.integrate_ho_master(*args, **kwargs).rhos
        out.append((runs[:], rhos))
        runs.clear()
    return out


@pytest.mark.parametrize("n_samples", [2, 201])
def test_rk45_matrix_equals_solve_ivp_on_a_fock_run(monkeypatch, n_samples):
    # |alpha|^2 = 2 starts at 21 levels and is not abandoned
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    (runs, rhos), (ref_runs, ref) = _fock_runs_by_both_steppers(
        monkeypatch, proto,
        lambda d: states.coherent_state(1.0 + 1.0j, omega0, proto.mass, "fock", d),
        dynamics.NoiseChannel("q", 10.0), t_eval=np.linspace(0.0, proto.t_f, n_samples))
    assert runs == ref_runs == [(21, False)]
    assert rhos.shape == (n_samples, 21, 21) and np.array_equal(rhos, ref)


def test_rk45_matrix_equals_solve_ivp_on_abandoned_fock_starts(monkeypatch):
    # the capped vacuum run of the doubling test: abandoned at 3 and 6
    # levels in mid-run, finished at 12, sampled at 11 times
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    monkeypatch.setattr(dynamics, "_FOCK_START_MAX_DIM", 6)
    monkeypatch.setattr(dynamics, "_FOCK_MAX_DIM", 12)
    with pytest.warns(TruncationWarning):
        (runs, rhos), (ref_runs, ref) = _fock_runs_by_both_steppers(
            monkeypatch, proto,
            lambda d: states.coherent_state(0.0, omega0, proto.mass, "fock", d),
            dynamics.NoiseChannel("q", 1e3), t_eval=np.linspace(0.0, proto.t_f, 11))
    assert runs == ref_runs == [(3, True), (6, True), (12, False)]
    assert np.array_equal(rhos, ref)


def test_rk45_matrix_equals_solve_ivp_on_the_dense_two_level_oracle(monkeypatch):
    # a fig2 dual cell on the dense master equation, its step capped as in
    # the two-level route's check, at 51 samples
    t_f = 0.5e-3
    proto = ProtocolFamily("tls_dual", {}, t_f).with_free((1.0, 0.0)).build()
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]

    def rhos():
        return dynamics.integrate_master(np.diag([1.0, 0.0]), oracles.tls_hamiltonian(proto),
                                         channels, np.linspace(0.0, t_f, 51),
                                         max_step=t_f / 100)[1]

    out = rhos()
    monkeypatch.setattr(dynamics, "_rk45_matrix", _solve_ivp_rk45_matrix)
    assert np.array_equal(out, rhos())


@pytest.mark.parametrize("t_eval", [[0.0, -1e-3], [0.0, np.nan], [0.0, np.inf],
                                    [0.0, 2e-6, 1e-6], [-1e-6, 1e-6]],
                         ids=["backward", "nan_end", "inf_end", "unsorted", "negative"])
def test_matrix_oracles_reject_an_invalid_t_eval_before_any_step(t_eval):
    # solve_ivp took a backward grid backward, never returned on a NaN or
    # inf end and called an unsorted grid "not within t_span"; a case still
    # running after a second fails on the alarm
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6)
    times = []

    def hamiltonian(t):
        times.append(t)
        return np.zeros((2, 2))

    def alarm(signum, frame):
        raise TimeoutError("still running after a second")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ValueError, match="nondecreasing"):
            dynamics.integrate_master(np.eye(2) / 2, hamiltonian, [], t_eval)
        with pytest.raises(ValueError, match="nondecreasing"):
            dynamics.integrate_ho_master(
                proto, lambda d: states.coherent_state(0.0, omega0, proto.mass, "fock", d),
                dynamics.NoiseChannel("q", 10.0), t_eval=t_eval)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert times == []


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
    # free values (-1.4e16, -2.0e14) give a fig3-like protocol with 3.4e17
    # periods of phase: the quadrature refuses its 5e18 intervals instead of
    # sweeping them. The trap builders reject these free values, whose solve
    # cancels past double precision and misses the boundary conditions, so
    # the protocol is built from the solved coefficients directly
    omega0 = TWO_PI * 15.92e6
    t_f, form = 100e-6, "inverse_sqrt_poly"
    inner = protocols._ermakov_inner(omega0, omega0 / 100.0, t_f, form,
                                     (-1.4097324734086768e16, -195530639951983.28))
    proto = HoProtocol(inner=inner, form=form, omega0=omega0, omega_f=omega0 / 100.0,
                       mass=MASS_100_CA40, t_f=t_f)
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
    init = states.thermal_state(n_bar, omega0, proto.mass)
    ts, ys = dynamics.integrate_moments(
        proto.omega_sq, init.raw(), channel, t_f, proto.mass,
        t_eval=np.linspace(0.0, t_f, 401), rtol=1e-13, atol=1e-14,
    )
    target = states.thermal_state(n_bar, proto.omega_f, proto.mass)
    f_ode = states.gaussian_fidelity(states.GaussianMoments.from_raw(*ys[-1]), target)
    p_ode = measures.average_power(proto.omega_sq_dot, ys[:, 2], proto.mass, t_f,
                                   grid=len(ts))

    fid, power = dynamics.thermal_fidelity(proto, n_bar, channel)
    assert abs(fid - f_ode) <= 1e-11
    assert abs(power - p_ode) <= 1e-8 * abs(p_ode)


def test_magnus_q2_moments_reject_other_channels():
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    y0 = states.thermal_state(1.0, omega0, proto.mass).raw()
    for tag in ("q", "sigma_z"):
        with pytest.raises(UnsupportedChannel):
            dynamics.magnus_q2_moments(proto, y0, dynamics.NoiseChannel(tag, 1.0))
