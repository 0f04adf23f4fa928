"""Protocol construction: boundary conditions, controls, families."""

import importlib.util
import sys
import threading
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import cumulative_simpson, quad, simpson
from scipy.interpolate import CubicSpline

from invariant_control import algebra, cli, dynamics, optimize, protocols
from invariant_control.constants import MASS_100_CA40, TWO_PI
from invariant_control.dynamics import tls_fidelity
from invariant_control.errors import IllConditionedPhase, InvariantControlError, NonPositiveRho, NoRoot
from invariant_control.polynomial import BoundaryPolynomial
from invariant_control.protocols import (
    BSpec,
    DEFAULT_STEEP_CHAIN,
    HoProtocol,
    ProtocolFamily,
    SmoothstepChain,
    _smoothstep_scalar,
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
    np.testing.assert_allclose(chain(us, 1), fd1, rtol=1e-4, atol=1e-5)
    # monotone on [0, 1] up to roundoff in the flat tails
    vals = chain(np.linspace(0.0, 1.0, 401))
    assert np.all(np.diff(vals) >= -1e-12)


def _smoothstep_pow_form(n, u, order):
    """The power-sum smoothstep that the Horner form replaced (oracle)."""
    u = np.asarray(u, dtype=float)
    if order == 0:
        out = np.zeros_like(u)
        for k in range(n + 1):
            out += comb(n + k, k) * comb(2 * n + 1, n - k) * (-u) ** k
        return u ** (n + 1) * out
    return (2 * n + 1) * comb(2 * n, n) * (u * (1.0 - u)) ** n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smoothstep_horner_matches_pow_form(n):
    rng = np.random.default_rng(n)
    us = np.concatenate([np.linspace(0.0, 1.0, 10001), rng.uniform(0.0, 1.0, 200_000)])
    for order in (0, 1):
        np.testing.assert_allclose(
            _smoothstep_scalar(n, us, order), _smoothstep_pow_form(n, us, order),
            rtol=0.0, atol=5e-14,
        )
    # exact flat edges keep a windowed chain exactly 0 or 1 outside its window
    ends = np.array([0.0, 1.0])
    assert _smoothstep_scalar(n, ends, 0).tolist() == [0.0, 1.0]
    assert _smoothstep_scalar(n, ends, 1).tolist() == [0.0, 0.0]


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


def _composed(chain, ts, order):
    """chain(ts, order) composed step by step from _smoothstep_scalar."""
    lo, hi = chain.window
    val = np.clip((ts / chain.duration - lo) / (hi - lo), 0.0, 1.0)
    der = np.ones_like(val)
    for n in reversed(chain.orders):
        der = der * _smoothstep_scalar(n, val, 1)
        val = _smoothstep_scalar(n, val, 0)
    return val if order == 0 else der * (1.0 / ((hi - lo) * chain.duration))


def _counting_evaluate(monkeypatch):
    """Record every chain an empty memo has to evaluate."""
    monkeypatch.setattr(protocols, "_chain_samples", protocols._SampleMemo(4 << 20))
    seen = []
    evaluate = SmoothstepChain._evaluate

    def counting(self, t, order):
        seen.append((self, order, len(t)))
        return evaluate(self, t, order)

    monkeypatch.setattr(SmoothstepChain, "_evaluate", counting)
    return seen


@pytest.mark.parametrize("order", [0, 1])
def test_memoized_chain_samples_equal_a_fresh_evaluation(order):
    chain = SmoothstepChain(DEFAULT_STEEP_CHAIN, T_F, window=(0.05, 0.9))
    ts = np.linspace(0.0, T_F, 1001)
    first, again = chain(ts, order), chain(ts.copy(), order)
    assert again is first  # equal samples hit
    assert np.array_equal(first, chain._evaluate(ts, order))
    assert np.array_equal(first, _composed(chain, ts, order))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0


def test_chain_memo_hits_only_equal_samples(monkeypatch):
    seen = _counting_evaluate(monkeypatch)
    ts = np.linspace(0.0, T_F, 801)
    chain = SmoothstepChain((3, 3), T_F)
    base = chain(ts)
    # same size and ends, another interior
    moved = ts.copy()
    moved[400] += 0.25 * (ts[1] - ts[0])
    assert np.array_equal(chain(moved), _composed(chain, moved, 0))
    assert chain(moved)[400] != base[400]
    # other windows, orders and durations on the same samples
    others = [SmoothstepChain((3, 3), T_F, window=(0.0, 0.5)),
              SmoothstepChain((3, 2), T_F), SmoothstepChain((3, 3), 2.0 * T_F)]
    for other in others:
        assert np.array_equal(other(ts), _composed(other, ts, 0))
    assert np.array_equal(chain(ts, 1), _composed(chain, ts, 1))
    assert chain(ts) is base
    assert len(seen) == 6  # base, moved, three others, order 1: no collision


def test_chain_memo_stays_within_its_bound():
    memo = protocols._SampleMemo(max_bytes=64 * 1024)
    chain = SmoothstepChain((3,), 1.0)
    for n in range(1, 400, 7):
        ts = np.linspace(0.0, 1.0, n)
        assert np.array_equal(memo(chain, ts, 0), _composed(chain, ts, 0))
        held = sum(len(key[-1].data) + val.nbytes for key, val in memo._entries.items())
        assert memo.nbytes == held <= memo.max_bytes
    # the newest entry stays; one larger than the bound is returned, not held
    assert memo(chain, ts, 0) is memo(chain, ts.copy(), 0)
    big = np.linspace(0.0, 1.0, 5000)
    out = memo(chain, big, 0)
    assert np.array_equal(out, _composed(chain, big, 0)) and memo.nbytes <= memo.max_bytes
    assert memo(chain, big, 0) is not out
    assert protocols._chain_samples.nbytes <= protocols._chain_samples.max_bytes


def test_chain_memo_shared_by_threads_keeps_its_count():
    memo = protocols._SampleMemo(max_bytes=32 * 1024)
    chains = [SmoothstepChain((3,), 1.0), SmoothstepChain((2, 3), 1.0)]
    grids = [np.linspace(0.0, 1.0, n) for n in range(50, 450, 20)]
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            chain, ts = chains[rng.integers(2)], grids[rng.integers(len(grids))]
            if not np.array_equal(memo(chain, ts, 0), _composed(chain, ts, 0)):
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not wrong
    held = sum(len(key[-1].data) + val.nbytes for key, val in memo._entries.items())
    assert memo.nbytes == held <= memo.max_bytes


def test_dual_scan_samples_each_chain_once_per_grid(monkeypatch):
    # a chain depends on (orders, duration, window) only: over a 9-cell
    # tls_dual scan of the closed forms each one is sampled once on the grid
    calls = []

    def counting(n, u, order):
        calls.append(n)
        return step(n, u, order)

    step = protocols._smoothstep_scalar
    monkeypatch.setattr(protocols, "_smoothstep_scalar", counting)
    monkeypatch.setattr(protocols, "_chain_samples", protocols._SampleMemo(4 << 20))
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    family = ProtocolFamily("tls_dual", {"delta0": DELTA0}, T_F)
    chains = set()

    def cell(free):
        proto = family.with_free(free).build()
        for path in (proto.g_poly, proto.b_poly):
            chains.update(p for w, p in zip(path.weights, path.paths) if w != 0.0)
        return cli._tls_dual_measures(proto, None, channels)

    rows = optimize.scan(cell, [[-1.0, 1.0], [0.0, 1.0]], [3, 3])
    # base, steep, early = rise and late = fall: B's windows are G's
    assert len(rows) == 9 and len(chains) == 4
    assert len(calls) == sum(len(c.orders) for c in chains)


def _read_only(a):
    out = np.array(a)
    out.flags.writeable = False
    return out


def test_path_combo_slot_hits_only_equal_read_only_samples_of_one_order():
    g = make_tls_dual_protocol(DELTA0, T_F, -0.5, 0.7).g_poly
    ts = _read_only(np.linspace(0.0, T_F, 801))
    first = g(ts)
    assert g(_read_only(ts)) is first  # equal samples hit
    assert np.array_equal(first, replace(g)(ts))  # a fresh combo, empty slot
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    # another interior, another length, another shape on the same bytes:
    # each misses, equals a fresh evaluation and replaces the slot
    moved = np.array(ts)
    moved[400] += 0.25 * (ts[1] - ts[0])
    for t in (_read_only(moved), ts[:-1], ts.reshape(1, -1)):
        got = g(t)
        assert got is not first and np.array_equal(got, replace(g)(t))
        assert g(t) is got and not got.flags.writeable
    again = g(ts)
    assert again is not first and np.array_equal(again, first)
    # each order keeps its own slot
    slope = g(ts, 1)
    assert np.array_equal(slope, replace(g)(ts, 1))
    assert g(ts) is again and g(ts, 1) is slope
    # writable samples are evaluated afresh, read-only out, and empty the
    # slot of their order only
    fresh = g(np.array(ts))
    assert fresh is not again and np.array_equal(fresh, again) and not fresh.flags.writeable
    assert g(ts, 1) is slope
    assert g(ts) is not again
    assert replace(g) == g  # the slot takes no part in equality


def test_a_dual_cell_samples_each_angle_path_once(monkeypatch):
    # cli._tls_dual_measures hands G to closed_form_O_z and closed_form_O_x:
    # the second read hits G's slot, so each chain is called once per path
    calls = []
    chain_call = SmoothstepChain.__call__

    def counting(self, t, order=0):
        calls.append((self, order))
        return chain_call(self, t, order)

    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    want = cli._tls_dual_measures(make_tls_dual_protocol(DELTA0, T_F, -0.5, 0.7), None, channels)
    monkeypatch.setattr(SmoothstepChain, "__call__", counting)
    proto = make_tls_dual_protocol(DELTA0, T_F, -0.5, 0.7)
    assert cli._tls_dual_measures(proto, None, channels) == want
    g_chains, b_chains = ([(p, 0) for w, p in zip(path.weights, path.paths) if w != 0.0]
                          for path in (proto.g_poly, proto.b_poly))
    assert calls == g_chains + b_chains and len(g_chains) == 3


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


@pytest.mark.parametrize("form", ["inverse_sqrt_poly", "sqrt_poly"])
def test_ho_omega_sq_dot_equals_the_rho_derivative_route(form):
    # one evaluation of P and its powers, the expressions of rho(t, k): same bits
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form=form, r_extra=(3.0,))
    ts = np.linspace(0.0, proto.t_f, 401)
    rho, r1, r2, r3 = (proto.rho(ts, k) for k in range(4))
    old = -4.0 * omega0**2 * r1 / rho**5 - (r3 * rho - r2 * r1) / rho**2
    assert np.array_equal(proto.omega_sq_dot(ts), old)


def _chain_rule_rho(proto, t, order):
    """rho = P^a or its derivative of the given order, each order by its own
    chain-rule expression: the oracle of HoProtocol._rho_derivs."""
    a = proto._power
    p, p1, p2, p3 = (proto.inner(t, k) for k in range(4))
    return (p**a, a * p ** (a - 1) * p1,
            a * (a - 1) * p ** (a - 2) * p1**2 + a * p ** (a - 1) * p2,
            a * (a - 1) * (a - 2) * p ** (a - 3) * p1**3
            + 3 * a * (a - 1) * p ** (a - 2) * p1 * p2 + a * p ** (a - 1) * p3)[order]


@pytest.mark.parametrize("form", ["inverse_sqrt_poly", "sqrt_poly"])
def test_ho_rho_derivatives_equal_the_chain_rule_of_each_order(form):
    # one evaluation of P, its derivatives and its powers for every order:
    # the same bits and types as each order's own expression, on arrays and
    # on Python floats
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form=form, r_extra=(3.0,))
    ts = np.linspace(0.0, proto.t_f, 401)
    for t in (ts, float(ts[37])):
        want = [_chain_rule_rho(proto, t, k) for k in range(4)]
        for order in range(4):
            got = proto._rho_derivs(t, order)
            assert len(got) == order + 1
            for g, w in zip(got, want):
                assert type(g) is type(w) and np.array_equal(g, w)
            assert np.array_equal(proto.rho(t, order), want[order])
        assert np.array_equal(proto.omega_sq(t),
                              algebra.omega_sq_from_rho(want[0], want[2], omega0))
    for order in (-1, 4):
        with pytest.raises(ValueError):
            proto.rho(ts, order)


def test_ho_negligible_leading_coefficient_leaves_the_phase_as_is():
    # a top coefficient below epsilon times the largest moves P by less than
    # roundoff, so the roots drop it: a subnormal one (whose companion matrix
    # would overflow) and a normal 1e-300 (whose companion matrix found
    # spurious real roots) are both admitted, with the phase of the
    # protocol without it
    omega0 = TWO_PI * 2.53e6
    ref = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly")
    for r6 in (2.2250738585e-313, 1e-300):
        proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=5e-6, form="sqrt_poly",
                                 r_extra=(r6,))
        assert proto.inner.coefficients[-1] == r6
        assert proto.theta(proto.t_f) == pytest.approx(ref.theta(ref.t_f), rel=1e-15)


def test_path_weights_that_are_not_finite_raise():
    # g4 = 1e308 puts pi (1 - g4) past the largest double
    for g4 in (1e308, -1e308):
        with pytest.raises(InvariantControlError, match="not all finite"):
            make_tls_steep_protocol(TWO_PI * 10e3, 0.5e-3, g4)
    with pytest.raises(InvariantControlError):
        protocols.PathCombo(np.nan, (), ())


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
    for form in ("inverse_sqrt_poly", "sqrt_poly"):
        proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=20e-6, form=form)
        ts = np.linspace(0.0, proto.t_f, 101)
        fq, fp, gq, gp = proto.heisenberg_coeffs(ts)
        np.testing.assert_allclose(fq * gp - fp * gq, 1.0, rtol=1e-7)
        # built on rho(t) and rho(t, 1) bit for bit, array and scalar
        for t in (ts, ts[37]):
            rho, rho_dot, th = proto.rho(t), proto.rho(t, 1), proto.theta(t)
            c, s = np.cos(th), np.sin(th)
            expected = (rho * c, rho * s / (proto.mass * omega0),
                        proto.mass * (rho_dot * c - (omega0 / rho) * s),
                        (rho_dot * s + (omega0 / rho) * c) / omega0)
            for got, want in zip(proto.heisenberg_coeffs(t), expected):
                assert np.array_equal(got, want)
                assert type(got) is (np.ndarray if t is ts else float)
    # the constant-mu flow, in units omega0 = t_f = 1, at k^2 > 0 (mu = -3),
    # k^2 < 0 (mu = -1/2, 1/2), k = 0 (|mu| = 2) and mu = 0: unit
    # determinant, M(0) = 1 and the equations of motion by central differences
    mass, h = 2.0, 1e-6
    for omega_f, mu in ((0.25, -3.0), (1.0 / 1.5, -0.5), (2.0, 0.5), (1.0 / 3.0, -2.0),
                        (1.0, 0.0)):
        ref = make_constant_mu_protocol(1.0, omega_f, 1.0, mass)
        assert ref.mu == mu
        ts = np.linspace(0.0, 1.0, 101)
        fq, fp, gq, gp = ref.heisenberg_coeffs(ts)
        np.testing.assert_allclose(fq * gp - fp * gq, 1.0, rtol=1e-13)
        assert np.array_equal([fq[0], fp[0], gq[0], gp[0]], [1.0, 0.0, 0.0, 1.0])
        inner = ts[1:-1]
        slopes = ((a - b) / (2.0 * h) for a, b in zip(ref.heisenberg_coeffs(inner + h),
                                                      ref.heisenberg_coeffs(inner - h)))
        fqi, fpi, gqi, gpi = (c[1:-1] for c in (fq, fp, gq, gp))
        w_sq = ref.omega_sq(inner)
        rates = (gqi / mass, gpi / mass, -mass * w_sq * fqi, -mass * w_sq * fpi)
        for slope, rate in zip(slopes, rates):
            np.testing.assert_allclose(slope, rate, rtol=1e-7, atol=1e-7 * np.abs(rate).max())
        if mu == 0.0:  # the static trap
            expected = (np.cos(ts), np.sin(ts) / mass, -mass * np.sin(ts), np.cos(ts))
            for got, want in zip((fq, fp, gq, gp), expected):
                assert np.array_equal(got, want)


# the spline route of theta and the Simpson route of g that the closed forms
# replaced: the oracles of the phase tests


def _spline_theta(proto, t):
    """omega0 int_0^t dt'/rho^2 from a cubic spline through an 8193-point
    cumulative Simpson sum."""
    ts = np.linspace(0.0, proto.t_f, 8193)
    vals = cumulative_simpson(1.0 / proto.rho(ts) ** 2, x=ts, initial=0.0)
    return proto.omega0 * CubicSpline(ts, vals)(t)


def _simpson_g(proto):
    """int_0^tf dt/rho^2 by composite Simpson on 2001 samples."""
    ts = np.linspace(0.0, proto.t_f, 2001)
    return float(simpson(1.0 / proto.rho(ts) ** 2, x=ts))


def _trap_cells(config):
    """Every HoProtocol that a scan of config builds; infeasible cells are
    left out, as the scan skips them."""
    cells = []

    def build(family):
        try:
            proto = family.build()
        except (NonPositiveRho, NoRoot):
            return {}
        if isinstance(proto, HoProtocol):
            cells.append(proto)
        return {}

    for _, family, ranges, sizes in cli._EXPERIMENTS[config.experiment].plan(config):
        optimize.scan(lambda free: build(family.with_free(free)), ranges, sizes)
    return cells


def _default_trap_cells():
    return [proto for experiment in ("ho_coherent", "ho_thermal")
            for proto in _trap_cells(cli.ExperimentConfig(experiment=experiment))]


def _benchmark_thermal_cells(seed):
    """The sqrt_poly cells of the benchmark's ho_thermal workload at seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [proto for cfg in inputs.make_inputs("ho_thermal", seed)["configs"].values()
            for proto in _trap_cells(cli.ExperimentConfig.from_dict(cfg))]


def _random_trap_cells(n):
    """Feasible protocols of both forms with random free coefficients."""
    rng = np.random.default_rng(11)
    cells = []
    while len(cells) < n:
        form = ("inverse_sqrt_poly", "sqrt_poly")[len(cells) % 2]
        nu0, t_f = ((15.92e6, rng.uniform(20e-6, 100e-6)) if form == "inverse_sqrt_poly"
                    else (2.53e6, 10 ** rng.uniform(np.log10(0.2e-6), np.log10(20e-6))))
        k = rng.integers(1, 3)
        extra = rng.uniform(-1.0, 1.0, k) * 10 ** rng.uniform(0.0, 3.0, k)
        try:
            cells.append(make_ho_protocol(TWO_PI * nu0, TWO_PI * nu0 / 100.0, t_f=t_f,
                                          form=form, r_extra=extra))
        except NonPositiveRho:
            pass
    return cells


def test_phase_matches_spline_and_simpson_oracles():
    # on every default fig3/fig4 cell and on random free coefficients of both
    # forms: theta within 2e-12 theta(t_f) of the spline on 1001 points and g
    # within 1e-10 of Simpson. Those bounds are the oracles' own errors: on
    # 400 random cells the spline is off by up to 1.4e-12 theta(t_f) near
    # t = 0, and Simpson by up to 5.6e-11, while the closed form stays within
    # 1e-14 of quad (1e-13 asserted on g)
    cells = _default_trap_cells()
    assert len(cells) == 9 + 100
    for proto in cells + _random_trap_cells(60):
        ts = np.linspace(0.0, proto.t_f, 1001)
        theta = proto.theta(ts)
        assert theta[0] == 0.0
        assert np.abs(theta - _spline_theta(proto, ts)).max() <= 2e-12 * theta[-1]
        assert proto.g_phase == pytest.approx(_simpson_g(proto), rel=1e-10, abs=0.0)
        c, duration = proto.inner.coefficients, proto.inner.duration
        integrand = ((lambda s: npoly.polyval(s, c)) if proto.form == "inverse_sqrt_poly"
                     else (lambda s: 1.0 / npoly.polyval(s, c)))
        exact = duration * quad(integrand, 0.0, proto.t_f / duration,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert proto.g_phase == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert proto.theta(proto.t_f) == proto.omega0 * proto.g_phase


def test_static_trap_phase_is_omega0_t():
    # omega_f = omega0 gives the constant inner polynomial P = 1: no roots
    omega0 = TWO_PI * 2.53e6
    proto = make_ho_protocol(omega0, omega0, t_f=5e-6, form="sqrt_poly")
    ts = np.linspace(0.0, proto.t_f, 11)
    assert np.array_equal(proto.theta(ts), omega0 * ts)


def test_nearly_repeated_roots_trip_the_phase_guard(monkeypatch):
    # P = (s + 1/2)(s + 1/2 + d)(s^2 + 1) / P(0): positive on [0, t_f], with
    # two real roots d apart at s = -1/2; the phase sum cancels about 1.5/d
    # times, against at most 3.4 on the default and benchmark cells
    omega0, t_f = TWO_PI * 2.53e6, 5e-6
    trap = dict(form="sqrt_poly", omega0=omega0, omega_f=omega0 / 100.0,
                mass=MASS_100_CA40, t_f=t_f)

    def clustered(d):
        c = npoly.polymul(npoly.polyfromroots([-0.5, -0.5 - d]), [1.0, 0.0, 1.0])
        return HoProtocol(inner=BoundaryPolynomial(c / c[0], t_f), **trap)

    assert clustered(1e-2).theta(t_f) > 0.0
    for d in (1e-3, 1e-6, 0.0):
        proto = clustered(d)  # feasible: the roots lie off [0, t_f]
        with pytest.raises(IllConditionedPhase):
            proto.theta(t_f)
        with pytest.raises(IllConditionedPhase):
            proto.g_phase
    # the cells that run stay two orders of magnitude below the guard
    monkeypatch.setattr(protocols, "_PHASE_CANCELLATION_MAX", 10.0)
    cells = _default_trap_cells() + _benchmark_thermal_cells(1) + _benchmark_thermal_cells(7)
    assert sum(proto.form == "sqrt_poly" for proto in cells) == 100 + 2 * 96
    for proto in cells:
        assert proto.theta(proto.t_f) > 0.0


def test_constrain_g_phase_hits_target():
    omega0 = TWO_PI * 15.92e6
    g_target = 50.5e-6
    for r6 in (-15.0, 0.0, 4.0):
        proto = constrain_g_phase(omega0, omega0 / 100.0, g_target, r6=r6)
        assert proto.g_phase == pytest.approx(g_target, rel=1e-12)


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


def test_constrain_g_phase_solves_only_the_inverse_sqrt_form():
    omega0 = TWO_PI * 2.53e6
    with pytest.raises(ValueError):
        constrain_g_phase(omega0, omega0 / 100.0, 5e-6, t_f=10e-6, form="sqrt_poly")


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


EVERY_KIND = [
    ProtocolFamily("tls_steep_blend", {"delta0": DELTA0}, T_F, (0.8,)),
    ProtocolFamily("tls_dual", {"delta0": DELTA0}, T_F, (-0.5, 0.3)),
    ProtocolFamily(
        "ho_coherent",
        {"omega0": TWO_PI * 15.92e6, "omega_f": TWO_PI * 15.92e4,
         "mass": MASS_100_CA40, "g_target": 50.5e-6},
        100e-6,
        (-10.0,),
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


def test_protocol_family_builds_every_kind():
    assert {fam.kind for fam in EVERY_KIND} == set(protocols._BUILDERS)
    for fam in EVERY_KIND:
        assert fam.build() is not None


def test_family_builds_go_through_the_module_level_builders(monkeypatch):
    # the benchmark's tracer counts builds and cells by patching these names
    # in protocols, so build() must look them up there on every call
    calls = []
    for name in ("make_tls_steep_protocol", "make_tls_dual_protocol", "make_ho_protocol",
                 "constrain_g_phase", "make_constant_mu_protocol"):
        def counting(*args, _name=name, _builder=getattr(protocols, name), **kwargs):
            calls.append(_name)
            return _builder(*args, **kwargs)

        monkeypatch.setattr(protocols, name, counting)
    expected = {
        "tls_steep_blend": ["make_tls_steep_protocol"],
        "tls_dual": ["make_tls_dual_protocol"],
        "ho_coherent": ["constrain_g_phase", "make_ho_protocol"],
        "ho_thermal": ["make_ho_protocol"],
        "ho_constant_mu": ["make_constant_mu_protocol"],
    }
    for fam in EVERY_KIND:
        calls.clear()
        fam.build()
        assert calls == expected[fam.kind], fam.kind


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
