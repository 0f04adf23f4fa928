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

from invariant_control import (algebra, cli, dynamics, measures, optimize, polynomial,
                               protocols, states)
from invariant_control.constants import MASS_100_CA40, TWO_PI
from invariant_control.dynamics import tls_fidelity
from invariant_control.errors import (DimensionMismatch, IllConditionedPhase, InvariantControlError,
                                     NonPositiveRho, NoRoot)
from invariant_control.polynomial import BoundaryPolynomial
from invariant_control.protocols import (
    BSpec,
    DEFAULT_STEEP_CHAIN,
    HoProtocol,
    ProtocolFamily,
    SmoothstepChain,
    _smoothstep,
    constrain_g_phase,
    make_constant_mu_protocol,
    make_ho_protocol,
    make_tls_dual_protocol,
    make_tls_protocol,
    make_tls_steep_protocol,
)

import oracles

DELTA0 = TWO_PI * 10e3
T_F = 0.5e-3


# ---------------------------------------------------------------------------
# two-level protocols


def test_tls_boundary_conditions():
    proto = make_tls_protocol(T_F)
    ts = np.array([0.0, T_F])
    g, b = proto.g_poly(ts), proto.b_poly(ts)
    np.testing.assert_allclose(g, [np.pi, 0.0], atol=1e-9)
    np.testing.assert_allclose(b, [np.pi / 2, np.pi / 2], atol=1e-9)
    assert abs(proto.g_poly(0.0, 1)) < 1e-9 / T_F
    assert abs(proto.g_poly(T_F, 1)) < 1e-9 / T_F


def test_tls_controls_regular_and_zero_at_edges():
    proto = make_tls_protocol(T_F)
    ts = np.linspace(0.0, T_F, 101)
    delta, omega = proto.controls(ts)
    assert np.all(np.isfinite(delta)) and np.all(np.isfinite(omega))
    assert abs(delta[0]) < 1e-9 and abs(delta[-1]) < 1e-9
    assert abs(omega[0]) < 1e-9 and abs(omega[-1]) < 1e-9


def test_tls_invariant_equation_on_interior_grid():
    rng = np.random.default_rng(17)
    for g_extra in ((), tuple(rng.uniform(-1.0, 1.0, 2))):
        proto = make_tls_protocol(T_F, g_extra)
        hamiltonian = oracles.tls_hamiltonian(proto)
        invariant = oracles.tls_invariant(proto, DELTA0)
        h_step = 1e-7 * T_F
        for t in np.linspace(0.1 * T_F, 0.9 * T_F, 17):
            h = hamiltonian(t)
            di_dt = (invariant(t + h_step) - invariant(t - h_step)) / (2.0 * h_step)
            comm = -1j * (h @ invariant(t) - invariant(t) @ h)
            scale = np.max(np.abs(di_dt)) + DELTA0
            np.testing.assert_allclose(di_dt, comm, atol=1e-5 * scale)


def test_boundary_detuning_spec_hits_target_at_edges():
    # G touches the poles quadratically, so the removable limit gives
    # Delta(t_b) = -3 Bdot(t_b); interior pins hold B near pi/2
    b_spec = BSpec(b0_dot=-DELTA0 / 3.0, bf_dot=DELTA0 / 3.0, pins=(0.25, 0.5, 0.75))
    proto = make_tls_protocol(T_F, b_spec=b_spec)
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
            _smoothstep(n, us)[order], _smoothstep_pow_form(n, us, order),
            rtol=0.0, atol=5e-14,
        )
    # exact flat edges keep a windowed chain exactly 0 or 1 outside its window
    value, slope = _smoothstep(n, np.array([0.0, 1.0]))
    assert value.tolist() == [0.0, 1.0]
    assert slope.tolist() == [0.0, 0.0]


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


@pytest.mark.parametrize("window", [(0.8, 0.2), (0.5, 0.5), (-0.1, 0.5), (0.5, 1.1),
                                    (np.nan, 0.5)])
def test_a_chain_window_outside_the_unit_interval_raises(window):
    chain = SmoothstepChain((3,), 1.0, window=window)
    for order in (0, 1):
        with pytest.raises(ValueError, match="window"):
            chain(np.linspace(0.0, 1.0, 5), order)


def test_a_chain_order_other_than_0_or_1_raises():
    chain = SmoothstepChain((3,), 1.0)
    ts = np.linspace(0.0, 1.0, 5)
    chain(ts)  # the memo holds value and slope: a negative index would pick one
    # a combo raises whether or not any of its weights is nonzero
    combos = (protocols.PathCombo(np.pi / 2, (), ()), protocols.PathCombo(0.5, (0.0,), (chain,)),
              protocols.PathCombo(0.5, (1.0,), (chain,)))
    for order in (-2, -1, 2):
        for path in (chain, *combos):
            with pytest.raises(ValueError, match="up to order 1"):
                path(ts, order)


def test_path_combo_weights_and_paths_of_unequal_length_raise():
    chain = SmoothstepChain((3,), T_F)
    for weights in ((1.0, 2.0), ()):
        with pytest.raises(DimensionMismatch):
            protocols.PathCombo(0.0, weights, (chain,))


@pytest.mark.parametrize("t_f", [-0.5e-3, 0.0, np.inf, np.nan])
def test_chain_families_reject_a_t_f_not_positive_and_finite(t_f):
    with pytest.raises(ValueError, match="positive and finite"):
        make_tls_steep_protocol(t_f, 0.5)
    with pytest.raises(ValueError, match="positive and finite"):
        make_tls_dual_protocol(t_f, -0.5, 0.5)


def _composed(chain, ts, order):
    """chain(ts, order) composed step by step from _smoothstep."""
    lo, hi = chain.window
    val = np.clip((ts / chain.duration - lo) / (hi - lo), 0.0, 1.0)
    der = np.ones_like(val)
    for n in reversed(chain.orders):
        val, slope = _smoothstep(n, val)
        der = der * slope
    return val if order == 0 else der * (1.0 / ((hi - lo) * chain.duration))


def _counting_evaluate(monkeypatch):
    """Record every chain an empty memo has to evaluate."""
    bound = protocols._chain_samples.max_bytes
    monkeypatch.setattr(protocols, "_chain_samples", protocols._SampleMemo(bound))
    seen = []
    evaluate = SmoothstepChain._evaluate

    def counting(self, t):
        seen.append((self, len(t)))
        return evaluate(self, t)

    monkeypatch.setattr(SmoothstepChain, "_evaluate", counting)
    return seen


@pytest.mark.parametrize("order", [0, 1])
def test_memoized_chain_samples_equal_a_fresh_evaluation(order):
    chain = SmoothstepChain(DEFAULT_STEEP_CHAIN, T_F, window=(0.05, 0.9))
    ts = np.linspace(0.0, T_F, 1001)
    first, again = chain(ts, order), chain(ts.copy(), order)
    assert again is first  # equal samples hit
    assert np.array_equal(first, chain._evaluate(ts)[order])
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
    assert len(seen) == 5  # base (order 1 hits), moved, three others: no collision


def _held(memo):
    """Bytes of the t, value and slope of every memo entry."""
    return sum(len(samples.data) + val.nbytes + der.nbytes
               for (_, samples), (val, der) in memo._entries.items())


def test_one_evaluation_serves_both_orders(monkeypatch):
    seen = _counting_evaluate(monkeypatch)
    ts = np.linspace(0.0, T_F, 801)
    chain = SmoothstepChain(DEFAULT_STEEP_CHAIN, T_F, window=(0.05, 0.9))
    value, slope = chain(ts), chain(ts.copy(), 1)
    assert seen == [(chain, 801)]
    assert np.array_equal(value, _composed(chain, ts, 0))
    assert np.array_equal(slope, _composed(chain, ts, 1))
    # both orders of a three-chain G on a writable batch: one pass per chain
    g = make_tls_dual_protocol(T_F, -0.5, 0.7).g_poly
    batch = np.linspace(0.0, T_F, 601)
    seen.clear()
    g(batch), g(batch, 1)
    assert sorted(n for _, n in seen) == [601] * 3 and len(set(seen)) == 3


def test_chain_memo_stays_within_its_bound():
    memo = protocols._SampleMemo(max_bytes=64 * 1024)
    chain = SmoothstepChain((3,), 1.0)
    for n in range(1, 400, 7):
        ts = np.linspace(0.0, 1.0, n)
        assert np.array_equal(memo(chain, ts)[0], _composed(chain, ts, 0))
        assert memo.nbytes == _held(memo) <= memo.max_bytes
    # the newest entry stays; one larger than the bound is returned, not held
    assert memo(chain, ts) is memo(chain, ts.copy())
    big = np.linspace(0.0, 1.0, 3000)  # t and value 48 kB, with the slope 72 kB
    out = memo(chain, big)
    assert all(np.array_equal(out[k], _composed(chain, big, k)) for k in (0, 1))
    assert memo.nbytes <= memo.max_bytes
    assert memo(chain, big)[0] is not out[0]
    assert protocols._chain_samples.nbytes <= protocols._chain_samples.max_bytes


def test_a_memo_pushed_past_its_bound_empties_then_holds_the_newest_entry():
    memo = protocols._SampleMemo(max_bytes=64 * 1024)
    chain = SmoothstepChain((3,), 1.0)
    grids = [np.linspace(0.0, 1.0, n) for n in (1000, 1001, 1002)]  # 24 kB each
    held = [memo(chain, ts) for ts in grids[:2]]
    assert len(memo._entries) == 2 and memo.nbytes == _held(memo) == 24 * (1000 + 1001)
    newest = memo(chain, grids[2])  # 48 kB + 24 kB passes 64 kiB
    assert len(memo._entries) == 1 and memo.nbytes == _held(memo) == 24 * 1002
    assert memo(chain, grids[2].copy()) is newest
    # an emptied entry is evaluated afresh, to the same bits
    again = memo(chain, grids[0])
    assert again is not held[0]
    assert all(np.array_equal(again[k], held[0][k]) for k in (0, 1))


def test_reproducing_every_figure_never_empties_the_chain_memo(tmp_path, monkeypatch):
    # the traffic that lets the memo drop least-recently-used order: fig1-fig4
    # in one process, from an empty memo and empty closed-form slots, hold
    # every chain sampling they make (0.74 MiB, 42 entries, when measured)
    seen = _counting_evaluate(monkeypatch)
    memo = protocols._chain_samples
    measures._slots.clear()
    for figure in ("fig1", "fig2", "fig3", "fig4"):
        assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
    assert seen and len(memo._entries) == len(seen)
    assert memo.nbytes == _held(memo) <= memo.max_bytes


def test_chain_memo_shared_by_threads_keeps_its_count():
    memo = protocols._SampleMemo(max_bytes=32 * 1024)
    chains = [SmoothstepChain((3,), 1.0), SmoothstepChain((2, 3), 1.0)]
    grids = [np.linspace(0.0, 1.0, n) for n in range(50, 450, 20)]
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            chain, ts = chains[rng.integers(2)], grids[rng.integers(len(grids))]
            if not np.array_equal(memo(chain, ts)[0], _composed(chain, ts, 0)):
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
    assert memo.nbytes == _held(memo) <= memo.max_bytes


def test_dual_scan_samples_each_chain_once_per_grid(monkeypatch):
    # a chain depends on (orders, duration, window) only: over a 9-cell
    # tls_dual scan of the closed forms each one is sampled once on the grid,
    # value and slope together: one smoothstep call per level
    calls = []

    def counting(n, u):
        calls.append(n)
        return step(n, u)

    step = protocols._smoothstep
    monkeypatch.setattr(protocols, "_smoothstep", counting)
    monkeypatch.setattr(protocols, "_chain_samples", protocols._SampleMemo(4 << 20))
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    family = ProtocolFamily("tls_dual", {}, T_F)
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


def _combined(path, ts, order):
    """path(ts, order) of a PathCombo, combined from _composed chain samples."""
    acc = np.full(ts.shape, path.constant if order == 0 else 0.0)
    for w, chain in zip(path.weights, path.paths):
        if w != 0.0:
            acc += w * _composed(chain, ts, order)
    return acc


def test_path_combo_samples_equal_a_fresh_combination():
    # every call combines afresh: samples of either order, on read-only or
    # writable t of any interior, length or shape, equal the chains combined
    # by hand, and equal combos give equal samples
    g = make_tls_dual_protocol(T_F, -0.5, 0.7).g_poly
    ts = _read_only(np.linspace(0.0, T_F, 801))
    moved = np.array(ts)
    moved[400] += 0.25 * (ts[1] - ts[0])
    for t in (ts, np.array(ts), _read_only(moved), ts[:-1], ts.reshape(1, -1)):
        for order in (0, 1):
            got = g(t, order)
            assert got.shape == t.shape and np.array_equal(got, _combined(g, t, order))
            again = g(t, order)
            assert again is not got and np.array_equal(again, got)
            assert np.array_equal(replace(g)(t, order), got)
    assert not np.array_equal(g(moved), g(ts))
    assert replace(g) == g and replace(g) is not g


def _counting_combos(monkeypatch):
    """Record (combo, order) of every PathCombo call on the closed-form grid."""
    calls = []
    combo_call = protocols.PathCombo.__call__
    grid = measures._simpson_rule(T_F, 4001)[0]

    def counting(self, t, order=0):
        if t is grid:
            calls.append((self, order))
        return combo_call(self, t, order)

    monkeypatch.setattr(protocols.PathCombo, "__call__", counting)
    return calls


def test_a_dual_cell_samples_each_angle_path_once(monkeypatch):
    # cli._tls_dual_measures hands G to closed_form_O_z and closed_form_O_x:
    # the second read hits G's sine slot, so a cell samples each path once
    # on the grid; a repeat cell of that shape builds a fresh G equal to the
    # last, which hits, and samples B only
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    want = cli._tls_dual_measures(make_tls_dual_protocol(T_F, -0.5, 0.7), None, channels)
    calls = _counting_combos(monkeypatch)
    measures._slots.clear()
    proto = make_tls_dual_protocol(T_F, -0.5, 0.7)
    assert cli._tls_dual_measures(proto, None, channels) == want
    assert [(id(p), order) for p, order in calls] == [(id(proto.g_poly), 0), (id(proto.b_poly), 0)]
    calls.clear()
    repeat = make_tls_dual_protocol(T_F, -0.5, 0.2)
    assert repeat.g_poly == proto.g_poly and repeat.g_poly is not proto.g_poly
    cli._tls_dual_measures(repeat, None, channels)
    assert [(id(p), order) for p, order in calls] == [(id(repeat.b_poly), 0)]


def test_dual_cells_of_one_shape_equal_cold_cells_bit_for_bit(monkeypatch):
    # a 5 x 4 scan whose shape axis comes back to its first shape after
    # another and holds 0.0 then -0.0 (equal G paths): each cell, its G hit
    # in the slots or not, gives the O_z, O_x, O_bar and, on every other
    # b_dip, the fidelity of a cold cell with empty closed-form slots
    shapes = (-0.5, 0.0, -0.0, 0.75, -0.5)
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    family = ProtocolFamily("tls_dual", {}, T_F)

    def cell(coeffs):
        i, j = round(coeffs[0]), round(3 * coeffs[1])
        proto = family.with_free((shapes[i], coeffs[1])).build()
        out = cli._tls_dual_measures(proto, None, channels)
        if j % 2:
            out["fidelity"] = tls_fidelity(proto, channels)
        return out

    def cold(coeffs):
        measures._slots.clear()
        return cell(coeffs)

    ranges, sizes = [[0.0, 4.0], [0.0, 1.0]], [5, 4]
    want = [r.measures for r in optimize.scan(cold, ranges, sizes)]
    measures._slots.clear()
    calls = _counting_combos(monkeypatch)
    got = [r.measures for r in optimize.scan(cell, ranges, sizes)]
    # repr, unlike ==, tells -0.0 from 0.0
    assert repr(got) == repr(want) and len(got) == 20
    assert sum("fidelity" in m for m in got) == 10
    # G is sampled once per run of equal shapes (0.0 and -0.0 are one run);
    # B once per cell at -0.5, where it moves with b_dip, and once per run
    # at shape >= 0, where it stays at pi/2
    g_samples = [p for p, _ in calls if p.constant == np.pi]
    assert len(g_samples) == 4 and len(calls) - len(g_samples) == 4 + 1 + 1 + 4
    assert repr(g_samples[1].weights) == repr((-np.pi, -0.0))  # shape 0.0 sampled, -0.0 hit


def test_dual_scan_takes_one_sine_per_distinct_g(monkeypatch):
    # row-major over (shape, b_dip): the three cells of one shape share G, so
    # O_z and O_x of the scan take one 4001-point sine per shape
    sines = []
    sin = np.sin

    def counting(x, *args, **kwargs):
        sines.append(np.size(x))
        return sin(x, *args, **kwargs)

    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    family = ProtocolFamily("tls_dual", {}, T_F)

    def cell(free):
        return cli._tls_dual_measures(family.with_free(free).build(), None, channels)

    def run():
        return [r.measures for r in optimize.scan(cell, [[-1.0, 1.0], [0.0, 1.0]], [3, 3])]

    cold = []
    for shape in (-1.0, 0.0, 1.0):
        for b_dip in (0.0, 0.5, 1.0):
            measures._slots.clear()
            cold.append(cell((shape, b_dip)))
    measures._slots.clear()
    monkeypatch.setattr(np, "sin", counting)
    assert run() == cold
    assert sines == [4001] * 3


def test_path_combo_copies_the_samples_once_per_call(monkeypatch):
    # a three-chain G builds one _Samples of t and hands it to every chain
    built = []

    class Counting(protocols._Samples):
        __slots__ = ()

        def __init__(self, t):
            built.append(t.size)
            super().__init__(t)

    g = make_tls_dual_protocol(T_F, -0.5, 0.7).g_poly
    ts = np.linspace(0.0, T_F, 801)
    want = replace(g)(ts)
    monkeypatch.setattr(protocols, "_Samples", Counting)
    assert len([w for w in g.weights if w != 0.0]) == 3
    for t in (ts, _read_only(ts), _read_only(ts)):  # writable, then read-only twice
        built.clear()
        assert np.array_equal(g(t), want) and built == [801]


def test_steep_blend_endpoints_and_midpoint():
    for g4 in (0.0, 0.5, 1.0):
        proto = make_tls_steep_protocol(T_F, g4)
        g = proto.g_poly(np.array([0.0, 0.5 * T_F, T_F]))
        np.testing.assert_allclose(g, [np.pi, np.pi / 2, 0.0], atol=1e-12)


def test_dual_family_reduces_to_steep_blend_without_plateau():
    # for shape >= 0 the azimuth dip is disabled and the polar path matches
    # the single-channel steep blend at g4 = shape
    ts = np.linspace(0.0, T_F, 301)
    for shape in (0.0, 0.4, 1.0):
        dual = make_tls_dual_protocol(T_F, shape, 0.7)
        single = make_tls_steep_protocol(T_F, shape)
        np.testing.assert_allclose(dual.g_poly(ts), single.g_poly(ts), atol=1e-14)
        np.testing.assert_allclose(dual.b_poly(ts), np.pi / 2, atol=1e-14)
        # B is exactly flat on the equator, so the detuning is exactly 0
        assert not np.any(dual.controls(ts)[0])


def test_dual_family_plateau_and_dip():
    proto = make_tls_dual_protocol(T_F, -1.0, 1.0)
    g, b = proto.g_poly(np.array([0.5 * T_F])), proto.b_poly(np.array([0.5 * T_F]))
    assert g[0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert b[0] == pytest.approx(np.pi / 2 - 0.95 * np.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        make_tls_dual_protocol(T_F, 1.5, 0.0)
    with pytest.raises(ValueError):
        make_tls_dual_protocol(T_F, 0.0, -0.1)


def test_tls_controls_go_through_the_algebra_formula(monkeypatch):
    # the one SU(2) control formula, looked up at call time
    calls = []
    formula = algebra.su2_controls_from_angles

    def counting(*args):
        calls.append(len(args[0]))
        return formula(*args)

    monkeypatch.setattr(algebra, "su2_controls_from_angles", counting)
    proto = make_tls_dual_protocol(T_F, -0.5, 0.5)
    delta, omega = proto.controls(np.linspace(0.0, T_F, 101))
    assert calls and calls[0] == 101
    assert np.all(np.isfinite(delta)) and np.all(np.isfinite(omega))


def _default_cells(experiment):
    """The protocol of every cell of the experiment's default invctl scan."""
    config = cli.ExperimentConfig(experiment=experiment)
    family, protos = cli._family(config), []
    optimize.scan(lambda c: protos.append(family.with_free(c).build()) or 0.0,
                  config.scan["ranges"], config.scan["sizes"])
    return protos


class _FirstBatch(Exception):
    pass


def _first_magnus_batch(proto, channels):
    """The samples of the first controls call of tls_fidelity(proto)."""
    seen = []

    def stop(self, t):
        seen.append(np.array(t))
        raise _FirstBatch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols.TlsProtocol, "controls", stop)
        with pytest.raises(_FirstBatch):
            tls_fidelity(proto, channels)
    return seen[0]


def test_equator_controls_equal_the_formula_without_its_cot_term():
    # every default fig1 cell and every fig2 cell whose B stays at pi/2: the
    # controls skip the general formula and keep its bits, on the first Magnus
    # batch and on the closed forms' 4001-point grid
    channels = [dynamics.NoiseChannel("sigma_z", 125.0), dynamics.NoiseChannel("sigma_x", 62.5)]
    fig1, fig2 = _default_cells("tls_single"), _default_cells("tls_dual")
    equator = [p for p in fig2 if p._b_on_equator]
    assert all(p._b_on_equator for p in fig1) and (len(fig1), len(equator)) == (41, 29)
    for proto in fig1 + equator:
        grid = measures._simpson_rule(proto.t_f, 4001)[0]
        for ts in (_first_magnus_batch(proto, channels), grid):
            got = proto.controls(ts)
            for a, b in zip(got, oracles.equator_controls(proto, ts)):
                assert a.tobytes() == b.tobytes()


def test_the_formula_runs_only_on_the_fig2_cells_whose_b_moves(tmp_path, monkeypatch):
    # reproducing fig1 and fig2 calls algebra.su2_controls_from_angles on the
    # 16 cells with shape < 0 and b_dip > 0 only
    formula, raw = algebra.su2_controls_from_angles, protocols.TlsProtocol._controls_raw
    current, callers = [], {"fig1": set(), "fig2": set()}

    def tracking(self, t):
        current.append(self)
        return raw(self, t)

    def counting(*args):
        callers[figure].add((current[-1].g_poly, current[-1].b_poly))
        return formula(*args)

    monkeypatch.setattr(protocols.TlsProtocol, "_controls_raw", tracking)
    monkeypatch.setattr(algebra, "su2_controls_from_angles", counting)
    for figure in ("fig1", "fig2"):
        assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
    moving = {(p.g_poly, p.b_poly) for p in _default_cells("tls_dual") if any(p.b_poly.weights)}
    assert callers == {"fig1": set(), "fig2": moving} and len(moving) == 16


def test_dual_plateau_protocol_inverts_without_noise():
    # the polar angle only moves inside two narrow windows; the integrator
    # must not step across them even though H = 0 on the long plateau
    proto = make_tls_dual_protocol(T_F, -1.0, 0.5)
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
    res = oracles.ermakov_residual(proto, ts)
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
            make_tls_steep_protocol(0.5e-3, g4)
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


def _benchmark_inputs(workload, seed):
    """The benchmark's seeded inputs of workload (perfbench/inputs.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.make_inputs(workload, seed)


def _benchmark_thermal_cells(seed):
    """The sqrt_poly cells of the benchmark's ho_thermal workload at seed."""
    return [proto for cfg in _benchmark_inputs("ho_thermal", seed)["configs"].values()
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


@pytest.fixture
def fresh_ermakov_basis():
    """An empty _ermakov_basis cache before and after the test, so a basis
    built under a patched solve never outlives it."""
    protocols._ermakov_basis.cache_clear()
    yield protocols._ermakov_basis
    protocols._ermakov_basis.cache_clear()


def _three_solve_constrain(omega0, omega_f, g_target, mass, t_f, r6):
    """The g-constrained build that the cached affine basis replaced, kept as
    its oracle: solve at r7 = 0 and 1, put r7 on the line through the two
    phases, and solve a third time there."""
    g0, g1 = (float(protocols._ermakov_inner(omega0, omega_f, t_f, "inverse_sqrt_poly", (r6, r7))
                    .antiderivative_at(t_f)) for r7 in (0.0, 1.0))
    if g1 == g0:
        raise NoRoot("phase integral does not depend on r7")
    return make_ho_protocol(omega0, omega_f, mass, t_f, "inverse_sqrt_poly",
                            (r6, (g_target - g0) / (g1 - g0)))


def _coherent_cells(config):
    """(omega0, omega_f, g_target, mass, t_f, r6) of every cell that a scan
    of config builds."""
    cells = []
    for _, family, ranges, sizes in cli._EXPERIMENTS[config.experiment].plan(config):
        p = family.params

        def record(free):
            cells.append((p["omega0"], p["omega_f"], p["g_target"], p["mass"], family.t_f,
                          free[0]))
            return 0.0

        optimize.scan(record, ranges, sizes)
    return cells


def _design_cells(seed):
    """The cells of the benchmark design's constrained scan at seed."""
    c = _benchmark_inputs("design", seed)["spec"]["coherent"]
    return [(c["omega0"], c["omega0"] / c["omega_ratio"], c["g_target"], c["mass"], c["t_f"],
             float(r6)) for r6 in np.linspace(*c["r6"], c["size"])]


def _constrained_deviations(cells):
    """Largest deviations of constrain_g_phase from the three-solve oracle
    over cells, and the r6 of the cells that both find infeasible."""
    dev = dict.fromkeys(("s0", "w_sq", "r7", "miss", "oracle_miss"), 0.0)
    infeasible = []
    for omega0, omega_f, g_target, mass, t_f, r6 in cells:
        protos = []
        for build in (constrain_g_phase, _three_solve_constrain):
            try:
                protos.append(build(omega0, omega_f, g_target, mass, t_f, r6=r6))
            except (NonPositiveRho, NoRoot):
                protos.append(None)
        if None in protos:
            assert protos == [None, None], r6
            infeasible.append(r6)
            continue
        new, old = protos
        assert new.inner.free_values[0] == old.inner.free_values[0] == r6
        s0_new, s0_old = (measures.ho_overlap_Sn(p.rho, 0, mass, omega0, t_f) for p in protos)
        ts = np.linspace(0.0, t_f, 4001)
        w_new, w_old = new.omega_sq(ts), old.omega_sq(ts)
        for key, value in (("s0", abs(s0_new / s0_old - 1.0)),
                           ("w_sq", np.abs(w_new - w_old).max() / np.abs(w_old).max()),
                           ("r7", abs(new.inner.free_values[1] / old.inner.free_values[1] - 1.0)),
                           ("miss", abs(new.g_phase / g_target - 1.0)),
                           ("oracle_miss", abs(old.g_phase / g_target - 1.0))):
            dev[key] = max(dev[key], float(value))
    return dev, infeasible


def test_constrained_builds_agree_with_the_three_solve_oracle():
    # the cells that run: the default fig3 scan, the benchmark's ho_coherent
    # cells at seed 1 and its design scans at seeds 1, 5, 7 and 29, 492 in
    # all. Measured: S0 within 5.7e-14 relative, omega^2 within 5.7e-14 of
    # its maximum on the design's 4001-point grid, r7 within 1.6e-12
    # relative, and the phase within 4.3e-15 of g_target (the oracle: 4.3e-14)
    cells = _coherent_cells(cli.ExperimentConfig(experiment="ho_coherent"))
    for cfg in _benchmark_inputs("ho_coherent", 1)["configs"].values():
        cells += _coherent_cells(cli.ExperimentConfig.from_dict(cfg))
    for seed in (1, 5, 7, 29):
        cells += _design_cells(seed)
    assert len(cells) == 9 + 3 + 4 * 120
    dev, infeasible = _constrained_deviations(cells)
    assert not infeasible
    bounds = {"s0": 6e-14, "w_sq": 6e-14, "r7": 1.6e-12, "miss": 5e-15,
              "oracle_miss": 5e-14}
    assert all(dev[key] <= bound for key, bound in bounds.items()), dev


def test_wide_constrained_scan_agrees_with_the_oracle_and_misses_less():
    # the default fig3 scan widened to r6 in [-2000, 2000]: the same 24 of
    # 41 cells infeasible on both routes. The feasible ones cancel more, the
    # oracle most: it misses g_target by up to 1.9e-11, the basis by 2.5e-13
    wide = {"experiment": "ho_coherent", "scan": {"ranges": [[-2000, 2000]], "sizes": [41]}}
    dev, infeasible = _constrained_deviations(
        _coherent_cells(cli.ExperimentConfig.from_dict(wide)))
    assert len(infeasible) == 24
    bounds = {"s0": 4.8e-11, "w_sq": 3.6e-11, "r7": 1.6e-12, "miss": 2.6e-13,
              "oracle_miss": 2e-11}
    assert all(dev[key] <= bound for key, bound in bounds.items()), dev


def test_a_constrained_scan_solves_three_times_per_trap(monkeypatch, fresh_ermakov_basis):
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        return polynomial.solve_boundary_polynomial(*args, **kwargs)

    monkeypatch.setattr(protocols, "solve_boundary_polynomial", counting)
    omega0, t_f = TWO_PI * 15.92e6, 30e-6
    for repeat in range(2):
        solves.clear()
        for r6 in np.linspace(-20.0, 5.0, 120):
            constrain_g_phase(omega0, omega0 / 100.0, 0.505 * t_f, t_f=t_f, r6=r6)
        assert len(solves) == (3 if repeat == 0 else 0)
    assert fresh_ermakov_basis.cache_info().currsize == 1


def test_the_ermakov_basis_is_read_only_and_affine(fresh_ermakov_basis):
    omega0, t_f = TWO_PI * 15.92e6, 100e-6
    c0, e6, e7, g0, g6, g7 = fresh_ermakov_basis(omega0, omega0 / 100.0, t_f,
                                                 "inverse_sqrt_poly")
    for c in (c0, e6, e7):
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 0.0
    # the free slots hold r6 and r7 exactly
    assert (e6[6], e6[7], e7[6], e7[7], c0[6], c0[7]) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=t_f, r_extra=(-3.0, 2.0))
    c = proto.inner.coefficients
    np.testing.assert_allclose(c, c0 - 3.0 * e6 + 2.0 * e7, rtol=0.0,
                               atol=1e-15 * np.abs(c).max())
    assert proto.g_phase == pytest.approx(g0 - 3.0 * g6 + 2.0 * g7, rel=1e-14)


@pytest.mark.parametrize("change, error", [
    ({"g_target": np.nan}, InvariantControlError),
    ({"g_target": np.inf}, InvariantControlError),
    ({"g_target": -np.inf}, InvariantControlError),
    ({"r6": np.nan}, InvariantControlError),
    ({"r6": np.inf}, InvariantControlError),
    ({"r6": -np.inf}, InvariantControlError),
    ({"g_target": -10e-6}, NonPositiveRho),
    ({"g_target": 0.0}, NonPositiveRho),
    ({"g_target": 1e-9}, NonPositiveRho),
    ({"form": "sqrt_poly"}, ValueError),
])
def test_invalid_constrained_inputs_raise_as_the_three_solve_route_did(change, error):
    # the exception classes of the three-solve route, which the cached
    # basis keeps
    omega0 = TWO_PI * 15.92e6
    args = dict(omega0=omega0, omega_f=omega0 / 100.0, g_target=50.5e-6, r6=-10.0)
    with pytest.raises(error) as raised:
        constrain_g_phase(**{**args, **change})
    if error is InvariantControlError:  # not one of its subclasses
        assert type(raised.value) is InvariantControlError


@pytest.mark.parametrize("name", ["omega0", "omega_f", "mass", "t_f"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_trap_builders_reject_a_value_not_positive_and_finite(name, value, monkeypatch,
                                                             fresh_ermakov_basis):
    # before any solve or basis lookup: an inf or NaN t_f used to end in the
    # solve's LinAlgError, a NaN mass built a protocol, and a NaN key never
    # hits the cache
    monkeypatch.setattr(protocols, "solve_boundary_polynomial", None)
    args = dict(omega0=TWO_PI * 15.92e6, omega_f=TWO_PI * 15.92e4, mass=MASS_100_CA40,
                t_f=100e-6)
    args[name] = value
    with pytest.raises(ValueError, match="positive and finite"):
        make_ho_protocol(**args)
    with pytest.raises(ValueError, match="positive and finite"):
        constrain_g_phase(g_target=50.5e-6, **args)
    with pytest.raises(ValueError, match="positive and finite"):
        make_constant_mu_protocol(**args)
    if name == "t_f":
        with pytest.raises(ValueError, match="positive and finite"):
            make_tls_protocol(value)
    info = fresh_ermakov_basis.cache_info()
    assert info.hits + info.misses == 0


#: every builder and state constructor that checks positive, finite values,
#: as (call, the names of those values)
_POSITIVE_CHECKS = {
    "make_tls_protocol": (make_tls_protocol, ("t_f",)),
    "make_tls_steep_protocol": (lambda t_f: make_tls_steep_protocol(t_f, 0.5), ("t_f",)),
    "make_tls_dual_protocol": (lambda t_f: make_tls_dual_protocol(t_f, 0.5, 0.5), ("t_f",)),
    "make_ho_protocol": (make_ho_protocol, ("omega0", "omega_f", "mass", "t_f")),
    "constrain_g_phase": (lambda **kw: constrain_g_phase(g_target=50.5e-6, **kw),
                          ("omega0", "omega_f", "mass", "t_f")),
    "make_constant_mu_protocol": (make_constant_mu_protocol,
                                  ("omega0", "omega_f", "mass", "t_f")),
    "thermal_state": (lambda **kw: states.thermal_state(1.0, **kw), ("omega", "mass")),
    "coherent_state": (lambda **kw: states.coherent_state(1.0 + 1.0j, **kw), ("omega", "mass")),
}
_POSITIVE_DEFAULTS = dict(t_f=100e-6, omega0=TWO_PI * 15.92e6, omega_f=TWO_PI * 15.92e4,
                          mass=MASS_100_CA40, omega=TWO_PI * 15.92e6)


@pytest.mark.parametrize("name", sorted(_POSITIVE_CHECKS))
def test_an_int_past_the_float_range_is_rejected_as_not_finite(name):
    # 10**400 compares as positive, but isfinite cannot convert it: the
    # check's own ValueError, not a bare OverflowError
    call, names = _POSITIVE_CHECKS[name]
    for arg in names:
        values = {n: _POSITIVE_DEFAULTS[n] for n in names}
        values[arg] = 10**400
        with pytest.raises(ValueError, match=f"{arg}.*must be positive and finite"):
            call(**values)


def test_a_constrained_phase_that_misses_its_target_raises(monkeypatch):
    omega0, t_f = TWO_PI * 15.92e6, 100e-6
    args = (omega0, omega0 / 100.0, 50.5e-6, MASS_100_CA40, t_f)
    # the three-solve route returned this cell with a phase 2e14 times its
    # target: its coefficients reach 4e16, and P's integral cancels past
    # double precision, as do its boundary values, which its last step,
    # make_ho_protocol, now checks
    r6 = -1.4097324734086768e16
    with pytest.raises(InvariantControlError, match="boundary conditions"):
        _three_solve_constrain(*args, r6)
    with pytest.raises((NoRoot, NonPositiveRho)):
        constrain_g_phase(*args, r6=r6)
    # a basis whose phase g0 is off by 1e-6 relative (here g0 is about
    # g_target): a cell that passes the positivity check then misses by
    # 1e-6 and raises NoRoot, and one off by 1e-12 passes
    c0, e6, e7, g0, g6, g7 = protocols._ermakov_basis(omega0, omega0 / 100.0, t_f,
                                                      "inverse_sqrt_poly")
    for off, raises in ((1e-6, True), (1e-12, False)):
        monkeypatch.setattr(protocols, "_ermakov_basis",
                            lambda *key, off=off: (c0, e6, e7, g0 * (1.0 + off), g6, g7))
        if raises:
            with pytest.raises(NoRoot, match="misses g_target"):
                constrain_g_phase(*args, r6=-10.0)
        else:
            constrain_g_phase(*args, r6=-10.0)


_W_COHERENT, _W_THERMAL = TWO_PI * 15.92e6, TWO_PI * 2.53e6


@pytest.mark.parametrize("build, error", [
    # the free values whose solve gives rho(t_f) = 1 for a target of 10 and
    # rho_dot t_f = -1 at both ends: the phase-cap test's protocol
    ((make_ho_protocol, _W_COHERENT, 100e-6, "inverse_sqrt_poly",
      (-1.4097324734086768e16, -195530639951983.28)), InvariantControlError),
    ((make_ho_protocol, _W_COHERENT, 20e-6, "inverse_sqrt_poly", (-65834309019.35805,)),
     InvariantControlError),
    ((make_ho_protocol, _W_THERMAL, 20e-6, "sqrt_poly", (-70706728776826.31,)),
     InvariantControlError),
    ((make_ho_protocol, _W_COHERENT, 20e-6, "inverse_sqrt_poly", (-80556.32323719097,)), None),
    ((make_ho_protocol, _W_THERMAL, 20e-6, "sqrt_poly", (1e3, -1e3)), None),
    # large |r6| constrained builds: P dips below zero before its boundary
    # values cancel
    *(((constrain_g_phase, _W_COHERENT, t_f, r6), error)
      for t_f in (20e-6, 100e-6)
      for r6, error in ((1e3, None), (-1e3, NonPositiveRho if t_f > 50e-6 else None),
                        (1e4, NonPositiveRho), (-1e8, NonPositiveRho), (1e12, NonPositiveRho),
                        (1e16, NonPositiveRho), (-1.4097324734086768e16, NonPositiveRho))),
], ids=lambda v: (f"{v[0].__name__}-{v[2] * 1e6:g}us-{v[-1]}" if isinstance(v, tuple)
                  else getattr(v, "__name__", "meets")))
def test_trap_builds_meet_their_boundary_conditions_or_raise(build, error):
    # a build either meets P(0) = 1, P(t_f) = its target and P' = P'' = 0 at
    # both ends, checked here in physical time to 1e-9 of the larger target
    # (P' t_f and P'' t_f^2), or raises: a free value that cancels past
    # double precision no longer gives a protocol that breaks them
    builder, omega0, t_f, *rest = build
    if builder is make_ho_protocol:
        form, extra = rest
        call = lambda: make_ho_protocol(omega0, omega0 / 100.0, MASS_100_CA40, t_f, form, extra)
    else:
        call = lambda: constrain_g_phase(omega0, omega0 / 100.0, 50.5e-6, MASS_100_CA40, t_f,
                                         r6=rest[0])
    if error is not None:
        match = "boundary conditions" if error is InvariantControlError else None
        with pytest.raises(error, match=match):
            call()
        return
    proto = call()
    p_final = 0.01 if proto.form == "inverse_sqrt_poly" else 100.0
    assert proto.rho(t_f) == pytest.approx(10.0, rel=1e-9)
    for t, target in ((0.0, 1.0), (t_f, p_final)):
        misses = (proto.inner(t) - target, proto.inner(t, 1) * t_f, proto.inner(t, 2) * t_f**2)
        assert max(map(abs, misses)) <= 1e-9 * max(1.0, p_final)


def test_boundary_values_equal_horners_rule_bit_for_bit():
    # _meets_boundaries reads P, dP/ds and d2P/ds2 at s = 0 off the
    # coefficients (c0, c1, 2 c2) and takes Horner's rule at t_f only: on
    # every default fig3/fig4 cell (the g-constrained fig3 builds too) and on
    # random cells of both forms, all six values are Horner's bit for bit
    # (their magnitudes: a zero's sign may differ, which the check's abs
    # cannot see), so every accept, reject and message stays as it was
    cells = _default_trap_cells() + _random_trap_cells(60)
    assert len(cells) > 100
    for proto in cells:
        p = proto.inner
        s_end = proto.t_f / p.duration
        for s, values in zip((0.0, s_end), protocols._boundary_values(p, s_end)):
            want = [polynomial.horner(p._scaled_coeffs(k), s) for k in range(3)]
            assert [abs(v).hex() for v in values] == [abs(w).hex() for w in want]


def test_a_constrained_build_that_misses_its_boundary_conditions_raises(monkeypatch):
    # a basis whose e6 has dP/ds(0) = delta: at r6 = -10 a delta of 1e-6
    # misses by 1e-5 and raises, one of 1e-14 passes
    args = (_W_COHERENT, _W_COHERENT / 100.0, 50.5e-6, MASS_100_CA40, 100e-6)
    c0, e6, e7, g0, g6, g7 = protocols._ermakov_basis(_W_COHERENT, _W_COHERENT / 100.0, 100e-6,
                                                      "inverse_sqrt_poly")
    for delta, raises in ((1e-6, True), (1e-14, False)):
        bent = e6 + delta * np.eye(len(e6))[1]
        monkeypatch.setattr(protocols, "_ermakov_basis",
                            lambda *key, bent=bent: (c0, bent, e7, g0, g6, g7))
        if raises:
            with pytest.raises(InvariantControlError, match="boundary conditions at s = 0"):
                constrain_g_phase(*args, r6=-10.0)
        else:
            constrain_g_phase(*args, r6=-10.0)


def test_the_raw_solve_of_a_rejected_build_misses_its_boundary_conditions():
    # the guard's case: the solve itself, unchecked, gives dP/ds = 2 at s = 0
    # where the condition asks for 0, and P(t_f) = 1 for a target of 0.01
    inner = protocols._ermakov_inner(_W_COHERENT, _W_COHERENT / 100.0, 100e-6, "inverse_sqrt_poly",
                                     (-1.4097324734086768e16, -195530639951983.28))
    assert inner.coefficients[1] == 2.0 and inner(100e-6) == pytest.approx(1.0)


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
    ProtocolFamily("tls_steep_blend", {}, T_F, (0.8,)),
    ProtocolFamily("tls_dual", {}, T_F, (-0.5, 0.3)),
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
        # the constrained build combines a cached basis, without a solve or
        # a make_ho_protocol call of its own
        "ho_coherent": ["constrain_g_phase"],
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


def test_two_level_families_read_no_params():
    # no kind checks its params keys: a two-level family that still carries
    # the invariant's scale builds the same protocol as one without
    for kind, free in (("tls_steep_blend", (0.8,)), ("tls_dual", (-0.5, 0.3))):
        bare = ProtocolFamily(kind, {}, T_F, free).build()
        assert ProtocolFamily(kind, {"delta0": DELTA0}, T_F, free).build() == bare


def test_protocol_family_with_free():
    fam = ProtocolFamily("tls_steep_blend", {}, T_F, (0.0,))
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
