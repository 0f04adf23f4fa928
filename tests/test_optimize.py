"""Grid scans and simplex descent."""

import numpy as np
import pytest

from invariant_control import measures, optimize
from invariant_control.constants import TWO_PI
from invariant_control.errors import NonFiniteObjective
from invariant_control.protocols import ProtocolFamily, constrain_g_phase


def _scipy_minimize(objective, x0, xatol=1e-6, max_iter=500):
    """The scipy route optimize.minimize took before its numpy loop, kept as
    its test oracle; also returns scipy's own count of objective calls."""
    from scipy.optimize import minimize as _nm_minimize

    fn = objective.evaluate if isinstance(objective, optimize.Objective) else objective
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    f0 = float(fn(x0))
    if not np.isfinite(f0):
        raise NonFiniteObjective("objective not finite at the starting point")
    res = _nm_minimize(
        fn, x0, method="Nelder-Mead",
        options={"xatol": xatol, "fatol": 1e-12, "maxiter": max_iter},
    )
    if res.fun <= f0:
        return np.asarray(res.x, dtype=float), float(res.fun), res
    return x0, f0, res


def _counted(fn):
    def wrapped(x):
        wrapped.calls += 1
        return fn(x)

    wrapped.calls = 0
    return wrapped


def rosen(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def terraced(x):
    # plateaus of a paraboloid: flat steps force contractions to fail
    return float(np.floor(8.0 * np.sum((np.asarray(x) - 0.3) ** 2)))


def spiky(x):
    # a deceptive objective that punishes any move from the start
    return 0.0 if np.allclose(x, 1.0) else 5.0


def quadratic(coeffs):
    x = np.asarray(coeffs, dtype=float)
    return float(np.sum((x - 0.3) ** 2))


def test_scan_row_major_order_and_grid():
    rows = optimize.scan(quadratic, [(-1.0, 1.0), (0.0, 2.0)], [3, 2])
    assert len(rows) == 6
    expected = [
        (-1.0, 0.0), (-1.0, 2.0), (0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (1.0, 2.0),
    ]
    assert [r.coeffs for r in rows] == expected
    for r in rows:
        assert r.measures["value"] == pytest.approx(quadratic(r.coeffs))


def test_scan_dict_measures_and_validation():
    rows = optimize.scan(
        lambda c: {"a": c[0], "b": 2.0 * c[0]}, [(0.0, 1.0)], [2]
    )
    assert rows[1].measures == {"a": 1.0, "b": 2.0}
    with pytest.raises(ValueError):
        optimize.scan(quadratic, [(0.0, 1.0)], [2, 3])
    with pytest.raises(ValueError):
        optimize.scan(quadratic, [(0.0, np.inf)], [2])


@pytest.mark.parametrize("sizes", [[0], [-1], [3, 0]])
def test_scan_rejects_an_empty_axis_before_any_cell(sizes):
    fn = _counted(quadratic)
    with pytest.raises(ValueError):
        optimize.scan(fn, [(0.0, 1.0)] * len(sizes), sizes)
    assert fn.calls == 0


def test_scan_without_axes_runs_one_cell():
    rows = optimize.scan(lambda c: len(c), [], [])
    assert [(r.coeffs, r.measures) for r in rows] == [((), {"value": 0.0})]


def test_minimize_quadratic():
    best, val = optimize.minimize(quadratic, [2.0, -1.5])
    np.testing.assert_allclose(best, 0.3, atol=1e-4)
    assert val < 1e-7


def test_minimize_never_worse_than_start():
    best, val = optimize.minimize(spiky, [1.0], max_iter=10)
    assert val == 0.0
    np.testing.assert_allclose(best, 1.0)


def test_minimize_nonfinite_start_raises():
    with pytest.raises(NonFiniteObjective):
        optimize.minimize(lambda x: np.nan, [0.0])


@pytest.mark.parametrize("case", [
    (rosen, [-1.2, 1.0], {}),
    (rosen, [1.3, 0.7, -0.4, 2.1, 0.9], {}),
    (rosen, [0.0, 1.0], {}),  # a zero coordinate starts its vertex at 0.00025
    (rosen, [-1.2, 1.0], {"max_iter": 40}),
    (terraced, [1.3, 0.7, -0.4, 2.1, 0.9], {}),
    (lambda x: np.asarray(rosen(x)), [-1.2, 1.0], {}),  # 0-d array, read by .item()
    (spiky, [1.0], {"max_iter": 10}),
], ids=["rosen2", "rosen5", "zero_coord", "max_iter", "shrink", "0d_value", "spiky"])
def test_minimize_equals_scipy_nelder_mead(case):
    fn, x0, opts = case
    mine, theirs = _counted(fn), _counted(fn)
    best, val = optimize.minimize(mine, x0, **opts)
    best_ref, val_ref, res = _scipy_minimize(theirs, x0, **opts)
    assert np.array_equal(best, best_ref)
    assert val == val_ref
    # the start vertex reuses the start value: scipy's own count, one call
    # fewer than the scipy route, which evaluated the start twice
    assert mine.calls == res.nfev == theirs.calls - 1


def test_the_oracle_cases_reach_the_iteration_cap_and_shrink():
    # the cases above really take those branches
    n = 5
    _, _, res = _scipy_minimize(terraced, [1.3, 0.7, -0.4, 2.1, 0.9])
    # each step without a shrink evaluates at most two points
    assert res.nfev - (n + 1) > 2 * (res.nit - 1)
    _, _, res = _scipy_minimize(rosen, [-1.2, 1.0], max_iter=40)
    assert res.nit == 40 and res.status == 2


@pytest.mark.parametrize("x0", [[], [np.nan, 1.0], [0.0, np.inf], [[1.0, 2.0]]])
def test_minimize_rejects_a_bad_start_before_any_call(x0):
    fn = _counted(quadratic)
    with pytest.raises(ValueError):
        optimize.minimize(fn, x0)
    assert fn.calls == 0


def test_minimize_takes_only_an_integer_iteration_cap():
    # the loop has no evaluation cap: an infinite max_iter could run forever
    fn = _counted(quadratic)
    with pytest.raises(TypeError):
        optimize.minimize(fn, [1.0], max_iter=np.inf)
    assert fn.calls == 0


def test_objective_builds_protocol_from_family():
    fam = ProtocolFamily("tls_steep_blend", {}, 0.5e-3, (0.0,))
    obj = optimize.Objective(
        fam, lambda proto: measures.closed_form_O_z(
            lambda t: proto.g_poly(t), proto.t_f
        )
    )
    # steeper equator crossings spend more time at the poles, lowering O
    assert obj.evaluate((1.0,)) < obj.evaluate((0.0,))


def test_constrained_minimize_scans_and_picks_best():
    omega0 = TWO_PI * 15.92e6
    g_target = 50.5e-6

    def build(r6):
        return constrain_g_phase(omega0, omega0 / 100.0, g_target, r6=r6)

    def s0(proto):
        return measures.ho_overlap_Sn(
            proto.rho, 0, proto.mass, proto.omega0, proto.t_f, grid=401
        )

    best_proto, best_r6, best_val, rows = optimize.constrained_minimize(
        build, [-10.0, 0.0, 5.0], s0
    )
    assert len(rows) == 3
    assert best_val == pytest.approx(min(r[2] for r in rows))
    assert best_r6 == 5.0  # the overlap shrinks monotonically along this scan
    assert best_proto.g_phase == pytest.approx(g_target, rel=1e-6)
