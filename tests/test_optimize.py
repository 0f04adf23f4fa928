"""Grid scans and simplex descent."""

import numpy as np
import pytest

from invariant_control import measures, optimize
from invariant_control.constants import TWO_PI
from invariant_control.errors import NonFiniteObjective
from invariant_control.protocols import ProtocolFamily, constrain_g_phase


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


def test_minimize_quadratic():
    best, val = optimize.minimize(quadratic, [2.0, -1.5])
    np.testing.assert_allclose(best, 0.3, atol=1e-4)
    assert val < 1e-7


def test_minimize_never_worse_than_start():
    # a deceptive objective that punishes any move from the start
    def spiky(x):
        return 0.0 if np.allclose(x, 1.0) else 5.0

    best, val = optimize.minimize(spiky, [1.0], max_iter=10)
    assert val == 0.0
    np.testing.assert_allclose(best, 1.0)


def test_minimize_nonfinite_start_raises():
    with pytest.raises(NonFiniteObjective):
        optimize.minimize(lambda x: np.nan, [0.0])


def test_objective_builds_protocol_from_family():
    delta0, t_f = TWO_PI * 10e3, 0.5e-3
    fam = ProtocolFamily("tls_steep_blend", {"delta0": delta0}, t_f, (0.0,))
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
