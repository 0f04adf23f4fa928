"""Seeded workload inputs, generated with the standard library only.

The launcher and the set-up probe import this module before the package
under test, so it must not import numpy, scipy or invariant_control.

Every draw stays inside the paper's parameter ranges. Scan axes are
randomly shifted lattices: the seed moves the grid inside the range but the
grid always covers it evenly, so a pass does the same amount of work for
every seed. Where a cell's cost grows with a drawn duration, cells come in
antithetic pairs (t and t_lo + t_hi - t) so the pass cost stays put.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1
WORKLOADS = ("tls_scan", "ho_coherent", "ho_thermal", "design")
CLI_WORKLOADS = ("tls_scan", "ho_coherent", "ho_thermal")

MASS_100_CA40_AMU = 100 * 39.9626

# paper parameters (laboratory units, as the invctl config takes them)
TLS_PARAMS = {"delta0_hz": 10e3, "t_f": 0.5e-3}
TLS_SINGLE_CHANNELS = [{"operator_tag": "sigma_z", "eta": 250.0}]
TLS_DUAL_CHANNELS = [
    {"operator_tag": "sigma_z", "eta": 125.0},
    {"operator_tag": "sigma_x", "eta": 62.5},
]
G4_RANGE = (-0.5, 1.25)
SHAPE_RANGE = (-1.0, 1.0)
R6_COHERENT_RANGE = (-20.0, 5.0)
T_F_COHERENT_US = (20.0, 50.0)
G_TARGET_PER_T_F = 0.505
R6_THERMAL_RANGE = (0.0, 800.0)
T_F_THERMAL_US = (0.2, 20.0)

# sizes of one pass
N_G4 = 6
N_SHAPE = 2
N_T_F_THERMAL, N_R6_THERMAL = 6, 7
DESIGN_STEEP = 240
DESIGN_SHAPE, DESIGN_DIP = 20, 14
DESIGN_R6 = 120
DESIGN_WEIGHTS = 12


def _mass():
    # m/hbar in s/angstrom^2, as invariant_control.constants defines it
    amu = 1.66053906660e-27 / 1.054571817e-34 * 1e-20
    return MASS_100_CA40_AMU * amu


def lattice(rng: random.Random, lo: float, hi: float, n: int):
    """(first, last) of an n-point grid on [lo, hi) shifted by a uniform draw.

    The points are first + k (hi - lo) / n for k < n, i.e. what
    numpy.linspace(first, last, n) gives.
    """
    step = (hi - lo) / n
    first = lo + rng.random() * step
    return first, first + (n - 1) * step


def _tls_scan(rng):
    g_lo, g_hi = lattice(rng, *G4_RANGE, N_G4)
    # one negative and one positive shape: the plateau cell gets cheaper and
    # the steep cell dearer as the lattice shifts right, so the sum holds
    s_lo, s_hi = lattice(rng, *SHAPE_RANGE, N_SHAPE)
    b_dip = rng.random()
    return {
        "configs": {
            "fig1": {
                "experiment": "tls_single",
                "params": dict(TLS_PARAMS, measure="O"),
                "channels": TLS_SINGLE_CHANNELS,
                "scan": {"ranges": [[g_lo, g_hi]], "sizes": [N_G4]},
                "basename": "fig1",
            },
            "fig2": {
                "experiment": "tls_dual",
                "params": dict(TLS_PARAMS),
                "channels": TLS_DUAL_CHANNELS,
                "scan": {"ranges": [[s_lo, s_hi], [b_dip, b_dip]],
                         "sizes": [N_SHAPE, 1]},
                "basename": "fig2",
            },
        },
    }


def _ho_coherent(rng):
    lo, hi = T_F_COHERENT_US
    t_a = lo + (hi - lo) * rng.random()
    configs = {}
    # fig3a/fig3b: an antithetic t_f pair; fig3c: the Fock cross-check cell,
    # at the shortest duration, because Fock cost grows faster than t_f
    for name, t_us in (("fig3a", t_a), ("fig3b", lo + hi - t_a), ("fig3c", lo)):
        t_f = t_us * 1e-6
        r6 = R6_COHERENT_RANGE[0] + rng.random() * (
            R6_COHERENT_RANGE[1] - R6_COHERENT_RANGE[0])
        configs[name] = {
            "experiment": "ho_coherent",
            "params": {
                "nu0_hz": 15.92e6, "omega_ratio": 100.0, "t_f": t_f,
                "alpha_re": 1.0, "alpha_im": 1.0,
                "g_target": G_TARGET_PER_T_F * t_f, "mass": _mass(),
            },
            "channels": [{"operator_tag": "q", "eta": 10.0}],
            "scan": {"ranges": [[r6, r6]], "sizes": [1]},
            "basename": name,
        }
    return {"configs": configs, "fock_cell": "fig3c"}


def _ho_thermal(rng):
    lo, hi = T_F_THERMAL_US
    ratio = (hi / lo) ** (1.0 / N_T_F_THERMAL)
    u = rng.random()
    configs = {}
    # the t_f lattice is shifted in log space; the two sweeps take
    # antithetic shifts u and 1 - u so the long (costly) durations balance
    for name, shift in (("fig4a", u), ("fig4b", 1.0 - u)):
        t_lo = lo * ratio**shift * 1e-6
        r_lo, r_hi = lattice(rng, *R6_THERMAL_RANGE, N_R6_THERMAL)
        configs[name] = {
            "experiment": "ho_thermal",
            "params": {
                "nu0_hz": 2.53e6, "omega_ratio": 100.0, "n_bar": 12.58,
                "t_f_lo": t_lo, "t_f_hi": t_lo * ratio ** (N_T_F_THERMAL - 1),
                "n_t_f": N_T_F_THERMAL, "mass": _mass(),
            },
            "channels": [{"operator_tag": "q_squared", "eta": 0.0527}],
            "scan": {"ranges": [[r_lo, r_hi]], "sizes": [N_R6_THERMAL]},
            "basename": name,
        }
    return {"configs": configs}


def _design(rng):
    t_f_us = T_F_COHERENT_US[0] + rng.random() * (
        T_F_COHERENT_US[1] - T_F_COHERENT_US[0])
    w_lo, w_hi = lattice(rng, 0.0, 1.0, DESIGN_WEIGHTS)
    return {
        "spec": {
            "delta0": 2.0 * math.pi * TLS_PARAMS["delta0_hz"],
            "t_f": TLS_PARAMS["t_f"],
            "etas": [c["eta"] for c in TLS_DUAL_CHANNELS],
            "steep": {"range": list(lattice(rng, *G4_RANGE, DESIGN_STEEP)),
                      "size": DESIGN_STEEP},
            "dual": {"ranges": [list(lattice(rng, *SHAPE_RANGE, DESIGN_SHAPE)),
                                list(lattice(rng, 0.0, 1.0, DESIGN_DIP))],
                     "sizes": [DESIGN_SHAPE, DESIGN_DIP]},
            "coherent": {
                "omega0": 2.0 * math.pi * 15.92e6, "omega_ratio": 100.0,
                "mass": _mass(), "t_f": t_f_us * 1e-6,
                "g_target": G_TARGET_PER_T_F * t_f_us * 1e-6,
                "r6": list(lattice(rng, *R6_COHERENT_RANGE, DESIGN_R6)),
                "size": DESIGN_R6,
            },
            "weights": {"range": [w_lo, w_hi], "size": DESIGN_WEIGHTS},
        },
    }


_MAKERS = {
    "tls_scan": _tls_scan,
    "ho_coherent": _ho_coherent,
    "ho_thermal": _ho_thermal,
    "design": _design,
}


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload: invctl configs, or the design spec."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
