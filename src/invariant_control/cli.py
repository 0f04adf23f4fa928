"""Configuration-driven command-line harness.

Wires protocols, noise channels, integrators, measures and scans into the
four figure-level experiments and writes plot-ready CSV tables. Every table
carries a comment header with the config hash, unit conventions and solver
metadata so provenance travels with the data.

Verbs: synthesize, measure, simulate, scan, reproduce {fig1,fig2,fig3,fig4}.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, measures, protocols, states
from .constants import MASS_100_CA40, TWO_PI
from .errors import ConfigError, InvariantControlError, NoRoot

__all__ = ["ExperimentConfig", "run_tls_single", "run_tls_dual",
           "run_ho_coherent", "run_ho_thermal", "main"]

_EXPERIMENTS = ("tls_single", "tls_dual", "ho_coherent", "ho_thermal", "custom")

_UNIT_NOTE = ("units: time s, angular frequency rad/s, position angstrom, "
              "eta 1/s (Pauli), Hz/angstrom^2 (q), Hz/angstrom^4 (q^2)")

#: experiment defaults in laboratory units (frequencies in Hz, times in s)
_DEFAULTS = {
    "tls_single": {
        "params": {"delta0_hz": 10e3, "t_f": 0.5e-3, "measure": "O"},
        "channels": [{"operator_tag": "sigma_z", "eta": 250.0}],
        "scan": {"ranges": [[-0.5, 1.25]], "sizes": [41]},
    },
    "tls_dual": {
        "params": {"delta0_hz": 10e3, "t_f": 0.5e-3},
        "channels": [
            {"operator_tag": "sigma_z", "eta": 125.0},
            {"operator_tag": "sigma_x", "eta": 62.5},
        ],
        "scan": {"ranges": [[-1.0, 1.0], [0.0, 1.0]], "sizes": [9, 5]},
    },
    "ho_coherent": {
        "params": {
            "nu0_hz": 15.92e6, "omega_ratio": 100.0, "t_f": 100e-6,
            "alpha_re": 1.0, "alpha_im": 1.0, "g_target": 50.5e-6,
            "mass": MASS_100_CA40,
        },
        "channels": [{"operator_tag": "q", "eta": 10.0}],
        "scan": {"ranges": [[-20.0, 5.0]], "sizes": [9]},
    },
    "ho_thermal": {
        "params": {
            "nu0_hz": 2.53e6, "omega_ratio": 100.0, "n_bar": 12.58,
            "t_f_lo": 0.2e-6, "t_f_hi": 20e-6, "n_t_f": 10,
            "mass": MASS_100_CA40,
        },
        "channels": [{"operator_tag": "q_squared", "eta": 0.0527}],
        "scan": {"ranges": [[0.0, 800.0]], "sizes": [9]},
    },
}


#: physical parameters that must be finite and positive, or nonnegative
_POSITIVE_PARAMS = ("nu0_hz", "omega_ratio", "mass", "t_f", "t_f_lo", "t_f_hi")
_NONNEGATIVE_PARAMS = ("n_bar",)


def _finite_param(params, key) -> float:
    try:
        value = float(params[key])
    except (TypeError, ValueError):
        raise ConfigError(f"params.{key}: expected a number, got {params[key]!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"params.{key}: must be finite, got {params[key]!r}")
    return value


@dataclass
class ExperimentConfig:
    """Validated experiment description with JSON round-trip."""

    experiment: str
    params: dict = field(default_factory=dict)
    channels: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)
    rtol: float = 1e-8
    atol: float = 1e-11
    fock_dim: int | str = "auto"
    workers: int = 1
    out_dir: str = "."
    basename: str | None = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown id {self.experiment!r}, "
                f"expected one of {_EXPERIMENTS}"
            )
        base = _DEFAULTS.get(self.experiment, {})
        merged = copy.deepcopy(base.get("params", {}))
        merged.update(self.params)
        self.params = merged
        if not self.channels:
            self.channels = copy.deepcopy(base.get("channels", []))
        if not self.scan:
            self.scan = copy.deepcopy(base.get("scan", {}))
        self._validate()

    def _validate(self):
        p = self.params
        for key in _POSITIVE_PARAMS:
            if key in p and _finite_param(p, key) <= 0:
                raise ConfigError(f"params.{key}: must be positive, got {p[key]!r}")
        for key in _NONNEGATIVE_PARAMS:
            if key in p and _finite_param(p, key) < 0:
                raise ConfigError(f"params.{key}: must be nonnegative, got {p[key]!r}")
        if "t_f_lo" in p and "t_f_hi" in p and float(p["t_f_lo"]) > float(p["t_f_hi"]):
            raise ConfigError("params.t_f_lo: must not exceed params.t_f_hi")
        if "n_t_f" in p:
            n_t_f = _finite_param(p, "n_t_f")
            if n_t_f < 1 or n_t_f != int(n_t_f):
                raise ConfigError(f"params.n_t_f: must be an integer >= 1, got {p['n_t_f']!r}")
        for i, ch in enumerate(self.channels):
            if not isinstance(ch, dict) or "operator_tag" not in ch or "eta" not in ch:
                raise ConfigError(
                    f"channels[{i}]: need operator_tag and eta fields"
                )
            tag = ch["operator_tag"]
            if tag not in dynamics.PAULI_TAGS + dynamics.OSC_TAGS:
                raise ConfigError(f"channels[{i}].operator_tag: unknown tag {tag!r}")
            if self.experiment.startswith("tls") and tag not in dynamics.PAULI_TAGS:
                raise ConfigError(
                    f"channels[{i}]: tag {tag!r} has position units, but the "
                    "experiment is a two-level run"
                )
            if self.experiment.startswith("ho") and tag not in dynamics.OSC_TAGS:
                raise ConfigError(
                    f"channels[{i}]: tag {tag!r} has Pauli units, but the "
                    "experiment is an oscillator run"
                )
            eta = float(ch["eta"])
            if not (np.isfinite(eta) and eta >= 0):
                raise ConfigError(f"channels[{i}].eta: must be finite and nonnegative")
        if self.scan:
            ranges = self.scan.get("ranges", [])
            sizes = self.scan.get("sizes", [])
            if len(ranges) != len(sizes):
                raise ConfigError("scan: ranges and sizes differ in length")
            for r in ranges:
                if len(r) != 2 or not all(np.isfinite(v) for v in r):
                    raise ConfigError(f"scan.ranges: bad interval {r!r}")
            for n in sizes:
                if int(n) < 1:
                    raise ConfigError("scan.sizes: entries must be >= 1")
        if not (self.rtol > 0 and self.atol > 0):
            raise ConfigError("tolerances must be positive")
        if self.fock_dim != "auto" and int(self.fock_dim) < 2:
            raise ConfigError("fock_dim: need at least two levels or 'auto'")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "channels": self.channels,
            "scan": self.scan,
            "rtol": self.rtol,
            "atol": self.atol,
            "fock_dim": self.fock_dim,
            "workers": self.workers,
            "out_dir": self.out_dir,
            "basename": self.basename,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "experiment" not in data:
            raise ConfigError("experiment: missing required field")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @property
    def digest(self) -> str:
        # hash only the fields that affect the computed numbers, so the
        # same physical configuration hashes identically wherever the
        # output lands
        data = self.to_dict()
        data.pop("out_dir")
        data.pop("basename")
        payload = json.dumps(data, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# shared pieces


def _tls_fidelity(protocol, channels, t_f, rtol, atol):
    """Final |1><1| population under the two-level master equation."""
    from . import algebra

    rho0 = np.diag([1.0, 0.0]).astype(complex)

    def hamiltonian(t):
        delta, omega = protocol.controls(np.array([t]))
        return 0.5 * delta[0] * algebra.PAULI_Z + 0.5 * omega[0] * algebra.PAULI_X

    _, rhos = dynamics.integrate_master(
        rho0, hamiltonian, channels, t_f, t_eval=[0.0, t_f],
        rtol=rtol, atol=atol, max_step=t_f / 100,
    )
    return float(rhos[-1][1, 1].real)


def _coherent_fidelity(proto, alpha, omega_f, channel, rtol):
    """Gaussian fidelity of a coherent-state trap expansion with its target.

    q noise takes the exact invariant-frame route (dynamics.exact_q_moments);
    q^2 noise integrates the moment equations.
    """
    init = states.coherent_state(alpha, proto.omega0, proto.mass, "gaussian").raw()
    if channel.operator_tag == "q":
        final = dynamics.exact_q_moments(proto, init, channel)
    else:
        _, ys = dynamics.integrate_moments(
            proto.omega_sq, init, channel, proto.t_f, proto.mass,
            t_eval=[0.0, proto.t_f], rtol=rtol, atol=1e-14,
        )
        final = ys[-1]
    target = states.target_coherent(
        alpha, proto.g_phase, proto.omega0, omega_f, proto.mass
    )
    return states.gaussian_fidelity(
        states.GaussianMoments.from_raw(*final), target.gaussian()
    )


def _resolve_channels(config):
    return [
        dynamics.NoiseChannel(ch["operator_tag"], float(ch["eta"]))
        for ch in config.channels
    ]


def _axes(config):
    ranges = config.scan["ranges"]
    sizes = config.scan["sizes"]
    return [np.linspace(lo, hi, int(n)) for (lo, hi), n in zip(ranges, sizes)]


def _write_csv(path: Path, header_lines, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [f"{v:.12g}" if isinstance(v, float) else v for v in row]
            )
    schema = {
        "columns": list(columns),
        "comment_prefix": "#",
        "units": _UNIT_NOTE,
    }
    schema_path = path.with_suffix(".schema.json")
    schema_path.write_text(json.dumps(schema, indent=2) + "\n")
    return path


def _header(config, extra=()):
    lines = [
        f"config_hash: {config.digest}",
        f"experiment: {config.experiment}",
        _UNIT_NOTE,
    ]
    lines.extend(extra)
    return lines


def _out_path(config, suffix=""):
    base = config.basename or config.experiment
    return Path(config.out_dir) / f"{base}{suffix}.csv"


# ---------------------------------------------------------------------------
# figure-level experiments


def run_tls_single(config: ExperimentConfig):
    """Fidelity against O_z (or A_z) over the steep-blend coefficient scan."""
    p = config.params
    delta0 = TWO_PI * float(p["delta0_hz"])
    t_f = float(p["t_f"])
    kind = str(p.get("measure", "O"))
    if kind not in ("O", "A"):
        raise ConfigError("params.measure: expected 'O' or 'A'")
    channels = _resolve_channels(config)
    (g4_axis,) = _axes(config)

    rows = []
    for g4 in g4_axis:
        proto = protocols.make_tls_steep_protocol(delta0, t_f, float(g4))
        o_z = measures.closed_form_O_z(lambda t: proto.g_poly(t), t_f)
        a_z = measures.closed_form_A_z(lambda t: proto.g_poly(t), t_f)
        fid = _tls_fidelity(proto, channels, t_f, config.rtol, config.atol)
        rows.append([float(g4), o_z, a_z, fid])
    key = 1 if kind == "O" else 2
    rows.sort(key=lambda r: r[key])
    path = _write_csv(
        _out_path(config),
        _header(config, [f"sorted_by: {'O_z' if kind == 'O' else 'A_z'}"]),
        ["g4", "O_z", "A_z", "fidelity"],
        rows,
    )
    return rows, path


def run_tls_dual(config: ExperimentConfig):
    """Two-channel 2-D scan: O_z, O_x, their weighted average and fidelity."""
    p = config.params
    delta0 = TWO_PI * float(p["delta0_hz"])
    t_f = float(p["t_f"])
    channels = _resolve_channels(config)
    if len(channels) != 2 or {c.operator_tag for c in channels} != {
        "sigma_z", "sigma_x"
    }:
        raise ConfigError("tls_dual needs exactly one sigma_z and one sigma_x channel")
    etas = {c.operator_tag: c.eta for c in channels}
    shape_axis, dip_axis = _axes(config)

    rows = []
    for shape in shape_axis:
        for b_dip in dip_axis:
            proto = protocols.make_tls_dual_protocol(
                delta0, t_f, float(shape), float(b_dip)
            )
            o_z = measures.closed_form_O_z(lambda t: proto.g_poly(t), t_f)
            o_x = measures.closed_form_O_x(
                lambda t: proto.g_poly(t), lambda t: proto.b_poly(t), t_f
            )
            o_bar = measures.weighted_average(
                [o_z, o_x], [etas["sigma_z"], etas["sigma_x"]]
            )
            fid = _tls_fidelity(proto, channels, t_f, config.rtol, config.atol)
            rows.append([float(shape), float(b_dip), o_z, o_x, o_bar, fid])

    best = max(rows, key=lambda r: r[5])
    lowest = min(rows, key=lambda r: r[4])
    header = _header(config, [
        f"eta_z: {etas['sigma_z']}", f"eta_x: {etas['sigma_x']}",
        f"argmax_fidelity: shape={best[0]} b_dip={best[1]} F={best[5]:.6f}",
        f"argmin_O_bar: shape={lowest[0]} b_dip={lowest[1]} O_bar={lowest[4]:.6f}",
    ])
    path = _write_csv(
        _out_path(config), header,
        ["shape", "b_dip", "O_z", "O_x", "O_bar", "fidelity"], rows,
    )
    return rows, path


def run_ho_coherent(config: ExperimentConfig):
    """Normalized S_0 against fidelity over the g-constrained r6 scan."""
    p = config.params
    omega0 = TWO_PI * float(p["nu0_hz"])
    omega_f = omega0 / float(p["omega_ratio"])
    t_f = float(p["t_f"])
    mass = float(p["mass"])
    alpha = complex(float(p["alpha_re"]), float(p["alpha_im"]))
    g_target = float(p["g_target"])
    channels = _resolve_channels(config)
    if len(channels) != 1 or channels[0].operator_tag != "q":
        raise ConfigError("ho_coherent needs exactly one q channel")
    channel = channels[0]
    (r6_axis,) = _axes(config)

    skipped = []
    entries = []
    for r6 in r6_axis:
        try:
            proto = protocols.constrain_g_phase(
                omega0, omega_f, g_target, mass, t_f, "inverse_sqrt_poly",
                r6=float(r6),
            )
        except (NoRoot, InvariantControlError) as exc:
            skipped.append(f"skipped r6={r6}: {exc}")
            continue
        s0 = measures.ho_overlap_Sn(
            lambda t: proto.rho(t), 0, mass, omega0, t_f
        )
        fid = _coherent_fidelity(proto, alpha, omega_f, channel, config.rtol)
        entries.append((float(r6), proto, s0, fid))
    if not entries:
        raise NoRoot("no r6 cell admitted a g-constrained protocol")

    s0_max = max(e[2] for e in entries)
    rows = [[r6, s0, s0 / s0_max, fid] for r6, _, s0, fid in entries]
    header = _header(config, [
        f"g_target_s: {g_target}", f"S0_max: {s0_max:.12g}",
        "integrator: exact_q_moments (invariant-frame closed form)", *skipped,
    ])
    path = _write_csv(
        _out_path(config), header,
        ["r6", "S0", "S0_normalized", "fidelity"], rows,
    )

    # control traces of the best and worst rows for plotting
    by_fid = sorted(entries, key=lambda e: e[3])
    ts = np.linspace(0.0, t_f, 401)
    trace_rows = []
    for label, (_, proto, _, _) in (("best", by_fid[-1]), ("worst", by_fid[0])):
        w_sq = proto.omega_sq(ts)
        for t, w2 in zip(ts, w_sq):
            trace_rows.append([label, float(t), float(w2)])
    trace_path = _write_csv(
        _out_path(config, "_trace"), _header(config),
        ["row", "t", "omega_sq"], trace_rows,
    )
    return rows, path, trace_path


def run_ho_thermal(config: ExperimentConfig):
    """Fidelity and mean power per (protocol, t_f) for the thermal expansion."""
    p = config.params
    omega0 = TWO_PI * float(p["nu0_hz"])
    omega_f = omega0 / float(p["omega_ratio"])
    mass = float(p["mass"])
    n_bar = float(p["n_bar"])
    channels = _resolve_channels(config)
    if len(channels) != 1 or channels[0].operator_tag != "q_squared":
        raise ConfigError("ho_thermal needs exactly one q_squared channel")
    channel = channels[0]
    (r6_axis,) = _axes(config)
    t_f_values = np.geomspace(
        float(p["t_f_lo"]), float(p["t_f_hi"]), int(p["n_t_f"])
    )

    target = states.thermal_state(n_bar, omega_f, mass, "gaussian")
    init = states.thermal_state(n_bar, omega0, mass, "gaussian")

    def evaluate(omega_sq, omega_sq_dot, t_f):
        ts, ys = dynamics.integrate_moments(
            omega_sq, init.raw(), channel, t_f, mass,
            t_eval=np.linspace(0.0, t_f, 401),
            rtol=config.rtol, atol=1e-14,
        )
        final = states.GaussianMoments.from_raw(*ys[-1])
        fid = states.gaussian_fidelity(final, target)
        power = measures.average_power(
            omega_sq_dot, ys[:, 2], mass, t_f, grid=len(ts)
        )
        return fid, abs(power)

    rows = []
    for t_f in t_f_values:
        t_f = float(t_f)
        cm = protocols.make_constant_mu_protocol(omega0, omega_f, t_f)
        f_cm, p_cm = evaluate(cm.omega_sq, cm.omega_sq_dot, t_f)
        rows.append([t_f, "constant_mu", 0.0, f_cm, p_cm])

        std = protocols.make_ho_protocol(omega0, omega_f, mass, t_f, "sqrt_poly")
        f_std, p_std = evaluate(std.omega_sq, std.omega_sq_dot, t_f)
        rows.append([t_f, "standard_sta", 0.0, f_std, p_std])

        best = (0.0, f_std, p_std)
        for r6 in r6_axis:
            proto = protocols.make_ho_protocol(
                omega0, omega_f, mass, t_f, "sqrt_poly", (float(r6),)
            )
            f6, p6 = evaluate(proto.omega_sq, proto.omega_sq_dot, t_f)
            if f6 > best[1]:
                best = (float(r6), f6, p6)
        rows.append([t_f, "improved_sta", best[0], best[1], best[2]])

    header = _header(config, [
        f"n_bar: {n_bar}", "integrator: gaussian_moments",
        "improved_sta: scan-best r6 (grid includes the standard protocol)",
    ])
    path = _write_csv(
        _out_path(config), header,
        ["t_f", "protocol", "r6", "fidelity", "abs_mean_power"], rows,
    )
    return rows, path


_RUNNERS = {
    "tls_single": run_tls_single,
    "tls_dual": run_tls_dual,
    "ho_coherent": run_ho_coherent,
    "ho_thermal": run_ho_thermal,
}

_FIGURES = {
    "fig1": "tls_single",
    "fig2": "tls_dual",
    "fig3": "ho_coherent",
    "fig4": "ho_thermal",
}


# ---------------------------------------------------------------------------
# verbs


def _build_protocol(config: ExperimentConfig, free=()):
    """Protocol family instance for synthesize/measure at given coefficients."""
    p = config.params
    if config.experiment in ("tls_single", "custom"):
        delta0 = TWO_PI * float(p["delta0_hz"])
        g4 = float(free[0]) if len(free) else 0.0
        return protocols.make_tls_steep_protocol(delta0, float(p["t_f"]), g4)
    if config.experiment == "tls_dual":
        delta0 = TWO_PI * float(p["delta0_hz"])
        shape = float(free[0]) if len(free) > 0 else 0.0
        b_dip = float(free[1]) if len(free) > 1 else 0.0
        return protocols.make_tls_dual_protocol(
            delta0, float(p["t_f"]), shape, b_dip
        )
    omega0 = TWO_PI * float(p["nu0_hz"])
    omega_f = omega0 / float(p["omega_ratio"])
    form = "inverse_sqrt_poly" if config.experiment == "ho_coherent" else "sqrt_poly"
    t_f = float(p.get("t_f", p.get("t_f_hi", 100e-6)))
    return protocols.make_ho_protocol(
        omega0, omega_f, float(p["mass"]), t_f, form, tuple(free)
    )


def _verb_synthesize(config, free):
    proto = _build_protocol(config, free)
    t_f = getattr(proto, "t_f", None)
    ts = np.linspace(0.0, t_f, 401)
    if hasattr(proto, "controls"):
        delta, omega = proto.controls(ts)
        rows = [[float(t), float(d), float(o)] for t, d, o in zip(ts, delta, omega)]
        cols = ["t", "delta", "omega"]
    else:
        w_sq = proto.omega_sq(ts)
        rows = [[float(t), float(w)] for t, w in zip(ts, w_sq)]
        cols = ["t", "omega_sq"]
    path = _write_csv(
        _out_path(config, "_controls"),
        _header(config, [f"protocol: {json.dumps(proto.to_dict(), sort_keys=True)}"]),
        cols, rows,
    )
    print(path)
    return 0


def _verb_measure(config, free):
    proto = _build_protocol(config, free)
    p = config.params
    if config.experiment.startswith("tls") or config.experiment == "custom":
        t_f = float(p["t_f"])
        o_z = measures.closed_form_O_z(lambda t: proto.g_poly(t), t_f)
        a_z = measures.closed_form_A_z(lambda t: proto.g_poly(t), t_f)
        o_x = measures.closed_form_O_x(
            lambda t: proto.g_poly(t), lambda t: proto.b_poly(t), t_f
        )
        rows = [[o_z, o_x, a_z]]
        cols = ["O_z", "O_x", "A_z"]
    else:
        omega0 = TWO_PI * float(p["nu0_hz"])
        mass = float(p["mass"])
        s0 = measures.ho_overlap_Sn(
            lambda t: proto.rho(t), 0, mass, omega0, proto.t_f
        )
        rows = [[s0, proto.g_phase]]
        cols = ["S0", "g_phase"]
    path = _write_csv(
        _out_path(config, "_measures"), _header(config), cols, rows
    )
    print(path)
    return 0


def _verb_simulate(config, free):
    proto = _build_protocol(config, free)
    channels = _resolve_channels(config)
    p = config.params
    if config.experiment.startswith("tls") or config.experiment == "custom":
        t_f = float(p["t_f"])
        fid = _tls_fidelity(proto, channels, t_f, config.rtol, config.atol)
        rows = [[fid]]
    elif config.experiment == "ho_coherent":
        alpha = complex(float(p["alpha_re"]), float(p["alpha_im"]))
        omega_f = proto.omega0 / float(p["omega_ratio"])
        rows = [[_coherent_fidelity(proto, alpha, omega_f, channels[0], config.rtol)]]
    else:
        mass = float(p["mass"])
        omega0 = TWO_PI * float(p["nu0_hz"])
        omega_f = omega0 / float(p["omega_ratio"])
        n_bar = float(p["n_bar"])
        init = states.thermal_state(n_bar, omega0, mass, "gaussian")
        _, ys = dynamics.integrate_moments(
            proto.omega_sq, init.raw(), channels[0], proto.t_f, mass,
            t_eval=[0.0, proto.t_f], rtol=config.rtol, atol=1e-14,
        )
        final = states.GaussianMoments.from_raw(*ys[-1])
        target = states.thermal_state(n_bar, omega_f, mass, "gaussian")
        rows = [[states.gaussian_fidelity(final, target)]]
    path = _write_csv(
        _out_path(config, "_fidelity"), _header(config), ["fidelity"], rows
    )
    print(path)
    return 0


def _verb_scan(config):
    runner = _RUNNERS.get(config.experiment)
    if runner is None:
        raise ConfigError("scan: custom experiments have no canned scan")
    result = runner(config)
    print(result[1])
    return 0


def _verb_reproduce(config, figure):
    experiment = _FIGURES[figure]
    data = config.to_dict()
    data["experiment"] = experiment
    if data.get("basename") is None:
        data["basename"] = figure
    # figure defaults win over whatever experiment the config carried
    if config.experiment != experiment:
        data["params"], data["channels"], data["scan"] = {}, [], {}
    result = _RUNNERS[experiment](ExperimentConfig.from_dict(data))
    print(result[1])
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="invctl",
        description="Invariant-based control protocols: synthesis, measures, "
                    "noisy simulation and figure-level scans.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: cwd)")
    parser.add_argument("--workers", type=int, help="worker pool size")
    parser.add_argument("--grid", type=int,
                        help="override every scan axis size")
    parser.add_argument("--fock-dim", help="Fock truncation: integer or 'auto'")
    parser.add_argument("--tol", type=float, help="relative tolerance override")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("synthesize", "measure", "simulate"):
        v = sub.add_parser(verb)
        v.add_argument("--experiment", choices=_EXPERIMENTS)
        v.add_argument("--free", type=float, nargs="*", default=[],
                       help="free protocol coefficients")
    v = sub.add_parser("scan")
    v.add_argument("--experiment", choices=_EXPERIMENTS)
    v = sub.add_parser("reproduce")
    v.add_argument("figure", choices=sorted(_FIGURES))
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        config = ExperimentConfig.from_json(path.read_text())
    else:
        experiment = getattr(args, "experiment", None)
        if args.verb == "reproduce":
            experiment = _FIGURES[args.figure]
        if experiment is None:
            raise ConfigError("need --config or --experiment")
        config = ExperimentConfig(experiment=experiment)
    if args.out:
        config.out_dir = args.out
    if args.workers:
        config.workers = args.workers
    if args.tol is not None:
        config.rtol = args.tol
    if args.fock_dim:
        config.fock_dim = (
            "auto" if args.fock_dim == "auto" else int(args.fock_dim)
        )
    if args.grid is not None and config.scan:
        config.scan["sizes"] = [args.grid] * len(config.scan["sizes"])
    config._validate()
    return config


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.verb == "synthesize":
            return _verb_synthesize(config, args.free)
        if args.verb == "measure":
            return _verb_measure(config, args.free)
        if args.verb == "simulate":
            return _verb_simulate(config, args.free)
        if args.verb == "scan":
            return _verb_scan(config)
        return _verb_reproduce(config, args.figure)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvariantControlError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
