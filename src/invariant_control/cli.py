"""Configuration-driven command-line harness.

Each of the four figure-level experiments is one row of the _EXPERIMENTS
table: its defaults, the ProtocolFamily it builds, the noise channels it
requires, its closed-form measure columns, its fidelity routine and the step
that turns scan rows into its tables. synthesize, measure and simulate
evaluate one cell of that family; scan and reproduce run optimize.scan over
the configured grid. Every table carries a comment header with the config
hash, unit conventions and solver metadata so provenance travels with the
data.

Verbs: synthesize, measure, simulate, scan, reproduce {fig1,fig2,fig3,fig4}.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import numbers
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import dynamics, measures, optimize, protocols
from .constants import MASS_100_CA40, TWO_PI
from .errors import ConfigError, InvariantControlError, NoRoot

__all__ = ["ExperimentConfig", "run_scan", "main"]

_UNIT_NOTE = ("units: time s, angular frequency rad/s, position angstrom, "
              "eta 1/s (Pauli), Hz/angstrom^2 (q), Hz/angstrom^4 (q^2)")

#: physical parameters that must be finite, and the sign each must have
_PARAM_SIGNS = {
    **dict.fromkeys(("nu0_hz", "omega_ratio", "mass", "t_f", "t_f_lo", "t_f_hi",
                     "delta0_hz", "g_target"), "positive"),
    "n_bar": "nonnegative", "alpha_re": None, "alpha_im": None,
}


def _finite(value, what) -> float:
    """value as a finite float, or a ConfigError naming the field what."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what}: expected a number, got {value!r}") from None
    if not np.isfinite(number):
        raise ConfigError(f"{what}: must be finite, got {value!r}")
    return number


def _check_count(value, what):
    """Reject a value that is not an integer >= 1, naming the field what."""
    number = _finite(value, what)
    if number < 1 or number != int(number):
        raise ConfigError(f"{what}: must be an integer >= 1, got {value!r}")


def _check_path_text(value, what):
    """Reject a path or file name that is not a string or holds a NUL byte."""
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"{what}: expected a string without NUL bytes, got {value!r}")


@dataclass
class ExperimentConfig:
    """Validated experiment description with JSON round-trip."""

    experiment: str
    params: dict = field(default_factory=dict)
    channels: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)
    out_dir: str = "."
    basename: str | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown id {self.experiment!r}, "
                f"expected one of {tuple(_EXPERIMENTS)}"
            )
        for name, kind, json_kind in (("params", dict, "object"), ("channels", list, "array"),
                                      ("scan", dict, "object")):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name}: expected a JSON {json_kind}, "
                                  f"got {getattr(self, name)!r}")
        base = _EXPERIMENTS[self.experiment].defaults
        self.params = {**copy.deepcopy(base["params"]), **self.params}
        if not self.channels:
            self.channels = copy.deepcopy(base["channels"])
        if not self.scan:
            self.scan = copy.deepcopy(base["scan"])
        self._validate()

    def _validate(self):
        p = self.params
        unknown = sorted(set(p) - set(_EXPERIMENTS[self.experiment].defaults["params"]))
        if unknown:
            raise ConfigError(f"params: not parameters of {self.experiment}: {', '.join(unknown)}")
        for key, sign in _PARAM_SIGNS.items():
            if key not in p:
                continue
            value = _finite(p[key], f"params.{key}")
            if (sign == "positive" and value <= 0) or (sign == "nonnegative" and value < 0):
                raise ConfigError(f"params.{key}: must be {sign}, got {p[key]!r}")
        if "t_f_lo" in p and "t_f_hi" in p and float(p["t_f_lo"]) > float(p["t_f_hi"]):
            raise ConfigError("params.t_f_lo: must not exceed params.t_f_hi")
        family = _family(self)
        for key, value in family.params.items():
            # the angular values protocols are built from: 2 pi nu0_hz and
            # omega0 / omega_ratio can overflow or underflow
            if not 0.0 < value < np.inf:
                raise ConfigError(f"params: {key} = {value!r} in angular units, "
                                  f"must be positive and finite")
        if "mass" in family.params:
            # the trap moments are scaled by (m omega0)^2 and by its inverse
            scale = family.params["mass"] * family.params["omega0"]
            if not sys.float_info.min <= scale * scale <= 1.0 / sys.float_info.min:
                raise ConfigError(f"params.mass: (mass * omega0)^2 = {scale * scale!r} or "
                                  f"its inverse is not a finite normal float")
        if "n_t_f" in p:
            _check_count(p["n_t_f"], "params.n_t_f")
        if str(p.get("measure", "O")) not in ("O", "A"):
            raise ConfigError("params.measure: expected 'O' or 'A'")
        for i, ch in enumerate(self.channels):
            if not isinstance(ch, dict) or "operator_tag" not in ch or "eta" not in ch:
                raise ConfigError(f"channels[{i}]: need operator_tag and eta fields")
            if not isinstance(ch["operator_tag"], str):
                raise ConfigError(f"channels[{i}].operator_tag: expected a string, "
                                  f"got {ch['operator_tag']!r}")
            if _finite(ch["eta"], f"channels[{i}].eta") < 0:
                raise ConfigError(f"channels[{i}].eta: must be nonnegative, got {ch['eta']!r}")
        need = list(_EXPERIMENTS[self.experiment].tags)
        have = sorted(ch["operator_tag"] for ch in self.channels)
        if have != need:
            raise ConfigError(
                f"channels: {self.experiment} needs exactly the channels {need}, got {have}"
            )
        for ch in self.channels:
            if ch["operator_tag"] == "q_squared":
                # the q^2 noise dose of the longest run, before anything overflows
                scale = family.params["mass"] * family.params["omega0"]
                dose = 8.0 * float(ch["eta"]) * family.t_f / scale**2
                if not dose <= dynamics.Q2_DOSE_MAX:
                    raise ConfigError(
                        f"params.mass: the q^2 noise dose 8 eta t_f / (mass * omega0)^2 = "
                        f"{dose:.3g} exceeds {dynamics.Q2_DOSE_MAX:.4g}, past which the "
                        f"trap moments overflow")
        ranges = self.scan.get("ranges", [])
        sizes = self.scan.get("sizes", [])
        n_free = len(_EXPERIMENTS[self.experiment].defaults["scan"]["ranges"])
        if not (isinstance(ranges, list) and isinstance(sizes, list)
                and len(ranges) == len(sizes) == n_free):
            raise ConfigError(f"scan: {self.experiment} needs {n_free} ranges and as many "
                              f"sizes, one per free coefficient")
        for r in ranges:
            if not isinstance(r, list) or len(r) != 2:
                raise ConfigError(f"scan.ranges: bad interval {r!r}")
        for ends in zip(*ranges):
            _EXPERIMENTS[self.experiment].check_free(ends, "scan.ranges")
        for n in sizes:
            _check_count(n, "scan.sizes")
        _check_path_text(self.out_dir, "out_dir")
        if self.basename is not None:
            _check_path_text(self.basename, "basename")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected a JSON object, got {data!r}")
        if "experiment" not in data:
            raise ConfigError("experiment: missing required field")
        extra = set(data) - set(cls.__dataclass_fields__)
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
        data = {k: v for k, v in self.to_dict().items()
                if k not in ("out_dir", "basename")}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# protocol cells


def _channels(config):
    return [dynamics.NoiseChannel(ch["operator_tag"], float(ch["eta"]))
            for ch in config.channels]


def _family(config, kind=None, t_f=None) -> protocols.ProtocolFamily:
    """The experiment's protocol family in angular units.

    t_f defaults to params.t_f, or params.t_f_hi for the thermal sweep.
    """
    p = config.params
    if config.experiment.startswith("tls"):
        params = {"delta0": TWO_PI * float(p["delta0_hz"])}
    else:
        omega0 = TWO_PI * float(p["nu0_hz"])
        params = {"omega0": omega0, "omega_f": omega0 / float(p["omega_ratio"]),
                  "mass": float(p["mass"])}
        if config.experiment == "ho_coherent":
            params["g_target"] = float(p["g_target"])
    if t_f is None:
        t_f = float(p["t_f"] if "t_f" in p else p["t_f_hi"])
    return protocols.ProtocolFamily(kind or _EXPERIMENTS[config.experiment].kind, params, t_f)


def _cell(config, exp, channels, family):
    """Measure and fidelity columns of one protocol.

    Rows keep no protocol, so a scan frees each protocol after its cell. An
    experiment that skips infeasible cells gets {"skipped": reason} when the
    build fails.
    """
    try:
        proto = family.build()
    except InvariantControlError as exc:
        if not exp.skips_infeasible:
            raise
        return {"skipped": str(exc)}
    return {**exp.measure(proto, config, channels),
            **exp.fidelity(proto, config, channels)}


def _grid_plan(config):
    """(label, family, ranges, sizes) of each optimize.scan call, in order."""
    sizes = [int(n) for n in config.scan["sizes"]]
    return [(None, _family(config), config.scan["ranges"], sizes)]


def _thermal_plan(config):
    # per t_f: the constant-mu reference, the standard protocol, the r6 scan
    p = config.params
    (_, _, ranges, sizes), = _grid_plan(config)
    plan = []
    for t_f in np.geomspace(float(p["t_f_lo"]), float(p["t_f_hi"]), int(p["n_t_f"])):
        t_f = float(t_f)
        plan += [
            ("constant_mu", _family(config, "ho_constant_mu", t_f), [], []),
            ("standard_sta", _family(config, t_f=t_f), [], []),
            ("improved_sta", _family(config, t_f=t_f), ranges, sizes),
        ]
    return plan


def _rows(scan_rows, names):
    return [[*r.coeffs, *(r.measures[n] for n in names)] for r in scan_rows]


# ---------------------------------------------------------------------------
# measure columns, fidelity columns and finishing steps


def _tls_single_measures(proto, config, channels):
    return {"O_z": measures.closed_form_O_z(proto.g_poly, proto.t_f),
            "A_z": measures.closed_form_A_z(proto.g_poly, proto.t_f)}


def _tls_dual_measures(proto, config, channels):
    etas = {c.operator_tag: c.eta for c in channels}
    o_z = measures.closed_form_O_z(proto.g_poly, proto.t_f)
    o_x = measures.closed_form_O_x(proto.g_poly, proto.b_poly, proto.t_f)
    o_bar = measures.weighted_average([o_z, o_x], [etas["sigma_z"], etas["sigma_x"]])
    return {"O_z": o_z, "O_x": o_x, "O_bar": o_bar}


def _coherent_measures(proto, config, channels):
    return {"S0": measures.ho_overlap_Sn(proto.rho, 0, proto.mass, proto.omega0, proto.t_f)}


def _tls_fidelity(proto, config, channels):
    return {"fidelity": dynamics.tls_fidelity(proto, channels)}


def _coherent_fidelity(proto, config, channels):
    alpha = complex(float(config.params["alpha_re"]), float(config.params["alpha_im"]))
    return {"fidelity": dynamics.coherent_fidelity(proto, alpha, channels[0])}


def _thermal_fidelity(proto, config, channels):
    fid, power = dynamics.thermal_fidelity(proto, float(config.params["n_bar"]), channels[0])
    return {"fidelity": fid, "abs_mean_power": abs(power)}


# A finishing step maps (config, channels, [(label, family, scan rows)]) to
# the tables to write: (file suffix, extra header lines, columns, rows).


def _finish_fig1(config, channels, results):
    """Fidelity against O_z (or A_z) over the steep-blend coefficient scan."""
    rows = _rows(results[0][2], ("O_z", "A_z", "fidelity"))
    by = "O_z" if str(config.params.get("measure", "O")) == "O" else "A_z"
    rows.sort(key=lambda r: r[1 if by == "O_z" else 2])
    return [("", [f"sorted_by: {by}"], ["g4", "O_z", "A_z", "fidelity"], rows)]


def _finish_fig2(config, channels, results):
    """Two-channel 2-D scan: O_z, O_x, their weighted average and fidelity."""
    rows = _rows(results[0][2], ("O_z", "O_x", "O_bar", "fidelity"))
    etas = {c.operator_tag: c.eta for c in channels}
    best = max(rows, key=lambda r: r[5])
    lowest = min(rows, key=lambda r: r[4])
    header = [
        f"eta_z: {etas['sigma_z']}", f"eta_x: {etas['sigma_x']}",
        f"argmax_fidelity: shape={best[0]} b_dip={best[1]} F={best[5]:.6f}",
        f"argmin_O_bar: shape={lowest[0]} b_dip={lowest[1]} O_bar={lowest[4]:.6f}",
    ]
    return [("", header, ["shape", "b_dip", "O_z", "O_x", "O_bar", "fidelity"], rows)]


def _finish_fig3(config, channels, results):
    """Normalized S_0 against fidelity over the g-constrained r6 scan, plus
    the trap traces of the best and worst rows."""
    _, family, scan_rows = results[0]
    kept = [r for r in scan_rows if "skipped" not in r.measures]
    skipped = [f"skipped r6={r.coeffs[0]}: {r.measures['skipped']}"
               for r in scan_rows if "skipped" in r.measures]
    if not kept:
        raise NoRoot("no r6 cell admitted a g-constrained protocol")
    s0_max = max(r.measures["S0"] for r in kept)
    rows = [[r.coeffs[0], r.measures["S0"], r.measures["S0"] / s0_max,
             r.measures["fidelity"]] for r in kept]
    header = [
        f"g_target_s: {family.params['g_target']}", f"S0_max: {s0_max:.12g}",
        "integrator: exact_q_moments (invariant-frame closed form)", *skipped,
    ]
    by_fid = sorted(kept, key=lambda r: r.measures["fidelity"])
    ts = np.linspace(0.0, family.t_f, 401)
    trace = [
        [label, float(t), float(w2)]
        for label, r in (("best", by_fid[-1]), ("worst", by_fid[0]))
        for t, w2 in zip(ts, family.with_free(r.coeffs).build().omega_sq(ts))
    ]
    return [("", header, ["r6", "S0", "S0_normalized", "fidelity"], rows),
            ("_trace", [], ["row", "t", "omega_sq"], trace)]


def _finish_fig4(config, channels, results):
    """Fidelity and mean power per (protocol, t_f) for the thermal expansion;
    the improved row is the scan-best r6, never worse than the standard row
    that precedes it."""
    rows = []
    for label, family, scan_rows in results:
        cells = [[r.coeffs[0] if r.coeffs else 0.0, r.measures["fidelity"],
                  r.measures["abs_mean_power"]] for r in scan_rows]
        if label == "improved_sta":
            cells.insert(0, rows[-1][2:])  # the standard protocol, r6 = 0
        # max keeps the first of equal fidelities, so ties keep the standard row
        rows.append([family.t_f, label, *max(cells, key=lambda c: c[1])])
    header = [
        f"n_bar: {float(config.params['n_bar'])}",
        "integrator: constant_mu, standard_sta, improved_sta magnus_q2_moments "
        "(closed-form Heisenberg flow, Magnus-4)",
        "improved_sta: scan-best r6 (grid includes the standard protocol)",
    ]
    return [("", header, ["t_f", "protocol", "r6", "fidelity", "abs_mean_power"], rows)]


@dataclass(frozen=True)
class _Experiment:
    """One figure-level experiment: its defaults (Hz, s) and how it builds,
    checks, measures, simulates and reports its protocol cells."""

    figure: str
    defaults: dict               # params, channels, scan
    kind: str                    # ProtocolFamily kind
    tags: tuple                  # sorted noise-channel tags it requires
    measure: Callable            # (proto, config, channels) -> columns
    fidelity: Callable           # (proto, config, channels) -> columns
    finish: Callable             # see the finishing steps above
    plan: Callable = _grid_plan  # config -> optimize.scan calls
    skips_infeasible: bool = False
    free_bounds: tuple = ()      # (lo, hi) per free coefficient; () = any

    def check_free(self, values, what):
        """Reject free coefficients that are not finite numbers or that leave
        the family's domain, before anything is built."""
        for i, v in enumerate(values):
            lo, hi = self.free_bounds[i] if self.free_bounds else (-np.inf, np.inf)
            if not (isinstance(v, numbers.Real) and np.isfinite(v) and lo <= v <= hi):
                raise ConfigError(f"{what}: free coefficient {i} must be finite and in "
                                  f"[{lo}, {hi}], got {v!r}")


_EXPERIMENTS = {
    "tls_single": _Experiment(
        figure="fig1", defaults={
            "params": {"delta0_hz": 10e3, "t_f": 0.5e-3, "measure": "O"},
            "channels": [{"operator_tag": "sigma_z", "eta": 250.0}],
            "scan": {"ranges": [[-0.5, 1.25]], "sizes": [41]},
        },
        kind="tls_steep_blend", tags=("sigma_z",), measure=_tls_single_measures,
        fidelity=_tls_fidelity, finish=_finish_fig1,
    ),
    "tls_dual": _Experiment(
        figure="fig2", defaults={
            "params": {"delta0_hz": 10e3, "t_f": 0.5e-3},
            "channels": [{"operator_tag": "sigma_z", "eta": 125.0},
                         {"operator_tag": "sigma_x", "eta": 62.5}],
            "scan": {"ranges": [[-1.0, 1.0], [0.0, 1.0]], "sizes": [9, 5]},
        },
        kind="tls_dual", tags=("sigma_x", "sigma_z"), measure=_tls_dual_measures,
        fidelity=_tls_fidelity, finish=_finish_fig2,
        free_bounds=((-1.0, 1.0), (0.0, 1.0)),  # shape, b_dip
    ),
    "ho_coherent": _Experiment(
        figure="fig3", defaults={
            "params": {"nu0_hz": 15.92e6, "omega_ratio": 100.0, "t_f": 100e-6,
                       "alpha_re": 1.0, "alpha_im": 1.0, "g_target": 50.5e-6,
                       "mass": MASS_100_CA40},
            "channels": [{"operator_tag": "q", "eta": 10.0}],
            "scan": {"ranges": [[-20.0, 5.0]], "sizes": [9]},
        },
        kind="ho_coherent", tags=("q",), measure=_coherent_measures,
        fidelity=_coherent_fidelity, finish=_finish_fig3, skips_infeasible=True,
    ),
    "ho_thermal": _Experiment(
        figure="fig4", defaults={
            "params": {"nu0_hz": 2.53e6, "omega_ratio": 100.0, "n_bar": 12.58,
                       "t_f_lo": 0.2e-6, "t_f_hi": 20e-6, "n_t_f": 10,
                       "mass": MASS_100_CA40},
            "channels": [{"operator_tag": "q_squared", "eta": 0.0527}],
            "scan": {"ranges": [[0.0, 800.0]], "sizes": [9]},
        },
        # no closed-form measure: the mean power needs the simulated moments
        kind="ho_thermal", tags=("q_squared",), measure=lambda *_: {},
        fidelity=_thermal_fidelity, finish=_finish_fig4, plan=_thermal_plan,
    ),
}

_FIGURES = {exp.figure: name for name, exp in _EXPERIMENTS.items()}


# ---------------------------------------------------------------------------
# verbs


def _write_table(config, suffix, columns, rows, extra=()):
    """Write <basename><suffix>.csv under a provenance header, plus its
    .schema.json sidecar; returns the CSV path."""
    header = [f"config_hash: {config.digest}",
              f"experiment: {config.experiment}", _UNIT_NOTE, *extra]
    path = Path(config.out_dir) / f"{config.basename or config.experiment}{suffix}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                         for row in rows)
    schema = {"columns": list(columns), "comment_prefix": "#", "units": _UNIT_NOTE}
    path.with_suffix(".schema.json").write_text(json.dumps(schema, indent=2) + "\n")
    return path


def run_scan(config: ExperimentConfig):
    """Scan the configured grid and write the experiment's tables.

    Returns the rows of the main table followed by the path of every table
    written.
    """
    exp = _EXPERIMENTS[config.experiment]
    channels = _channels(config)
    results = []
    for label, family, ranges, sizes in exp.plan(config):
        rows = optimize.scan(
            lambda free: _cell(config, exp, channels, family.with_free(free)),
            ranges, sizes,
        )
        results.append((label, family, rows))
    tables = exp.finish(config, channels, results)
    paths = [_write_table(config, suffix, columns, rows, extra)
             for suffix, extra, columns, rows in tables]
    return (tables[0][3], *paths)


def _cell_family(config, free) -> protocols.ProtocolFamily:
    """The experiment's protocol family at one point of its scan grid."""
    n = len(config.scan["ranges"])
    free = [0.0] * n if free is None else free
    if len(free) != n:
        raise ConfigError(f"--free: {config.experiment} takes {n} value(s), got {len(free)}")
    _EXPERIMENTS[config.experiment].check_free(free, "--free")
    return _family(config).with_free(free)


def _verb_synthesize(config, free):
    family = _cell_family(config, free)
    proto = family.build()
    ts = np.linspace(0.0, proto.t_f, 401)
    if hasattr(proto, "controls"):
        columns = dict(zip(("t", "delta", "omega"), (ts, *proto.controls(ts))))
    else:
        columns = {"t": ts, "omega_sq": proto.omega_sq(ts)}
    rows = [[float(v) for v in row] for row in zip(*columns.values())]
    extra = [f"protocol: {json.dumps(asdict(family), sort_keys=True)}"]
    return _write_table(config, "_controls", list(columns), rows, extra)


def _verb_measure(config, free, simulate=False):
    """One-row table of the cell's measure (or, simulating, fidelity) columns."""
    exp = _EXPERIMENTS[config.experiment]
    columns = (exp.fidelity if simulate else exp.measure)(
        _cell_family(config, free).build(), config, _channels(config))
    if not columns:
        raise ConfigError(f"measure: {config.experiment} has no closed-form measure")
    suffix = "_fidelity" if simulate else "_measures"
    return _write_table(config, suffix, list(columns), [list(columns.values())])


_VERBS = {
    "synthesize": _verb_synthesize,
    "measure": _verb_measure,
    "simulate": lambda config, free: _verb_measure(config, free, simulate=True),
    "scan": lambda config, _: run_scan(config)[1],
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="invctl",
        description="Invariant-based control protocols: synthesis, measures, "
                    "noisy simulation and figure-level scans.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: cwd)")
    parser.add_argument("--grid", type=int, help="override every scan axis size")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        v = sub.add_parser(verb)
        v.add_argument("--experiment", choices=tuple(_EXPERIMENTS))
        if verb != "scan":
            v.add_argument("--free", type=float, nargs="*",
                           help="free protocol coefficients, one per scan axis "
                                "(default: all zero)")
    v = sub.add_parser("reproduce")
    v.add_argument("figure", choices=sorted(_FIGURES))
    return parser


def _load_config(args) -> ExperimentConfig:
    """The run's config, built once from the --config file (or the
    experiment's defaults) after the figure, --out and --grid are applied."""
    data = {"experiment": getattr(args, "experiment", None)}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        data = ExperimentConfig.from_json(path.read_text()).to_dict()
    if args.verb == "reproduce":
        # the figure's defaults win over a config of another experiment
        experiment = _FIGURES[args.figure]
        if data["experiment"] != experiment:
            data = {"experiment": experiment, "out_dir": data.get("out_dir", "."),
                    "basename": data.get("basename")}
        if data["basename"] is None:
            data["basename"] = args.figure
    if data["experiment"] is None:
        raise ConfigError("need --config or --experiment")
    if args.out:
        data["out_dir"] = args.out
    if args.grid is not None:
        scan = copy.deepcopy(data.get("scan") or _EXPERIMENTS[data["experiment"]].defaults["scan"])
        data["scan"] = {**scan, "sizes": [args.grid] * len(scan["sizes"])}
    return ExperimentConfig(**data)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        verb = _VERBS["scan" if args.verb == "reproduce" else args.verb]
        # an overflow or invalid value ends the run before it writes a table
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            print(verb(config, getattr(args, "free", None)))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvariantControlError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
