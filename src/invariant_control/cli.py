"""Configuration-driven command-line harness.

Each of the four figure-level experiments is one row of the _EXPERIMENTS
table: its config fields, each with a default and a rule, the ProtocolFamily
it builds, its closed-form measure columns, its fidelity routine and the step
that turns scan rows into its tables. A config is checked once, against its
row and the few rules that join fields, and keeps only canonical values, so
its hash covers exactly the numbers a run uses. synthesize, measure and
simulate evaluate one cell of the family; scan and reproduce run
optimize.scan over the configured grid. Every table carries a comment header
with the config hash, unit conventions and solver metadata so provenance
travels with the data.

Verbs: synthesize, measure, simulate, scan, reproduce {fig1,fig2,fig3,fig4}.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
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

#: the most protocol cells a config may ask for: prod(scan.sizes), and for
#: ho_thermal n_t_f times two more (the reference protocols); fig4 takes 110
_MAX_CELLS = 10**6


def _json_value(text):
    """The value of JSON text, or a ConfigError if it cannot be parsed."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _check_path_text(value, what):
    """Reject a path or file name that is not a string, holds a NUL byte or
    has a character the file system cannot encode (a lone surrogate)."""
    try:
        valid = isinstance(value, str) and b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        valid = False
    if not valid:
        raise ConfigError(f"{what}: expected a string without NUL bytes that the file "
                          f"system can encode, got {value!r}")


def _check_keys(data, keys, what):
    """Reject data unless it is a JSON object whose keys are among keys,
    naming the first key that is not."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ConfigError(f"{what}.{key}: unknown field, expected one of {', '.join(keys)}")


@dataclass
class ExperimentConfig:
    """Experiment description with JSON round-trip, checked against its row of
    _EXPERIMENTS: unset fields take the row's defaults, and every field holds
    canonical values (floats, int counts, channels in the row's order)."""

    experiment: str
    params: dict = field(default_factory=dict)
    channels: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)
    out_dir: str = "."
    basename: str | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"experiment: unknown id {self.experiment!r}, "
                              f"expected one of {tuple(_EXPERIMENTS)}")
        exp = _EXPERIMENTS[self.experiment]
        dropped = _DROPPED_PARAMS.get(self.experiment, {})
        _check_keys(self.params, (*dropped, *exp.params), "params")
        for key in dropped.keys() & self.params.keys():
            _checked(self.params[key], dropped[key], f"params.{key}")
        self.params = {key: _checked(self.params.get(key, default), rule, f"params.{key}")
                       for key, (default, rule) in exp.params.items()}
        if not isinstance(self.channels, list):
            raise ConfigError(f"channels: expected a JSON array, got {self.channels!r}")
        etas = {}
        channels = self.channels or [{"operator_tag": tag, "eta": eta}
                                     for tag, eta in exp.channels.items()]
        for i, ch in enumerate(channels):
            _check_keys(ch, ("operator_tag", "eta"), f"channels[{i}]")
            tag = _checked(ch.get("operator_tag"), tuple(exp.channels),
                           f"channels[{i}].operator_tag")
            etas[tag] = _checked(ch.get("eta"), _NONNEGATIVE, f"channels[{i}].eta")
        if not len(channels) == len(etas) == len(exp.channels):  # each tag once
            raise ConfigError(f"channels: {self.experiment} needs each of the channels "
                              f"{list(exp.channels)} exactly once")
        self.channels = [{"operator_tag": tag, "eta": etas[tag]} for tag in exp.channels]
        _check_keys(self.scan, ("ranges", "sizes"), "scan")
        scan = self.scan or exp.default_scan()
        ranges, sizes = scan.get("ranges"), scan.get("sizes")
        if not (isinstance(ranges, list) and isinstance(sizes, list)
                and len(ranges) == len(sizes) == len(exp.free)):
            raise ConfigError(f"scan: {self.experiment} needs {len(exp.free)} ranges and as "
                              f"many sizes, one per free coefficient")
        for r in ranges:
            if not isinstance(r, list) or len(r) != 2:
                raise ConfigError(f"scan.ranges: bad interval {r!r}")
        rules = [rule for _, _, rule in exp.free.values()]
        self.scan = {"ranges": [[_checked(end, rule, f"scan.ranges[{i}]") for end in r]
                                for i, (r, rule) in enumerate(zip(ranges, rules))],
                     "sizes": [_checked(n, _COUNT, "scan.sizes") for n in sizes]}
        family = _family(self)
        for joint_rule in _JOINT_RULES:
            joint_rule(self, family)
        _check_path_text(self.out_dir, "out_dir")
        if self.basename is not None:
            _check_path_text(self.basename, "basename")
            if self.basename in (".", "..") or any(
                    sep in self.basename for sep in ("/", os.sep, os.altsep) if sep):
                raise ConfigError(f"basename: must name files in out_dir, so neither hold a "
                                  f"path separator nor be '.' or '..', got {self.basename!r}")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**cls._checked_fields(data))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(_json_value(text))

    @classmethod
    def _checked_fields(cls, data) -> dict:
        """data, checked to be an object of known fields naming an experiment."""
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected a JSON object, got {data!r}")
        if "experiment" not in data:
            raise ConfigError("experiment: missing required field")
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return data

    @property
    def digest(self) -> str:
        # hash the canonical values of the fields that affect the computed
        # numbers, so the same run hashes identically however it is written
        # and wherever the output lands
        data = {k: v for k, v in self.to_dict().items()
                if k not in ("out_dir", "basename")}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# protocol cells


def _channels(config):
    return [dynamics.NoiseChannel(ch["operator_tag"], ch["eta"]) for ch in config.channels]


def _family(config, kind=None, t_f=None) -> protocols.ProtocolFamily:
    """The experiment's protocol family in angular units.

    t_f defaults to params.t_f, or params.t_f_hi for the thermal sweep.
    """
    p = config.params
    params = {}  # the two-level families read no params
    if not config.experiment.startswith("tls"):
        omega0 = TWO_PI * p["nu0_hz"]
        params = {"omega0": omega0, "omega_f": omega0 / p["omega_ratio"], "mass": p["mass"]}
        if config.experiment == "ho_coherent":
            params["g_target"] = p["g_target"]
    if t_f is None:
        t_f = p["t_f"] if "t_f" in p else p["t_f_hi"]
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
    return {**(exp.measure(proto, config, channels) if exp.measure else {}),
            **exp.fidelity(proto, config, channels)}


def _grid_plan(config):
    """(label, family, ranges, sizes) of each optimize.scan call, in order."""
    return [(None, _family(config), config.scan["ranges"], config.scan["sizes"])]


def _thermal_plan(config):
    # per t_f: the constant-mu reference, the standard protocol, the r6 scan
    p, ranges, sizes = config.params, config.scan["ranges"], config.scan["sizes"]
    plan = []
    for t_f in np.geomspace(p["t_f_lo"], p["t_f_hi"], p["n_t_f"]):
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
    o_z = measures.closed_form_O_z(proto.g_poly, proto.t_f)
    o_x = measures.closed_form_O_x(proto.g_poly, proto.b_poly, proto.t_f)
    # channels come in table order: sigma_z, then sigma_x
    o_bar = measures.weighted_average([o_z, o_x], [c.eta for c in channels])
    return {"O_z": o_z, "O_x": o_x, "O_bar": o_bar}


def _coherent_measures(proto, config, channels):
    return {"S0": measures.ho_overlap_Sn(proto.rho, 0, proto.mass, proto.omega0, proto.t_f)}


def _tls_fidelity(proto, config, channels):
    return {"fidelity": dynamics.tls_fidelity(proto, channels)}


def _coherent_fidelity(proto, config, channels):
    alpha = complex(config.params["alpha_re"], config.params["alpha_im"])
    return {"fidelity": dynamics.coherent_fidelity(proto, alpha, channels[0])}


def _thermal_fidelity(proto, config, channels):
    fid, power = dynamics.thermal_fidelity(proto, config.params["n_bar"], channels[0])
    return {"fidelity": fid, "abs_mean_power": abs(power)}


# A finishing step maps (config, channels, [(label, family, scan rows)]) to
# the tables to write: (file suffix, extra header lines, columns, rows).


def _finish_fig1(config, channels, results):
    """Fidelity against O_z (or A_z) over the steep-blend coefficient scan."""
    rows = _rows(results[0][2], ("O_z", "A_z", "fidelity"))
    by = "O_z" if config.params["measure"] == "O" else "A_z"
    rows.sort(key=lambda r: r[1 if by == "O_z" else 2])
    return [("", [f"sorted_by: {by}"], ["g4", "O_z", "A_z", "fidelity"], rows)]


def _finish_fig2(config, channels, results):
    """Two-channel 2-D scan: O_z, O_x, their weighted average and fidelity."""
    rows = _rows(results[0][2], ("O_z", "O_x", "O_bar", "fidelity"))
    eta_z, eta_x = (c.eta for c in channels)
    best = max(rows, key=lambda r: r[5])
    lowest = min(rows, key=lambda r: r[4])
    header = [
        f"eta_z: {eta_z}", f"eta_x: {eta_x}",
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
        f"n_bar: {config.params['n_bar']}",
        "integrator: constant_mu, standard_sta, improved_sta magnus_q2_moments "
        "(closed-form Heisenberg flow, Magnus-4)",
        "improved_sta: scan-best r6 (grid includes the standard protocol)",
    ]
    return [("", header, ["t_f", "protocol", "r6", "fidelity", "abs_mean_power"], rows)]


#: a config value's rule (see _checked) is one of these three, a closed
#: interval (lo, hi) or a tuple of the allowed strings
_POSITIVE, _NONNEGATIVE, _COUNT = "a positive number", "a nonnegative number", "an integer >= 1"
_FINITE = (-math.inf, math.inf)


def _rule_text(rule) -> str:
    """rule in words, as config errors and README's field tables say it."""
    if isinstance(rule, str):
        return rule
    if isinstance(rule[0], str):
        return " or ".join(map(repr, rule))
    return "a finite number" if rule == _FINITE else f"a number in [{rule[0]:g}, {rule[1]:g}]"


def _checked(value, rule, what):
    """value as the canonical float, int or string that rule admits, or a
    ConfigError naming the field what. A string or boolean is never a number;
    a count may be written as a float with an integer value."""
    if isinstance(rule, tuple) and isinstance(rule[0], str):
        if isinstance(value, str) and value in rule:
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if rule == _COUNT:
            if value >= 1 and (isinstance(value, int) or value.is_integer()):
                return int(value)
        else:
            try:
                number = float(value)
            except OverflowError:  # an integer past the largest double
                number = math.inf
            lo, hi = (0.0, math.inf) if isinstance(rule, str) else rule
            if math.isfinite(number) and lo <= number <= hi and (number > 0 or rule != _POSITIVE):
                return number
    raise ConfigError(f"{what}: expected {_rule_text(rule)}, got {value!r}")


def _t_f_order(config, family):
    if "t_f_lo" in config.params and config.params["t_f_lo"] > config.params["t_f_hi"]:
        raise ConfigError("params.t_f_lo: must not exceed params.t_f_hi")


def _angular_values(config, family):
    # the values trap protocols are built from: 2 pi nu0_hz and
    # omega0 / omega_ratio can overflow or underflow
    for key, value in family.params.items():
        if not 0.0 < value < math.inf:
            raise ConfigError(f"params: {key} = {value!r} in angular units, "
                              f"must be positive and finite")


def _trap_moments(config, family):
    # the trap moments are scaled by (m omega0)^2 and by its inverse, and
    # heated by the q^2 noise dose of the longest run
    if "mass" not in family.params:
        return
    scale = family.params["mass"] * family.params["omega0"]
    if not sys.float_info.min <= scale * scale <= 1.0 / sys.float_info.min:
        raise ConfigError(f"params.mass: (mass * omega0)^2 = {scale * scale!r} or "
                          f"its inverse is not a finite normal float")
    eta = {ch["operator_tag"]: ch["eta"] for ch in config.channels}.get("q_squared", 0.0)
    dose = 8.0 * eta * family.t_f / scale**2
    if not dose <= dynamics.Q2_DOSE_MAX:
        raise ConfigError(f"params.mass: the q^2 noise dose 8 eta t_f / (mass * omega0)^2 = "
                          f"{dose:.3g} exceeds {dynamics.Q2_DOSE_MAX:.4g}, past which the "
                          f"trap moments overflow")


def _cell_cap(config, family):
    cells = math.prod(config.scan["sizes"])
    if cells > _MAX_CELLS:
        raise ConfigError(f"scan.sizes: the grid exceeds the cap of {_MAX_CELLS} cells")
    if config.params.get("n_t_f", 0) * (2 + cells) > _MAX_CELLS:
        raise ConfigError(f"params.n_t_f: {config.params['n_t_f']} durations of {2 + cells} "
                          f"cells each exceed the cap of {_MAX_CELLS} cells")


#: the rules that join fields, (config, family) -> None, checked in this order
_JOINT_RULES = (_t_f_order, _angular_values, _trap_moments, _cell_cap)


@dataclass(frozen=True)
class _Experiment:
    """One figure-level experiment: its config fields with their defaults and
    rules, and how it builds, measures, simulates and reports its cells."""

    figure: str
    params: dict                 # name -> (default in Hz, s, s/angstrom^2, rule)
    channels: dict               # operator_tag -> default eta, in the order kept
    free: dict                   # coefficient -> (default scan range and size, rule)
    kind: str                    # ProtocolFamily kind
    measure: Callable | None     # (proto, config, channels) -> columns
    fidelity: Callable           # (proto, config, channels) -> columns
    finish: Callable             # see the finishing steps above
    plan: Callable = _grid_plan  # config -> optimize.scan calls
    skips_infeasible: bool = False

    def default_scan(self) -> dict:
        return {"ranges": [list(r) for r, _, _ in self.free.values()],
                "sizes": [n for _, n, _ in self.free.values()]}


_EXPERIMENTS = {
    "tls_single": _Experiment(
        figure="fig1", kind="tls_steep_blend",
        params={"t_f": (0.5e-3, _POSITIVE), "measure": ("O", ("O", "A"))},
        channels={"sigma_z": 250.0}, free={"g4": ((-0.5, 1.25), 41, _FINITE)},
        measure=_tls_single_measures, fidelity=_tls_fidelity, finish=_finish_fig1,
    ),
    "tls_dual": _Experiment(
        figure="fig2", kind="tls_dual",
        params={"t_f": (0.5e-3, _POSITIVE)},
        channels={"sigma_z": 125.0, "sigma_x": 62.5},
        free={"shape": ((-1.0, 1.0), 9, (-1.0, 1.0)), "b_dip": ((0.0, 1.0), 5, (0.0, 1.0))},
        measure=_tls_dual_measures, fidelity=_tls_fidelity, finish=_finish_fig2,
    ),
    "ho_coherent": _Experiment(
        figure="fig3", kind="ho_coherent",
        params={"nu0_hz": (15.92e6, _POSITIVE), "omega_ratio": (100.0, _POSITIVE),
                "t_f": (100e-6, _POSITIVE), "alpha_re": (1.0, _FINITE),
                "alpha_im": (1.0, _FINITE), "g_target": (50.5e-6, _POSITIVE),
                "mass": (MASS_100_CA40, _POSITIVE)},
        channels={"q": 10.0}, free={"r6": ((-20.0, 5.0), 9, _FINITE)},
        measure=_coherent_measures, fidelity=_coherent_fidelity, finish=_finish_fig3,
        skips_infeasible=True,
    ),
    "ho_thermal": _Experiment(
        figure="fig4", kind="ho_thermal",
        params={"nu0_hz": (2.53e6, _POSITIVE), "omega_ratio": (100.0, _POSITIVE),
                "n_bar": (12.58, _NONNEGATIVE), "t_f_lo": (0.2e-6, _POSITIVE),
                "t_f_hi": (20e-6, _POSITIVE), "n_t_f": (10, _COUNT),
                "mass": (MASS_100_CA40, _POSITIVE)},
        channels={"q_squared": 0.0527}, free={"r6": ((0.0, 800.0), 9, _FINITE)},
        # no closed-form measure: the mean power needs the simulated moments
        measure=None, fidelity=_thermal_fidelity, finish=_finish_fig4, plan=_thermal_plan,
    ),
}

#: params that an experiment accepts and checks by their rule, then drops:
#: they reach neither the canonical config, its hash nor the family. The
#: two-level controls follow from the invariant's angles alone, so its scale
#: delta0_hz moves no number; the benchmark's tls_scan configs still set it
#: (ROADMAP T drops it there, and then this table)
_DROPPED_PARAMS = {"tls_single": {"delta0_hz": _POSITIVE}, "tls_dual": {"delta0_hz": _POSITIVE}}

_FIGURES = {exp.figure: name for name, exp in _EXPERIMENTS.items()}


# ---------------------------------------------------------------------------
# verbs


def _table_path(config, suffix) -> Path:
    """out_dir/<basename or experiment id><suffix>.csv."""
    return Path(config.out_dir) / f"{config.basename or config.experiment}{suffix}.csv"


def _write_table(config, suffix, columns, rows, extra=()):
    """Write <basename><suffix>.csv under a provenance header, plus its
    .schema.json sidecar; returns the CSV path."""
    header = [f"config_hash: {config.digest}",
              f"experiment: {config.experiment}", _UNIT_NOTE, *extra]
    path = _table_path(config, suffix)
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
    coeffs = _EXPERIMENTS[config.experiment].free
    free = [0.0] * len(coeffs) if free is None else free
    if len(free) != len(coeffs):
        raise ConfigError(f"--free: {config.experiment} takes {len(coeffs)} value(s), "
                          f"got {len(free)}")
    return _family(config).with_free([_checked(v, rule, f"--free {name}")
                                      for v, (name, (_, _, rule)) in zip(free, coeffs.items())])


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
    route = exp.fidelity if simulate else exp.measure
    if route is None:
        raise ConfigError(f"measure: {config.experiment} has no closed-form measure")
    columns = route(_cell_family(config, free).build(), config, _channels(config))
    suffix = "_fidelity" if simulate else "_measures"
    return _write_table(config, suffix, list(columns), [list(columns.values())])


_VERBS = {
    "synthesize": _verb_synthesize,
    "measure": _verb_measure,
    "simulate": lambda config, free: _verb_measure(config, free, simulate=True),
    "scan": lambda config, _: run_scan(config)[1],
}


@functools.cache
def _parser():
    """The argument parser, built once per process: building it probes the
    terminal size for every argument, and parse_args keeps no state."""
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
    """The run's config, validated once: the fields of the --config file (or
    the experiment's defaults) with the figure, --out and --grid applied."""
    data = {"experiment": getattr(args, "experiment", None)}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")  # as JSON requires
        except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8 ...
            raise ConfigError(f"--config: {exc}") from None
        data = ExperimentConfig._checked_fields(_json_value(text))
    elif data["experiment"] is None and args.verb != "reproduce":
        raise ConfigError("need --config or --experiment")
    if args.verb == "reproduce":
        # the figure's defaults win over a config of another experiment
        experiment = _FIGURES[args.figure]
        if data["experiment"] != experiment:
            data = {"experiment": experiment, "out_dir": data.get("out_dir", "."),
                    "basename": data.get("basename")}
        if data.get("basename") is None:
            data["basename"] = args.figure
    if args.out:
        data["out_dir"] = args.out
    exp = _EXPERIMENTS.get(data["experiment"]) if isinstance(data["experiment"], str) else None
    if args.grid is not None and exp is not None and isinstance(data.get("scan", {}), dict):
        scan = data.get("scan") or exp.default_scan()
        data["scan"] = {**scan, "sizes": [args.grid] * len(exp.free)}
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
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)  # before any cell runs
        # the longest file name any verb writes, <basename>_controls.schema.json
        name = _table_path(config, "_controls").with_suffix(".schema.json").name
        if len(os.fsencode(name)) > os.pathconf(config.out_dir, "PC_NAME_MAX"):
            raise ConfigError(f"basename: the file name {name!r} is too long for out_dir")
        # an overflow or invalid value ends the run before it writes a table
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            print(verb(config, getattr(args, "free", None)))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # out_dir cannot be made, or a table not written
        print(f"config error: out_dir: {exc}", file=sys.stderr)
        return 2
    except (InvariantControlError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
