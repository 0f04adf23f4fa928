"""One pass of each benchmark workload, with its correctness checks.

A pass is one time-to-solution: it runs every call of the workload once,
reads back what was written and checks it. Three workloads go through the
invctl entry point (cli.main with a generated config and the scan verb);
`design` calls the library directly. Checks that hold whatever the numerical
method run on every seed; on the default seed the outputs are also compared
with reference.json, generated with make_reference.py.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from invariant_control import cli, dynamics, measures, optimize, protocols, states
from invariant_control.errors import InvariantControlError, TruncationWarning

import hostspeed
from inputs import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: absolute tolerance on fidelities against the reference (integrator output)
FIDELITY_ATOL = 1e-6
#: relative tolerance on other integrator output (mean power, optimizer value)
INTEGRATED_RTOL = 1e-6
#: relative tolerance on closed-form measures, grid coordinates and constants
CLOSED_FORM_RTOL = 1e-9
SPEARMAN_MAX = -0.9
FOCK_GAUSS_ATOL = 1e-3

_INTEGRATED_COLUMNS = {"abs_mean_power"}


@dataclass
class PassResult:
    """Outcome of one pass: cells attempted, passed, failed, and outputs."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    csv_bytes: int = 0
    csv_sha256: str | None = None
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    #: wall seconds of each unit of the pass (one scan call with its checks,
    #: or one design section), keyed by unit name
    unit_s: dict = field(default_factory=dict)
    #: probe host speed around and during every unit (hostspeed.Sampler)
    probing: bool = False
    #: factor that scales each unit's wall time to the reference host
    #: speed (hostspeed.Sampler.finish), keyed by unit name
    speed: dict = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed - self.skipped

    @property
    def work_s(self) -> float:
        """Wall seconds of the units, without the probes among them."""
        return sum(self.unit_s.values())

    @contextlib.contextmanager
    def unit(self, name: str):
        sampler = hostspeed.Sampler() if self.probing else None
        if sampler is not None:
            sampler.arm()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if sampler is not None:
                sampler.disarm()
            elapsed = time.perf_counter() - t0
            if sampler is None:
                self.unit_s[name] = elapsed
            else:
                self.unit_s[name] = elapsed - sampler.probing_s
                self.speed[name] = sampler.finish()

    def fail(self, n: int, reason: str):
        self.failed += n
        self.failures.append(reason)


def _spearman(x, y) -> float:
    # ranks by double argsort; the inputs are continuous draws, so ties
    # do not occur and no tie correction is needed
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def _read_csv(path: Path):
    """(rows as dicts, header comment lines, data bytes) of an invctl table."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    header = [ln[2:].rstrip("\n") for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    reader = csv.reader(data)
    columns = next(reader)
    rows = []
    for raw in reader:
        row = {}
        for col, val in zip(columns, raw):
            try:
                row[col] = float(val)
            except ValueError:
                row[col] = val
        rows.append(row)
    return rows, header, "".join(data).encode()


def _close(a, b, column) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if column == "fidelity":
        return abs(a - b) <= FIDELITY_ATOL
    rtol = INTEGRATED_RTOL if column in _INTEGRATED_COLUMNS else CLOSED_FORM_RTOL
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def load_reference(workload: str, seed: int):
    """Reference outputs of a workload, or None off the default seed."""
    if seed != DEFAULT_SEED or not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


class CliWorkload:
    """Workload driven through invctl: one `scan` call per generated config."""

    def __init__(self, inputs: dict, run_dir: Path, reference=None):
        self.inputs = inputs
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.reference = reference
        self.config_paths = {}
        shutil.rmtree(self.out_dir, ignore_errors=True)
        run_dir.mkdir(parents=True, exist_ok=True)
        for key, cfg in inputs["configs"].items():
            path = run_dir / f"{key}.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            self.config_paths[key] = path

    def expected_cells(self, key: str) -> int:
        cfg = self.inputs["configs"][key]
        if cfg["experiment"] == "ho_thermal":
            return 3 * int(cfg["params"]["n_t_f"])
        return int(np.prod(cfg["scan"]["sizes"]))

    def _scan(self, key: str, res: PassResult):
        """Run one invctl scan; return its rows, or None if it failed."""
        n = self.expected_cells(key)
        res.attempted += n
        argv = ["--config", str(self.config_paths[key]),
                "--out", str(self.out_dir), "scan"]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a traceback out of invctl fails the scan
            res.fail(n, f"{key}: invctl raised {type(exc).__name__}: {exc}")
            return None
        if code != 0:
            res.fail(n, f"{key}: invctl exited {code}")
            return None
        rows, header, _ = _read_csv(self.out_dir / f"{key}.csv")
        # run_ho_coherent documents infeasible cells in the header and skips them
        skipped = sum(line.startswith("skipped ") for line in header)
        res.skipped += skipped
        if len(rows) != n - skipped:
            res.fail(n - skipped, f"{key}: {len(rows)} rows, expected {n - skipped}")
            return None
        res.outputs[key] = rows
        return rows

    def _check_rows(self, key, rows, res: PassResult):
        """Per-cell checks: finite values, 0 <= F <= 1, reference match."""
        ref = self.reference["tables"][key] if self.reference else None
        if ref is not None and len(ref) != len(rows):
            res.fail(len(rows), f"{key}: {len(rows)} rows, reference has {len(ref)}")
            return
        bad = 0
        for i, row in enumerate(rows):
            ok = all(np.isfinite(v) for v in row.values() if isinstance(v, float))
            ok = ok and 0.0 <= row["fidelity"] <= 1.0
            if ok and ref is not None:
                ok = all(_close(row[c], ref[i][c], c) for c in ref[i])
            if not ok:
                bad += 1
                res.failures.append(f"{key}: row {i} failed its checks: {row}")
        res.failed += bad

    def _digest(self, res: PassResult):
        sha = hashlib.sha256()
        for path in sorted(self.out_dir.glob("*.csv")):
            _, _, body = _read_csv(path)
            sha.update(path.name.encode() + b"\n" + body)
            res.csv_bytes += path.stat().st_size
        res.csv_sha256 = sha.hexdigest()

    def run_pass(self, probing: bool = False) -> PassResult:
        res = PassResult(probing=probing)
        t0, c0 = time.perf_counter(), time.process_time()
        self.body(res)
        with res.unit("digest"):
            self._digest(res)
        res.wall_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - c0
        return res


class TlsScan(CliWorkload):
    """fig1 steep-blend cells and fig2 dual-channel cells."""

    def body(self, res):
        with res.unit("fig1"):
            rows = self._scan("fig1", res)
            if rows is not None:
                self._check_rows("fig1", rows, res)
                rho = _spearman([r["O_z"] for r in rows], [r["fidelity"] for r in rows])
                if not rho <= SPEARMAN_MAX:
                    res.fail(len(rows), f"fig1: Spearman(O_z, F) = {rho:.3f}")
        with res.unit("fig2"):
            rows = self._scan("fig2", res)
            if rows is not None:
                self._check_rows("fig2", rows, res)


class HoCoherent(CliWorkload):
    """Three fig3 cells plus a truncated-Fock cross-check of the third."""

    def body(self, res):
        for key in ("fig3a", "fig3b", "fig3c"):
            with res.unit(key):
                rows = self._scan(key, res)
                if rows is not None:
                    self._check_rows(key, rows, res)
        with res.unit("fock"):
            self._fock_check(res)

    def _fock_check(self, res):
        key = self.inputs["fock_cell"]
        res.attempted += 1
        rows = res.outputs.get(key)
        if rows is None:
            res.fail(1, "fock: gaussian cell missing")
            return
        p = self.inputs["configs"][key]["params"]
        omega0 = 2.0 * np.pi * p["nu0_hz"]
        omega_f = omega0 / p["omega_ratio"]
        alpha = complex(p["alpha_re"], p["alpha_im"])
        try:
            proto = protocols.constrain_g_phase(
                omega0, omega_f, p["g_target"], p["mass"], p["t_f"],
                "inverse_sqrt_poly", r6=rows[0]["r6"],
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                traj = dynamics.integrate_ho_master(
                    proto,
                    lambda d: states.coherent_state(alpha, omega0, p["mass"], "fock", d),
                    dynamics.NoiseChannel("q", 10.0), t_eval=[0.0, p["t_f"]],
                )
            target = states.target_coherent(
                alpha, proto.g_phase, omega0, omega_f, p["mass"])
            f_fock = states.uhlmann_fidelity(traj.final_rho, target.frame_fock(traj.dim))
        except InvariantControlError as exc:
            res.fail(1, f"fock: {type(exc).__name__}: {exc}")
            return
        res.outputs["fock"] = {"fidelity": f_fock, "dim": traj.dim}
        f_gauss = rows[0]["fidelity"]
        ref = self.reference["fock"] if self.reference else None
        if any(issubclass(w.category, TruncationWarning) for w in caught):
            res.fail(1, f"fock: truncated at d={traj.dim}")
        elif not (0.0 <= f_fock <= 1.0 and abs(f_fock - f_gauss) < FOCK_GAUSS_ATOL):
            res.fail(1, f"fock: F_fock={f_fock:.9f} F_gauss={f_gauss:.9f}")
        elif ref is not None and abs(f_fock - ref["fidelity"]) > FIDELITY_ATOL:
            res.fail(1, f"fock: F_fock={f_fock:.9f} reference {ref['fidelity']:.9f}")


class HoThermal(CliWorkload):
    """Two fig4 sweeps (antithetic log-shifted t_f lattices)."""

    def body(self, res):
        for key in ("fig4a", "fig4b"):
            with res.unit(key):
                self._sweep(key, res)

    def _sweep(self, key, res):
        rows = self._scan(key, res)
        if rows is None:
            return
        self._check_rows(key, rows, res)
        by_t = {}
        for r in rows:
            by_t.setdefault(r["t_f"], {})[r["protocol"]] = r["fidelity"]
        worse = [t for t, f in by_t.items()
                 if not f["improved_sta"] >= f["standard_sta"]]
        if worse:
            res.fail(len(worse), f"{key}: improved < standard at t_f={worse}")


class Design:
    """Protocol design without simulation, through the library."""

    def __init__(self, inputs, run_dir, reference=None):
        self.spec = inputs["spec"]
        self.reference = reference

    def run_pass(self, probing: bool = False) -> PassResult:
        res = PassResult(probing=probing)
        t0, c0 = time.perf_counter(), time.process_time()
        self.body(res)
        res.wall_s = time.perf_counter() - t0
        res.cpu_s = time.process_time() - c0
        return res

    def body(self, res):
        s = self.spec
        t_f = s["t_f"]
        self.o_max = measures.O_MAX_TWO_LEVEL + 1e-9
        self.dual = protocols.ProtocolFamily("tls_dual", {"delta0": s["delta0"]}, t_f)
        for name in ("steep", "dual", "refine", "constrained", "landscape"):
            with res.unit(name):
                getattr(self, f"_{name}")(res)
        if self.reference is not None:
            with res.unit("compare"):
                self._compare(res)

    def _o_bar(self, proto):
        t_f = self.spec["t_f"]
        o_z = measures.closed_form_O_z(proto.g_poly, t_f)
        o_x = measures.closed_form_O_x(proto.g_poly, proto.b_poly, t_f)
        return o_z, o_x, measures.weighted_average([o_z, o_x], self.spec["etas"])

    def _steep(self, res):
        s = self.spec
        t_f = s["t_f"]
        steep = protocols.ProtocolFamily("tls_steep_blend", {"delta0": s["delta0"]}, t_f)

        def steep_cell(coeffs):
            proto = steep.with_free(coeffs).build()
            return {
                "O_z": measures.closed_form_O_z(proto.g_poly, t_f),
                "A_z": measures.closed_form_A_z(proto.g_poly, t_f),
            }

        n = s["steep"]["size"]
        res.attempted += n
        rows = optimize.scan(steep_cell, [s["steep"]["range"]], [n])
        out = res.outputs["steep"] = [
            [r.coeffs[0], r.measures["O_z"], r.measures["A_z"]] for r in rows]
        bad = sum(not (0.0 <= o <= self.o_max and 0.0 <= a <= 1.0) for _, o, a in out)
        if bad:
            res.fail(bad, "steep: measure outside its bounds")

    def _dual(self, res):
        def dual_cell(coeffs):
            o_z, o_x, ob = self._o_bar(self.dual.with_free(coeffs).build())
            return {"O_z": o_z, "O_x": o_x, "O_bar": ob}

        sizes = self.spec["dual"]["sizes"]
        res.attempted += sizes[0] * sizes[1]
        rows = optimize.scan(dual_cell, self.spec["dual"]["ranges"], sizes)
        out = res.outputs["dual"] = [[*r.coeffs, r.measures["O_z"], r.measures["O_x"],
                                      r.measures["O_bar"]] for r in rows]
        bad = sum(not all(0.0 <= v <= self.o_max for v in r[2:]) for r in out)
        if bad:
            res.fail(bad, "dual: measure outside its bounds")

    def _refine(self, res):
        # refine O_bar from the best scan cell; the family is only defined
        # on shape in [-1, 1], b_dip in [0, 1], so the simplex is clipped
        start = min(res.outputs["dual"], key=lambda r: r[4])
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 1.0])

        def refine(x):
            return self._o_bar(self.dual.with_free(np.clip(x, lo, hi)).build())[2]

        res.attempted += 1
        x_best, v_best = optimize.minimize(refine, start[:2], xatol=1e-6)
        res.outputs["refined"] = [*np.clip(x_best, lo, hi).tolist(), v_best]
        if not (0.0 <= v_best <= start[4]):
            res.fail(1, f"minimize: {v_best!r} above its start {start[4]!r}")

    def _constrained(self, res):
        c = self.spec["coherent"]
        omega0 = c["omega0"]
        omega_f = omega0 / c["omega_ratio"]

        def build_constrained(r6):
            return protocols.constrain_g_phase(
                omega0, omega_f, c["g_target"], c["mass"], c["t_f"],
                "inverse_sqrt_poly", r6=r6,
            )

        def s0(proto):
            return measures.ho_overlap_Sn(proto.rho, 0, c["mass"], omega0, c["t_f"])

        res.attempted += c["size"]
        r6_values = np.linspace(c["r6"][0], c["r6"][1], c["size"])
        best, best_r6, best_s0, rows = optimize.constrained_minimize(
            build_constrained, r6_values, s0)
        w_sq = best.omega_sq(np.linspace(0.0, c["t_f"], 4001))
        res.outputs["constrained"] = [best_r6, best_s0, float(w_sq.min()), float(w_sq.max())]
        if not (best_s0 == min(r[2] for r in rows) and np.all(np.isfinite(w_sq))):
            res.fail(c["size"], "constrained: best S0 is not the scan minimum")

    def _landscape(self, res):
        w = self.spec["weights"]
        res.attempted += w["size"]
        out = res.outputs["landscape"] = []
        for p in np.linspace(w["range"][0], w["range"][1], w["size"]):
            land = measures.two_channel_landscape(float(p))
            expected_min = 2.0 * np.sqrt(2.0) * min(p, 1 - p) + 2.0 * max(p, 1 - p)
            out.append([float(p), land["minimum"], land["maximum"]])
            if not (abs(land["minimum"] - expected_min) <= 1e-3
                    and abs(land["maximum"] - 2.0 * np.sqrt(2.0)) <= 1e-12):
                res.fail(1, f"landscape p={p}: extremes off their closed forms")

    def _compare(self, res):
        # closed-form tables at CLOSED_FORM_RTOL, the simplex value at
        # INTEGRATED_RTOL (its path may change with last-digit differences)
        tol = {"steep": CLOSED_FORM_RTOL, "dual": CLOSED_FORM_RTOL,
               "constrained": CLOSED_FORM_RTOL, "landscape": CLOSED_FORM_RTOL}
        for key, rtol in tol.items():
            got, ref = res.outputs[key], self.reference[key]
            flat_got = np.ravel(np.asarray(got, dtype=float))
            flat_ref = np.ravel(np.asarray(ref, dtype=float))
            bad = flat_got.shape != flat_ref.shape or not np.allclose(
                flat_got, flat_ref, rtol=rtol, atol=0.0)
            if bad:
                res.fail(1, f"{key}: differs from the reference")
        v, v_ref = res.outputs["refined"][2], self.reference["refined"][2]
        if abs(v - v_ref) > INTEGRATED_RTOL * abs(v_ref):
            res.fail(1, f"refined: O_bar {v!r}, reference {v_ref!r}")


WORKLOAD_CLASSES = {
    "tls_scan": TlsScan,
    "ho_coherent": HoCoherent,
    "ho_thermal": HoThermal,
    "design": Design,
}


def make_workload(name: str, inputs: dict, run_dir: Path, seed: int):
    return WORKLOAD_CLASSES[name](inputs, run_dir, load_reference(name, seed))
