"""Layer tracing for the benchmark's traced run.

The tracer patches the package's functions from outside, under the names
their callers look them up by, and restores every original on exit; nothing
in src/ knows about it. Layers are the package modules.

Two kinds of wrapper:

* span: build, integrator, measure, fidelity, optimize and CLI-entry calls.
  Each records (name, parent, cell, start, end) in memory.
* hot: calls made once per ODE right-hand-side evaluation or per grid
  evaluation (about 1e5 per oscillator cell). These only count calls and sum
  their time; they record no span, so the trace stays small.

Both kinds keep a frame on one stack, so a layer's self time is every frame's
duration minus the time its child frames cover, whatever the kind. A cell
starts at each protocol build that no other build encloses, so one cell's
spans share an id.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict

from invariant_control import (
    algebra, cli, dynamics, measures, optimize, polynomial, protocols, states,
)
from invariant_control.errors import TruncationWarning

SPAN, HOT, BUILD = "span", "hot", "build"

LAYERS = ("protocols", "polynomial", "algebra", "dynamics", "measures",
          "states", "optimize", "cli")

P, D, M = protocols, dynamics, measures

#: (owner, attribute, metric key, layer, kind); owner is the namespace the
#: caller looks the name up in
TARGETS = [
    (P, "make_tls_protocol", "protocols.make_tls_protocol", "protocols", BUILD),
    (P, "make_tls_steep_protocol", "protocols.make_tls_steep_protocol", "protocols", BUILD),
    (P, "make_tls_dual_protocol", "protocols.make_tls_dual_protocol", "protocols", BUILD),
    (P, "make_ho_protocol", "protocols.make_ho_protocol", "protocols", BUILD),
    (P, "constrain_g_phase", "protocols.constrain_g_phase", "protocols", BUILD),
    (P, "make_constant_mu_protocol", "protocols.make_constant_mu_protocol", "protocols", BUILD),
    (P.ProtocolFamily, "build", "protocols.family_build", "protocols", BUILD),
    (P.TlsProtocol, "controls", "protocols.controls", "protocols", HOT),
    (P.HoProtocol, "omega_sq", "protocols.omega_sq", "protocols", HOT),
    (P.ConstantMuControl, "omega_sq", "protocols.omega_sq", "protocols", HOT),
    (P.HoProtocol, "omega_sq_dot", "protocols.omega_sq_dot", "protocols", HOT),
    (P.ConstantMuControl, "omega_sq_dot", "protocols.omega_sq_dot", "protocols", HOT),
    (P.HoProtocol, "heisenberg_coeffs", "protocols.heisenberg_coeffs", "protocols", HOT),
    (P.PathCombo, "__call__", "protocols.path_eval", "protocols", HOT),
    # protocols imports the solver by name; BoundaryPolynomial.with_free_values
    # reaches it through the polynomial module
    (P, "solve_boundary_polynomial", "polynomial.solve", "polynomial", SPAN),
    (polynomial, "solve_boundary_polynomial", "polynomial.solve", "polynomial", SPAN),
    (polynomial.BoundaryPolynomial, "antiderivative_at", "polynomial.antiderivative",
     "polynomial", HOT),
    (algebra, "omega_sq_from_rho", "algebra.omega_sq_from_rho", "algebra", HOT),
    (algebra, "su2_invariant_matrix", "algebra.su2_invariant_matrix", "algebra", HOT),
    (algebra, "su2_controls_from_angles", "algebra.su2_controls_from_angles", "algebra", HOT),
    (D, "integrate_master", "dynamics.integrate_master", "dynamics", SPAN),
    (D, "integrate_moments", "dynamics.integrate_moments", "dynamics", SPAN),
    (D, "integrate_ho_master", "dynamics.integrate_ho_master", "dynamics", SPAN),
    (D, "fock_operators", "dynamics.fock_operators", "dynamics", SPAN),
    (D, "lindblad_rhs", "dynamics.lindblad_rhs", "dynamics", HOT),
    (D, "gaussian_moment_rhs", "dynamics.gaussian_moment_rhs", "dynamics", HOT),
    (M, "closed_form_O_z", "measures.closed_form", "measures", SPAN),
    (M, "closed_form_A_z", "measures.closed_form", "measures", SPAN),
    (M, "closed_form_O_x", "measures.closed_form", "measures", SPAN),
    (M, "weighted_average", "measures.weighted_average", "measures", SPAN),
    (M, "ho_overlap_Sn", "measures.ho_overlap_Sn", "measures", SPAN),
    (M, "hermite_abs_integral", "measures.hermite_abs_integral", "measures", SPAN),
    (M, "average_power", "measures.average_power", "measures", SPAN),
    (M, "two_channel_landscape", "measures.two_channel_landscape", "measures", SPAN),
    (M, "measure_O", "measures.measure_O", "measures", SPAN),
    (M, "measure_A", "measures.measure_A", "measures", SPAN),
    (states, "gaussian_fidelity", "states.fidelity", "states", SPAN),
    (states, "uhlmann_fidelity", "states.fidelity", "states", SPAN),
    (states, "thermal_state", "states.thermal_state", "states", SPAN),
    (states, "coherent_state", "states.coherent_state", "states", SPAN),
    (states, "target_coherent", "states.target_coherent", "states", SPAN),
    (optimize, "scan", "optimize.scan", "optimize", SPAN),
    (optimize, "minimize", "optimize.minimize", "optimize", SPAN),
    (optimize, "constrained_minimize", "optimize.constrained_minimize", "optimize", SPAN),
    (cli, "main", "cli.main", "cli", SPAN),
]

#: positional index of the objective each optimize entry point calls
_OBJECTIVE_ARG = {"scan": 0, "minimize": 0, "constrained_minimize": 2}


class Tracer:
    """Context manager that installs the wrappers and collects the trace."""

    def __init__(self):
        self.spans = []  # [name, parent span index, cell, start, end]
        self._stats = {}
        self._layer_self = {layer: [0.0] for layer in LAYERS}
        self.builds = 0
        self.rejected_builds = 0
        self.dynamics_errors = 0
        self.truncation_warnings = 0
        self.fock_dim = 0
        self.evals = 0
        self._stack = []  # frames: [child seconds, layer, span index]
        self._build_depth = 0
        self._cell = 0
        self._saved = []

    # -- install / uninstall ----------------------------------------------

    def __enter__(self):
        for owner, attr, key, layer, kind in TARGETS:
            original = vars(owner)[attr]
            fn = original
            if owner is D and attr == "integrate_ho_master":
                fn = self._fock_hook(fn)
            if owner is optimize:
                fn = self._evals_hook(fn, _OBJECTIVE_ARG[attr])
            wrapper = (self._hot if kind == HOT else self._span)(fn, key, layer, kind)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- wrappers -----------------------------------------------------------

    def _hot(self, fn, key, layer, kind):
        stack, perf = self._stack, time.perf_counter
        stat, layer_self = self._stat(key), self._layer_self[layer]

        def wrapper(*args, **kwargs):
            frame = [0.0, layer, stack[-1][2] if stack else None]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                layer_self[0] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _span(self, fn, key, layer, kind):
        tracer = self
        stack, perf, spans = self._stack, time.perf_counter, self.spans
        stat, layer_self = self._stat(key), self._layer_self[layer]

        def wrapper(*args, **kwargs):
            if kind == BUILD:
                if tracer._build_depth == 0:
                    tracer._cell += 1
                tracer._build_depth += 1
                tracer.builds += 1
            index = len(spans)
            parent = stack[-1] if stack else None
            record = [key, parent[2] if parent else None, tracer._cell, 0.0, 0.0]
            spans.append(record)
            frame = [0.0, layer, index]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if kind == BUILD:
                    tracer.rejected_builds += 1
                if layer == "dynamics" and (parent is None or parent[1] != "dynamics"):
                    tracer.dynamics_errors += 1
                raise
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                record[3], record[4] = t0, t1
                stat[0] += 1
                stat[1] += dur
                layer_self[0] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if kind == BUILD:
                    tracer._build_depth -= 1

        return wrapper

    def _stat(self, key):
        # [calls, busy seconds], shared by every target with this key
        return self._stats.setdefault(key, [0, 0.0])

    def _fock_hook(self, fn):
        tracer = self

        def integrate_ho_master(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                traj = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, TruncationWarning):
                    tracer.truncation_warnings += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            tracer.fock_dim = max(tracer.fock_dim, traj.dim)
            return traj

        return integrate_ho_master

    def _evals_hook(self, fn, index):
        tracer = self

        def counted(objective):
            if isinstance(objective, optimize.Objective):
                objective = objective.evaluate

            def call(*args, **kwargs):
                tracer.evals += 1
                return objective(*args, **kwargs)

            return call

        def entry(*args, **kwargs):
            args = list(args)
            args[index] = counted(args[index])
            return fn(*args, **kwargs)

        return entry

    # -- results ------------------------------------------------------------

    def layer_metrics(self, wall_s: float, csv_bytes: int) -> dict:
        """Per-layer metrics of one traced pass, keyed by metric name."""
        c = defaultdict(int, {k: v[0] for k, v in self._stats.items()})
        b = defaultdict(float, {k: v[1] for k, v in self._stats.items()})
        self_s = {layer: acc[0] for layer, acc in self._layer_self.items()}
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "protocols.controls.calls": c["protocols.controls"],
            "protocols.controls.busy_s": b["protocols.controls"],
            "protocols.omega_sq.calls": c["protocols.omega_sq"],
            "protocols.omega_sq.busy_s": b["protocols.omega_sq"],
            "protocols.constrain_g_phase.busy_s": b["protocols.constrain_g_phase"],
            "protocols.infeasible_ratio":
                self.rejected_builds / self.builds if self.builds else 0.0,
            "polynomial.solve.calls": c["polynomial.solve"],
            "dynamics.integrate_master.calls": c["dynamics.integrate_master"],
            "dynamics.integrate_master.busy_s": b["dynamics.integrate_master"],
            "dynamics.lindblad_rhs.calls": c["dynamics.lindblad_rhs"],
            "dynamics.integrate_moments.calls": c["dynamics.integrate_moments"],
            "dynamics.integrate_moments.busy_s": b["dynamics.integrate_moments"],
            "dynamics.gaussian_moment_rhs.calls": c["dynamics.gaussian_moment_rhs"],
            "dynamics.integrate_ho_master.busy_s": b["dynamics.integrate_ho_master"],
            "dynamics.fock_dim": self.fock_dim,
            "dynamics.errors": self.dynamics_errors,
            "dynamics.truncation_warnings": self.truncation_warnings,
            "measures.closed_form.calls": c["measures.closed_form"],
            "measures.closed_form.busy_s": b["measures.closed_form"],
            "measures.ho_overlap_Sn.busy_s": b["measures.ho_overlap_Sn"],
            "measures.average_power.busy_s": b["measures.average_power"],
            "states.fidelity.calls": c["states.fidelity"],
            "optimize.evals": self.evals,
            "cli.csv_bytes": csv_bytes,
            # harness time no layer owns: config paths, CSV read-back, checks
            "bench.self_s": wall_s - sum(self_s.values()),
        })
        return out

    def trace_records(self) -> list:
        """Spans as dicts, times relative to the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return [
            {"id": i, "name": name, "parent": parent, "cell": cell,
             "start_s": start - t0, "end_s": end - t0}
            for i, (name, parent, cell, start, end) in enumerate(self.spans)
        ]
