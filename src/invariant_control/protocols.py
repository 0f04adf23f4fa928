"""Concrete control protocols built from boundary-constrained polynomials.

Two families are provided: population inversion of a two-level system driven
through the SU(2) invariant angles (G, B), and harmonic-trap expansions driven
through the Ermakov scaling function rho. A constant-mu reference expansion
(mu = omega_dot / omega^2) is included for comparison runs.
"""

from __future__ import annotations

import json
from math import comb
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import bisect

from . import algebra
from .constants import MASS_100_CA40
from .errors import NonPositiveRho, NoRoot, SingularControl
from .polynomial import BoundaryPolynomial, Constraint, solve_boundary_polynomial

__all__ = [
    "BSpec",
    "TlsProtocol",
    "HoProtocol",
    "ConstantMuControl",
    "ProtocolFamily",
    "make_tls_protocol",
    "make_tls_steep_protocol",
    "make_tls_dual_protocol",
    "SmoothstepChain",
    "PathCombo",
    "DEFAULT_STEEP_CHAIN",
    "make_ho_protocol",
    "constrain_g_phase",
    "make_constant_mu_protocol",
    "DEFAULT_GRID",
]

DEFAULT_GRID = 2001

_SHIFT_FRACTION = 1e-6  # step for one-sided limits, relative to t_f


@dataclass(frozen=True)
class BSpec:
    """Boundary data and extra coefficients for the azimuth polynomial B(t).

    The boundary values must stay at pi/2 (mod pi) whenever G touches a
    multiple of pi there, otherwise the detuning diverges; the default
    B = pi/2 with zero slopes keeps both controls regular for every
    admissible G, at the price of a zero synthesized detuning at the edges.
    """

    b0: float = np.pi / 2
    bf: float = np.pi / 2
    b0_dot: float = 0.0
    bf_dot: float = 0.0
    extra: tuple[float, ...] = ()
    pins: tuple[float, ...] = ()

    @classmethod
    def with_boundary_detuning(cls, delta0: float, extra=()):
        """Slopes chosen so the synthesized detuning hits +-delta0 at the edges.

        For a quadratic touch of G at the boundary the removable limit gives
        Delta(t_b) = -3 Bdot(t_b), hence Bdot(0) = -delta0/3, Bdot(t_f) = delta0/3.
        Interior pins hold B near pi/2 between the edges so that sin(B) stays
        bounded away from zero even when delta0 * t_f is large.
        """
        return cls(
            b0_dot=-delta0 / 3.0, bf_dot=delta0 / 3.0, extra=tuple(extra),
            pins=(0.25, 0.5, 0.75),
        )


def _solve_angle_poly(t_f, v0, vf, d0, df, extra, pins=()):
    extra = tuple(extra)
    constraints = [
        Constraint(0.0, 0, v0),
        Constraint(t_f, 0, vf),
        Constraint(0.0, 1, d0),
        Constraint(t_f, 1, df),
    ]
    for frac in pins:
        constraints.append(Constraint(frac * t_f, 0, v0))
    return solve_boundary_polynomial(
        constraints,
        degree=3 + len(extra) + len(pins),
        free_values=extra,
        duration=t_f,
    )


@dataclass(frozen=True)
class TlsProtocol:
    """Two-level population-inversion protocol from invariant angles."""

    g_poly: BoundaryPolynomial
    b_poly: BoundaryPolynomial
    omega_r: float
    delta0: float
    t_f: float

    def angles(self, t):
        return self.g_poly(t), self.b_poly(t)

    def controls(self, t):
        """Detuning and Rabi controls (Delta(t), Omega(t)) on a grid."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        delta, omega = self._controls_raw(t)
        bad = ~np.isfinite(delta) | ~np.isfinite(omega)
        if np.any(bad):
            # removable 0/0 samples: one-sided limit a small step inward
            shift = _SHIFT_FRACTION * self.t_f
            t_in = np.where(t[bad] < 0.5 * self.t_f, t[bad] + shift, t[bad] - shift)
            d2, o2 = self._controls_raw(t_in, limit=True)
            delta[bad], omega[bad] = d2, o2
        return delta, omega

    @cached_property
    def _b_flat(self) -> bool:
        c = getattr(self.b_poly, "coefficients", None)
        if c is not None:
            return bool(np.all(np.abs(c[1:]) < 1e-12 * (1.0 + abs(c[0]))))
        ss = np.linspace(0.0, self.t_f, 257)
        return bool(
            np.max(np.abs(self.b_poly(ss) - self.b_poly(0.0))) < 1e-12
            and np.max(np.abs(self.b_poly(ss, 1))) * self.t_f < 1e-12
        )

    def _controls_raw(self, t, limit: bool = False):
        g = self.g_poly(t)
        g_dot = self.g_poly(t, 1)
        b = self.b_poly(t)
        b_dot = self.b_poly(t, 1)
        sg, cg = np.sin(g), np.cos(g)
        sb, cb = np.sin(b), np.cos(b)
        if self._b_flat:
            # constant B = pi/2 (mod pi): kill the cot(B) term despite roundoff
            cb = np.where(np.abs(cb) < 1e-12, 0.0, cb)
        scale = np.max(np.abs(g_dot)) + np.abs(self.omega_r)

        num = g_dot * cg * cb
        den = sg * sb
        if limit:
            zero = den == 0.0
            if np.any(zero & (np.abs(num) > 1e-9 * scale)):
                raise SingularControl("control limit does not exist at a sample")
            # den == 0 with num at roundoff level: the cot term is absent
            corr = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
        else:
            small = np.abs(den) < 1e-9
            if np.any(small & (np.abs(num) > 1e-9 * scale)):
                raise SingularControl("tan(G) tan(B) vanishes where Gdot != 0")
            # removable points: 0 is exact for flat B, otherwise defer to the
            # one-sided limit taken by controls()
            fill = 0.0 if self._b_flat else np.nan
            corr = np.where(small, fill, num / np.where(small, 1.0, den))
        delta = -b_dot + corr

        small_b = np.abs(sb) < 1e-9
        if np.any(small_b & (np.abs(g_dot) > 1e-9 * scale)):
            raise SingularControl("sin(B) vanishes where Gdot != 0")
        omega = np.where(small_b, 0.0, g_dot / np.where(small_b, 1.0, sb))
        return np.asarray(delta, dtype=float), np.asarray(omega, dtype=float)

    def hamiltonian(self, t):
        """H(t) = Delta/2 sigma_z + Omega/2 sigma_x at a single time."""
        delta, omega = self.controls(np.atleast_1d(t))
        return 0.5 * delta[0] * algebra.PAULI_Z + 0.5 * omega[0] * algebra.PAULI_X

    def invariant(self, t):
        g, b = self.g_poly(t), self.b_poly(t)
        return algebra.su2_invariant_matrix(float(g), float(b), self.omega_r)

    def to_dict(self):
        return {
            "kind": "tls_inversion",
            "delta0": self.delta0,
            "t_f": self.t_f,
            "g_extra": list(getattr(self.g_poly, "free_values", ())),
            "b_spec": {
                "b0": float(self.b_poly(0.0)),
                "bf": float(self.b_poly(self.t_f)),
                "b0_dot": float(self.b_poly(0.0, 1)),
                "bf_dot": float(self.b_poly(self.t_f, 1)),
                "extra": list(getattr(self.b_poly, "free_values", ())),
            },
        }


def make_tls_protocol(delta0: float, t_f: float, g_extra=(), b_spec: BSpec | None = None) -> TlsProtocol:
    """Build a population-inversion protocol.

    G runs from pi to 0 with flat edges; extra polynomial coefficients
    (in the scaled variable t/t_f) deform the path without touching the
    boundary conditions.
    """
    if t_f <= 0:
        raise ValueError("t_f must be positive")
    if b_spec is None:
        b_spec = BSpec()
    g_poly = _solve_angle_poly(t_f, np.pi, 0.0, 0.0, 0.0, g_extra)
    b_poly = _solve_angle_poly(
        t_f, b_spec.b0, b_spec.bf, b_spec.b0_dot, b_spec.bf_dot,
        b_spec.extra, b_spec.pins,
    )
    return TlsProtocol(
        g_poly=g_poly, b_poly=b_poly, omega_r=delta0, delta0=delta0, t_f=t_f
    )


# ---------------------------------------------------------------------------
# steep angle paths built from composed smoothsteps
#
# A polynomial step of modest degree cannot cross the equator fast enough to
# protect against dephasing, and expanding a high-degree step into the power
# basis destroys it through roundoff. Nesting low-order smoothsteps keeps the
# evaluation exact at any steepness: the center slopes multiply while the
# boundary conditions stay flat.


def _smoothstep_scalar(n: int, u, order: int):
    """Order-th derivative of the n-th smoothstep S_n (degree 2n+1) on [0,1]."""
    u = np.asarray(u, dtype=float)
    if order == 0:
        out = np.zeros_like(u)
        for k in range(n + 1):
            out += comb(n + k, k) * comb(2 * n + 1, n - k) * (-u) ** k
        return u ** (n + 1) * out
    lead = (2 * n + 1) * comb(2 * n, n)
    core = (u * (1.0 - u)) ** n
    if order == 1:
        return lead * core
    if order == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(core == 0.0, 0.0, core / np.where(u * (1 - u) == 0, 1.0, u * (1.0 - u)))
        return lead * n * (1.0 - 2.0 * u) * ratio
    raise ValueError("smoothstep derivatives implemented up to order 2")


@dataclass(frozen=True)
class SmoothstepChain:
    """Composition of smoothsteps, optionally compressed into a sub-window.

    Evaluates S_{n1}(S_{n2}(...(u))) with u = clip((s - lo) / (hi - lo));
    outside the window the value is exactly 0 or 1 with zero derivatives
    (the innermost step is flat to very high order, so the seam is smooth
    to machine precision).
    """

    orders: tuple[int, ...]
    duration: float
    window: tuple[float, float] = (0.0, 1.0)

    def __call__(self, t, order: int = 0):
        s = np.asarray(t, dtype=float) / self.duration
        lo, hi = self.window
        u = np.clip((s - lo) / (hi - lo), 0.0, 1.0)
        scale = 1.0 / ((hi - lo) * self.duration)
        if order == 0:
            val = u
            for n in reversed(self.orders):
                val = _smoothstep_scalar(n, val, 0)
            return val
        if order == 1:
            val, der = u, np.ones_like(u)
            for n in reversed(self.orders):
                der = der * _smoothstep_scalar(n, val, 1)
                val = _smoothstep_scalar(n, val, 0)
            return der * scale
        if order == 2:
            val = u
            der = np.ones_like(u)
            sec = np.zeros_like(u)
            for n in reversed(self.orders):
                f1 = _smoothstep_scalar(n, val, 1)
                f2 = _smoothstep_scalar(n, val, 2)
                sec = f2 * der * der + f1 * sec
                der = der * f1
                val = _smoothstep_scalar(n, val, 0)
            return sec * scale * scale
        raise ValueError("chain derivatives implemented up to order 2")

    @property
    def center_slope(self) -> float:
        """Slope of the composition at its midpoint in the window variable."""
        val, der = 0.5, 1.0
        for n in reversed(self.orders):
            der *= float(_smoothstep_scalar(n, val, 1))
            val = float(_smoothstep_scalar(n, val, 0))
        return der


@dataclass(frozen=True)
class PathCombo:
    """Affine combination of step paths: constant + sum_i w_i * path_i(t)."""

    constant: float
    weights: tuple[float, ...]
    paths: tuple
    duration: float
    free_values: tuple[float, ...] = ()

    def __call__(self, t, order: int = 0):
        t = np.asarray(t, dtype=float)
        acc = np.full(t.shape, self.constant if order == 0 else 0.0)
        for w, p in zip(self.weights, self.paths):
            if w != 0.0:
                acc = acc + w * p(t, order)
        return acc


DEFAULT_STEEP_CHAIN = (3, 3, 3, 3)


def make_tls_steep_protocol(
    delta0: float, t_f: float, g4: float, chain=DEFAULT_STEEP_CHAIN
) -> TlsProtocol:
    """Inversion protocol blending the cubic ramp toward a steep-step G.

    g4 = 0 is the standard cubic protocol; g4 = 1 crosses the equator at the
    full steepness of the composed smoothstep chain; values beyond 1
    extrapolate along the same ray. B stays at pi/2.
    """
    base = SmoothstepChain((1,), t_f)
    steep = SmoothstepChain(tuple(chain), t_f)
    g_path = PathCombo(
        constant=np.pi,
        weights=(-np.pi * (1.0 - g4), -np.pi * g4),
        paths=(base, steep),
        duration=t_f,
        free_values=(float(g4),),
    )
    b_path = PathCombo(np.pi / 2, (), (), t_f)
    return TlsProtocol(
        g_poly=g_path, b_poly=b_path, omega_r=delta0, delta0=delta0, t_f=t_f
    )


def make_tls_dual_protocol(
    delta0: float,
    t_f: float,
    shape: float,
    b_dip: float,
    window: float = 0.12,
    chain=DEFAULT_STEEP_CHAIN,
    max_dip: float = 0.95,
) -> TlsProtocol:
    """Two-channel trade-off family for simultaneous sigma_z / sigma_x noise.

    shape in [-1, 1] morphs G: positive values blend toward a steep single
    step (dwell at the poles, protects against dephasing), negative values
    toward a double step with a plateau at pi/2 (dwell on the equator).
    b_dip in [0, 1] lowers B from pi/2 toward (1 - max_dip) * pi/2 over the
    plateau, aligning the invariant with sigma_x there. The dip is capped so
    sin(B) stays bounded away from zero, and its amplitude is scaled by the
    plateau weight max(0, -shape): rotating the azimuth while G sits at a
    pole would require a divergent detuning, so without a plateau B stays
    flat.
    """
    if not -1.0 <= shape <= 1.0:
        raise ValueError("shape must lie in [-1, 1]")
    if not 0.0 <= b_dip <= 1.0:
        raise ValueError("b_dip must lie in [0, 1]")
    base = SmoothstepChain((1,), t_f)
    chain = tuple(chain)
    if shape >= 0:
        steep = SmoothstepChain(chain, t_f)
        g_path = PathCombo(
            np.pi, (-np.pi * (1.0 - shape), -np.pi * shape), (base, steep),
            duration=t_f, free_values=(float(shape), float(b_dip)),
        )
    else:
        a = -shape
        early = SmoothstepChain(chain, t_f, window=(0.0, window))
        late = SmoothstepChain(chain, t_f, window=(1.0 - window, 1.0))
        g_path = PathCombo(
            np.pi,
            (-np.pi * (1.0 - a), -0.5 * np.pi * a, -0.5 * np.pi * a),
            (base, early, late),
            duration=t_f, free_values=(float(shape), float(b_dip)),
        )
    rise = SmoothstepChain(chain, t_f, window=(0.0, window))
    fall = SmoothstepChain(chain, t_f, window=(1.0 - window, 1.0))
    dip = 0.5 * np.pi * max_dip * b_dip * max(0.0, -shape)
    b_path = PathCombo(
        np.pi / 2, (-dip, dip), (rise, fall), duration=t_f,
        free_values=(float(shape), float(b_dip)),
    )
    return TlsProtocol(
        g_poly=g_path, b_poly=b_path, omega_r=delta0, delta0=delta0, t_f=t_f
    )


# ---------------------------------------------------------------------------
# harmonic oscillator


@dataclass(frozen=True)
class HoProtocol:
    """Harmonic-trap expansion protocol driven by the Ermakov scaling rho(t).

    form 'inverse_sqrt_poly': rho = P(t)^(-1/2) (coherent-state runs);
    form 'sqrt_poly': rho = P(t)^(+1/2) (thermal runs). P is the inner
    boundary polynomial.
    """

    inner: BoundaryPolynomial
    form: str
    omega0: float
    omega_f: float
    mass: float
    t_f: float
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        if self.form not in ("inverse_sqrt_poly", "sqrt_poly"):
            raise ValueError(f"unknown form {self.form!r}")
        ts = np.linspace(0.0, self.t_f, self.grid)
        if np.any(self.inner(ts) <= 0):
            raise NonPositiveRho("inner polynomial crosses zero on [0, t_f]")

    def rho(self, t, order: int = 0):
        p = self.inner(t)
        if order == 0:
            return p ** (-0.5) if self.form == "inverse_sqrt_poly" else p**0.5
        p1 = self.inner(t, 1)
        if self.form == "inverse_sqrt_poly":
            if order == 1:
                return -0.5 * p ** (-1.5) * p1
            p2 = self.inner(t, 2)
            if order == 2:
                return 0.75 * p ** (-2.5) * p1**2 - 0.5 * p ** (-1.5) * p2
            p3 = self.inner(t, 3)
            if order == 3:
                return (
                    -1.875 * p ** (-3.5) * p1**3
                    + 2.25 * p ** (-2.5) * p1 * p2
                    - 0.5 * p ** (-1.5) * p3
                )
        else:
            if order == 1:
                return 0.5 * p ** (-0.5) * p1
            p2 = self.inner(t, 2)
            if order == 2:
                return -0.25 * p ** (-1.5) * p1**2 + 0.5 * p ** (-0.5) * p2
            p3 = self.inner(t, 3)
            if order == 3:
                return (
                    0.375 * p ** (-2.5) * p1**3
                    - 0.75 * p ** (-1.5) * p1 * p2
                    + 0.5 * p ** (-0.5) * p3
                )
        raise ValueError("rho derivatives implemented up to order 3")

    def omega_sq(self, t):
        rho = self.rho(t)
        return algebra.omega_sq_from_rho(rho, self.rho(t, 2), self.omega0)

    def omega_sq_dot(self, t):
        rho = self.rho(t)
        r1, r2, r3 = self.rho(t, 1), self.rho(t, 2), self.rho(t, 3)
        return -4.0 * self.omega0**2 * r1 / rho**5 - (r3 * rho - r2 * r1) / rho**2

    @cached_property
    def g_phase(self) -> float:
        """Phase integral g = int_0^tf dt / rho(t)^2 (composite Simpson)."""
        ts = np.linspace(0.0, self.t_f, self.grid)
        return float(simpson(1.0 / self.rho(ts) ** 2, x=ts))

    @cached_property
    def _theta_spline(self):
        n = max(4 * self.grid + 1, 8193)
        ts = np.linspace(0.0, self.t_f, n)
        vals = cumulative_simpson(1.0 / self.rho(ts) ** 2, x=ts, initial=0.0)
        return CubicSpline(ts, vals)

    def theta(self, t):
        """Invariant-mode phase omega0 * int_0^t dt'/rho^2."""
        return self.omega0 * self._theta_spline(np.asarray(t, dtype=float))

    def heisenberg_coeffs(self, t):
        """Closed-form Heisenberg flow of the quadratures.

        Returns (fq, fp, gq, gp) with q_H = fq q + fp p and p_H = gq q + gp p;
        built from the classical solutions rho cos(theta), rho sin(theta) of
        the trap equation of motion.
        """
        t = np.asarray(t, dtype=float)
        rho = self.rho(t)
        rho_dot = self.rho(t, 1)
        th = self.theta(t)
        c, s = np.cos(th), np.sin(th)
        fq = rho * c
        fp = rho * s / (self.mass * self.omega0)
        gq = self.mass * (rho_dot * c - (self.omega0 / rho) * s)
        gp = (rho_dot * s + (self.omega0 / rho) * c) / self.omega0
        return fq, fp, gq, gp

    def ermakov_residual(self, t):
        rho = self.rho(t)
        return self.rho(t, 2) + self.omega_sq(t) * rho - self.omega0**2 / rho**3

    def to_dict(self):
        return {
            "kind": "ho_expansion",
            "form": self.form,
            "omega0": self.omega0,
            "omega_f": self.omega_f,
            "mass": self.mass,
            "t_f": self.t_f,
            "r_extra": list(self.inner.free_values),
        }


def make_ho_protocol(
    omega0: float,
    omega_f: float,
    mass: float = MASS_100_CA40,
    t_f: float = 100e-6,
    form: str = "inverse_sqrt_poly",
    r_extra=(),
    grid: int = DEFAULT_GRID,
) -> HoProtocol:
    """Build a trap-expansion protocol satisfying the six Ermakov boundary
    conditions rho(0)=1, rho(t_f)=sqrt(omega0/omega_f), rhodot = rhoddot = 0
    at both edges."""
    if min(omega0, omega_f, mass, t_f) <= 0:
        raise ValueError("omega0, omega_f, mass and t_f must be positive")
    p_final = omega_f / omega0 if form == "inverse_sqrt_poly" else omega0 / omega_f
    extra = tuple(r_extra)
    inner = solve_boundary_polynomial(
        [
            Constraint(0.0, 0, 1.0),
            Constraint(t_f, 0, p_final),
            Constraint(0.0, 1, 0.0),
            Constraint(t_f, 1, 0.0),
            Constraint(0.0, 2, 0.0),
            Constraint(t_f, 2, 0.0),
        ],
        degree=5 + len(extra),
        free_values=extra,
        duration=t_f,
    )
    return HoProtocol(
        inner=inner, form=form, omega0=omega0, omega_f=omega_f,
        mass=mass, t_f=t_f, grid=grid,
    )


def constrain_g_phase(
    omega0: float,
    omega_f: float,
    g_target: float,
    mass: float = MASS_100_CA40,
    t_f: float = 100e-6,
    form: str = "inverse_sqrt_poly",
    r6: float = 0.0,
    bracket: float = 1.0,
    max_bracket: float = 1e4,
    grid: int = DEFAULT_GRID,
) -> HoProtocol:
    """Solve the last free coefficient r7 so the phase integral hits g_target.

    For the inverse-square-root form the integrand 1/rho^2 equals the inner
    polynomial, so g is affine in r7 and the root is solved exactly; for the
    square-root form the root is bisected after a geometric bracket search.
    r6 is retained as the scan parameter of the family.
    """

    def build(r7):
        return make_ho_protocol(
            omega0, omega_f, mass, t_f, form, (r6, r7), grid=grid
        )

    if form == "inverse_sqrt_poly":
        # g(r7) = int P dt is affine in the free coefficient; sample it at
        # r7 = 0 and 1 without positivity checks, then solve the line
        p_final = omega_f / omega0
        base_constraints = [
            Constraint(0.0, 0, 1.0),
            Constraint(t_f, 0, p_final),
            Constraint(0.0, 1, 0.0),
            Constraint(t_f, 1, 0.0),
            Constraint(0.0, 2, 0.0),
            Constraint(t_f, 2, 0.0),
        ]
        samples = []
        for r7 in (0.0, 1.0):
            inner = solve_boundary_polynomial(
                base_constraints, degree=7, free_values=(r6, r7),
                duration=t_f,
            )
            samples.append(float(inner.antiderivative_at(t_f)))
        slope = samples[1] - samples[0]
        if slope == 0.0:
            raise NoRoot("phase integral does not depend on r7")
        r7 = (g_target - samples[0]) / slope
        # positivity of the inner polynomial is enforced by the constructor;
        # an infeasible g_target surfaces as NonPositiveRho here
        proto = build(r7)
        if abs(proto.g_phase - g_target) > 1e-6 * abs(g_target):
            raise NoRoot("affine solve converged outside the g tolerance")
        return proto

    def g_of(r7):
        try:
            proto = build(r7)
        except NonPositiveRho:
            return None
        return proto.g_phase - g_target

    # candidate r7 values on a two-sided geometric ladder; infeasible points
    # (rho crossing zero) are skipped rather than aborting the search, since
    # the feasible set need not contain the ladder's endpoints
    ladder = [0.0]
    step = bracket
    while step <= max_bracket:
        ladder.extend((-step, step))
        step *= 1.5
    ladder.sort()
    values = [(r7, g_of(r7)) for r7 in ladder]
    feasible = [(r7, val) for r7, val in values if val is not None]
    lo = hi = None
    for (r_a, f_a), (r_b, f_b) in zip(feasible[:-1], feasible[1:]):
        if f_a == 0.0 or f_a * f_b < 0:
            lo, hi = r_a, r_b
            break
    if lo is None:
        raise NoRoot(
            f"no r7 bracket for g_target={g_target!r} within +-{max_bracket}"
        )

    def g_strict(r7):
        val = g_of(r7)
        if val is None:
            raise NonPositiveRho("rho crossed zero during root refinement")
        return val

    r7 = bisect(g_strict, lo, hi, xtol=1e-15 * max(abs(lo), abs(hi), 1.0), rtol=8.881784197001252e-16)
    proto = build(r7)
    if abs(proto.g_phase - g_target) > 1e-6 * abs(g_target):
        raise NoRoot("bisection converged outside the g tolerance")
    return proto


@dataclass(frozen=True)
class ConstantMuControl:
    """Reference expansion with constant mu = omega_dot / omega^2."""

    omega0: float
    omega_f: float
    t_f: float

    @property
    def mu(self) -> float:
        return (1.0 / self.omega0 - 1.0 / self.omega_f) / self.t_f

    def omega(self, t):
        t = np.asarray(t, dtype=float)
        return self.omega0 / (1.0 - self.mu * self.omega0 * t)

    def omega_sq(self, t):
        return self.omega(t) ** 2

    def omega_sq_dot(self, t):
        # d(omega^2)/dt = 2 omega omega_dot = 2 mu omega^3
        return 2.0 * self.mu * self.omega(t) ** 3

    def to_dict(self):
        return {
            "kind": "ho_constant_mu",
            "omega0": self.omega0,
            "omega_f": self.omega_f,
            "t_f": self.t_f,
        }


def make_constant_mu_protocol(omega0: float, omega_f: float, t_f: float) -> ConstantMuControl:
    if t_f <= 0 or omega0 <= 0 or omega_f <= 0:
        raise ValueError("omega0, omega_f, t_f must be positive")
    return ConstantMuControl(omega0=omega0, omega_f=omega_f, t_f=t_f)


# ---------------------------------------------------------------------------
# serializable family descriptions


_KINDS = (
    "tls_inversion",
    "tls_steep_blend",
    "tls_dual",
    "ho_coherent",
    "ho_thermal",
    "ho_constant_mu",
)


@dataclass(frozen=True)
class ProtocolFamily:
    """Serializable description of a protocol family plus free coefficients.

    An "ho_coherent" family whose params carry g_target has r6 as its only
    free coefficient; build() then solves r7 so the phase integral hits
    g_target (constrain_g_phase).
    """

    kind: str
    params: dict
    t_f: float
    free: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")

    def build(self):
        p = self.params
        if self.kind == "tls_inversion":
            b = p.get("b_spec")
            b_spec = BSpec(**b) if isinstance(b, dict) else b
            return make_tls_protocol(p["delta0"], self.t_f, self.free, b_spec)
        if self.kind == "tls_steep_blend":
            (g4,) = self.free
            return make_tls_steep_protocol(
                p["delta0"], self.t_f, g4, p.get("chain", DEFAULT_STEEP_CHAIN)
            )
        if self.kind == "tls_dual":
            shape, b_dip = self.free
            return make_tls_dual_protocol(
                p["delta0"], self.t_f, shape, b_dip,
                p.get("window", 0.12), p.get("chain", DEFAULT_STEEP_CHAIN),
            )
        if self.kind == "ho_coherent" and "g_target" in p:
            (r6,) = self.free
            return constrain_g_phase(
                p["omega0"], p["omega_f"], p["g_target"],
                p.get("mass", MASS_100_CA40), self.t_f, "inverse_sqrt_poly",
                r6=r6,
            )
        if self.kind == "ho_coherent":
            return make_ho_protocol(
                p["omega0"], p["omega_f"], p.get("mass", MASS_100_CA40),
                self.t_f, "inverse_sqrt_poly", self.free,
            )
        if self.kind == "ho_thermal":
            return make_ho_protocol(
                p["omega0"], p["omega_f"], p.get("mass", MASS_100_CA40),
                self.t_f, "sqrt_poly", self.free,
            )
        return make_constant_mu_protocol(p["omega0"], p["omega_f"], self.t_f)

    def with_free(self, free) -> "ProtocolFamily":
        return replace(self, free=tuple(float(v) for v in free))

    def to_json(self) -> str:
        params = {
            k: (v.__dict__ if isinstance(v, BSpec) else v)
            for k, v in self.params.items()
        }
        return json.dumps(
            {"kind": self.kind, "params": params, "t_f": self.t_f,
             "free": list(self.free)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ProtocolFamily":
        data = json.loads(text)
        return cls(
            kind=data["kind"], params=data["params"], t_f=data["t_f"],
            free=tuple(data.get("free", ())),
        )
