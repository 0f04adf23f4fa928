"""Concrete control protocols built from boundary-constrained polynomials.

Two families are provided: population inversion of a two-level system driven
through the SU(2) invariant angles (G, B), and harmonic-trap expansions driven
through the Ermakov scaling function rho. A constant-mu reference expansion
(mu = omega_dot / omega^2) is included for comparison runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from math import comb, cos, isfinite, sin
from threading import Lock

import numpy as np

from . import algebra
from .constants import MASS_100_CA40
from .errors import (DimensionMismatch, IllConditionedPhase, InvariantControlError,
                     NonPositiveRho, NoRoot)
from .polynomial import BoundaryPolynomial, Constraint, horner, solve_boundary_polynomial

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
]

_SHIFT_FRACTION = 1e-6  # step for one-sided limits, relative to t_f
#: a polynomial root counts as real when its imaginary part is below this,
#: relative to its modulus (a double root splits by ~sqrt(machine epsilon))
_REAL_ROOT_TOL = 1e-7
#: largest admitted cancellation of the sqrt_poly phase sum: it then loses at
#: most three of sixteen digits (default and benchmark fig4 cells: <= 3.4)
_PHASE_CANCELLATION_MAX = 1e3
#: largest relative miss of a g-constrained protocol's phase integral: the
#: solved cells of the default and benchmark scans miss by at most 4.3e-15
_PHASE_MISS_MAX = 1e-9
#: largest miss of a trap protocol's Ermakov boundary conditions in s = t /
#: duration, relative to the larger boundary value of P (_meets_boundaries):
#: the default and benchmark cells miss by at most 2.0e-13, the widest test
#: scans (r6 in [-2000, 2000]) by 1.0e-11
_BOUNDARY_MISS_MAX = 1e-9


def _check_positive(**values):
    """ValueError unless every value is positive and finite."""
    if not all(v > 0.0 and isfinite(v) for v in values.values()):
        raise ValueError(f"{', '.join(values)} must be positive and finite")


@dataclass(frozen=True)
class BSpec:
    """Boundary data and extra coefficients for the azimuth polynomial B(t).

    The boundary values must stay at pi/2 (mod pi) whenever G touches a
    multiple of pi there, otherwise the detuning diverges; the default
    B = pi/2 with zero slopes keeps both controls regular for every
    admissible G, at the price of a zero synthesized detuning at the edges.
    Edge slopes give an edge detuning: where G touches a pole quadratically
    the removable limit is Delta(t_b) = -3 Bdot(t_b).
    """

    b0: float = np.pi / 2
    bf: float = np.pi / 2
    b0_dot: float = 0.0
    bf_dot: float = 0.0
    extra: tuple[float, ...] = ()
    pins: tuple[float, ...] = ()


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
    """Two-level population-inversion protocol from invariant angles.

    The controls follow from the angle paths (G, B) alone: the invariant's
    overall scale enters no control, measure or fidelity, so a protocol
    carries none.
    """

    g_poly: BoundaryPolynomial
    b_poly: BoundaryPolynomial
    t_f: float

    def controls(self, t):
        """Detuning and Rabi controls (Delta(t), Omega(t)) on a grid."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        delta, omega, removable = self._controls_raw(t)
        if np.any(removable):
            # removable 0/0 samples: one-sided limit a small step inward,
            # taking the formula's quotient there even below its tolerance
            shift = _SHIFT_FRACTION * self.t_f
            t_in = t[removable]
            t_in = np.where(t_in < 0.5 * self.t_f, t_in + shift, t_in - shift)
            delta[removable], omega[removable], _ = self._controls_raw(t_in)
        return delta, omega

    @cached_property
    def _b_on_equator(self) -> bool:
        """B is constant at pi/2 (mod pi), so the cot(B) term is exactly 0."""
        b = self.b_poly
        if isinstance(b, PathCombo):
            flat = not any(b.weights)
        else:
            c = b.coefficients
            flat = bool(np.all(np.abs(c[1:]) < 1e-12 * (1.0 + abs(c[0]))))
        return flat and abs(np.cos(b(0.0))) < 1e-12

    def _controls_raw(self, t):
        """(Delta, Omega, removable) from algebra.su2_controls_from_angles."""
        b_dot = self.b_poly(t, 1)
        delta, omega, removable = algebra.su2_controls_from_angles(
            self.g_poly(t), self.g_poly(t, 1), self.b_poly(t), b_dot)
        if self._b_on_equator:
            # the cot(B) term holds only the roundoff of cos(pi/2): drop it,
            # and with it every 0/0 of that term
            return -b_dot, omega, np.zeros_like(removable)
        return delta, omega, removable


def make_tls_protocol(t_f: float, g_extra=(), b_spec: BSpec | None = None) -> TlsProtocol:
    """Build a population-inversion protocol of duration t_f (no invariant
    scale: TlsProtocol).

    G runs from pi to 0 with flat edges; extra polynomial coefficients
    (in the scaled variable t/t_f) deform the path without touching the
    boundary conditions.
    """
    _check_positive(t_f=t_f)
    if b_spec is None:
        b_spec = BSpec()
    g_poly = _solve_angle_poly(t_f, np.pi, 0.0, 0.0, 0.0, g_extra)
    b_poly = _solve_angle_poly(
        t_f, b_spec.b0, b_spec.bf, b_spec.b0_dot, b_spec.bf_dot,
        b_spec.extra, b_spec.pins,
    )
    return TlsProtocol(g_poly=g_poly, b_poly=b_poly, t_f=t_f)


# ---------------------------------------------------------------------------
# steep angle paths built from composed smoothsteps
#
# A polynomial step of modest degree cannot cross the equator fast enough to
# protect against dephasing, and expanding a high-degree step into the power
# basis destroys it through roundoff. Nesting low-order smoothsteps keeps the
# evaluation exact at any steepness: the center slopes multiply while the
# boundary conditions stay flat.


@cache
def _smoothstep_coeffs(n: int) -> tuple[float, ...]:
    """c_0, ..., c_n of S_n(u) = u^(n+1) sum_k c_k u^k.

    c_k = C(n+k, k) C(2n+1, n-k) (-1)^k.
    """
    return tuple(float(comb(n + k, k) * comb(2 * n + 1, n - k) * (-1) ** k)
                 for k in range(n + 1))


def _smoothstep_scalar(n: int, u, order: int):
    """Value (order 0) or slope (order 1) of the n-th smoothstep on [0, 1].

    S_n(u) = u^(n+1) sum_k c_k u^k (degree 2n+1): the sum by Horner's rule,
    then n+1 multiplications by u. S_n'(u) = (2n+1) C(2n, n) (u(1-u))^n by
    repeated multiplication. Each product carries a factor u or u(1-u), so
    S(0) = S'(0) = S'(1) = 0 hold exactly, and S(1) = 1 because the integer
    coefficients sum to 1: windowed chains stay exactly flat outside their
    window.
    """
    u = np.asarray(u, dtype=float)
    if order == 0:
        out = horner(_smoothstep_coeffs(n), u)
        for _ in range(n + 1):
            out = out * u
        return out
    if order == 1:
        w = u * (1.0 - u)
        out = np.full_like(u, (2 * n + 1) * comb(2 * n, n))
        for _ in range(n):
            out = out * w
        return out
    raise ValueError("smoothstep derivatives implemented up to order 1")


@dataclass(frozen=True)
class SmoothstepChain:
    """Composition of smoothsteps, optionally compressed into a sub-window.

    Evaluates S_{n1}(S_{n2}(...(u))) with u = clip((s - lo) / (hi - lo));
    outside the window the value is exactly 0 or 1 with zero derivatives
    (the innermost step is flat to very high order, so the seam is smooth
    to machine precision). A call takes the value (order 0) or the slope
    (order 1) from _chain_samples, read-only.
    """

    orders: tuple[int, ...]
    duration: float
    window: tuple[float, float] = (0.0, 1.0)

    def __call__(self, t, order: int = 0):
        if order not in (0, 1):
            raise ValueError("chain derivatives implemented up to order 1")
        return _chain_samples(self, np.asarray(t, dtype=float))[order]

    def _evaluate(self, t):
        """(value, slope) at t, from one pass over the steps."""
        lo, hi = self.window
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"chain window {self.window} is not 0 <= lo < hi <= 1")
        val = np.clip((t / self.duration - lo) / (hi - lo), 0.0, 1.0)
        der = np.ones_like(val)
        for n in reversed(self.orders):
            der = der * _smoothstep_scalar(n, val, 1)
            val = _smoothstep_scalar(n, val, 0)
        return val, der * (1.0 / ((hi - lo) * self.duration))


class _Samples:
    """A float64 sample array as a chain memo key: hashed by its first and
    last samples only and equal only to bit-identical bytes of the same
    shape, so a lookup hashes 16 bytes and compares the rest once, and equal
    ends with other interiors are distinct keys."""

    __slots__ = ("shape", "data", "_hash")

    def __init__(self, t: np.ndarray):
        self.shape, self.data = t.shape, t.tobytes()
        self._hash = hash((self.data[:8], self.data[-8:]))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.shape == other.shape and self.data == other.data


class _SampleMemo:
    """Least-recently-used memo of read-only chain samples, bounded in bytes.

    A chain depends only on (orders, duration, window), while the free
    coefficients of a family enter only the PathCombo weights, so a scan
    samples the same chains on the same grid in every cell. An entry, keyed
    by the chain and the _Samples of t so only equal samples hit, holds the
    value and slope of one _evaluate and counts the bytes of t, value and
    slope; the oldest entries go to hold at most max_bytes. A lock keeps the
    entries and their byte count consistent when threads share the memo.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = Lock()

    def __call__(self, chain: SmoothstepChain, t: np.ndarray,
                 samples: _Samples | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(value, slope) of chain at t; samples, if given, is the _Samples of t."""
        key = (chain, samples if samples is not None else _Samples(t))
        with self._lock:
            pair = self._entries.get(key)
            if pair is not None:
                self._entries.move_to_end(key)
                return pair
            val, der = map(np.asarray, chain._evaluate(t))
            val.flags.writeable = der.flags.writeable = False
            pair, size = (val, der), t.nbytes + val.nbytes + der.nbytes
            if size <= self.max_bytes:
                self._entries[key] = pair
                self.nbytes += size
                while self.nbytes > self.max_bytes:
                    (_, old_t), (val, der) = self._entries.popitem(last=False)
                    self.nbytes -= len(old_t.data) + val.nbytes + der.nbytes
            return pair


#: the 4001-point closed-form grid and the first Magnus-6 batch of a
#: two-level cell (1152 nodes; six chains) fit in 4 MiB; a batch of 2^16
#: half steps, three nodes each, takes 4.5 MiB per chain and is not held
_chain_samples = _SampleMemo(4 << 20)


@dataclass(frozen=True)
class PathCombo:
    """Affine combination of smoothstep chains: constant + sum_i w_i *
    path_i(t). A call builds the _Samples of t once and looks each chain with
    a nonzero weight up in the chain memo under it."""

    constant: float
    weights: tuple[float, ...]
    paths: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.paths):
            raise DimensionMismatch(f"{len(self.weights)} path weights for {len(self.paths)} paths")
        if not all(map(isfinite, (self.constant, *self.weights))):
            raise InvariantControlError(f"path weights {self.weights} are not all finite")

    def __call__(self, t, order: int = 0):
        if order not in (0, 1):
            raise ValueError("path derivatives implemented up to order 1")
        t = np.asarray(t, dtype=float)
        samples = _Samples(t) if any(self.weights) else None
        acc = np.full(t.shape, self.constant if order == 0 else 0.0)
        for w, p in zip(self.weights, self.paths):
            if w != 0.0:
                acc += w * _chain_samples(p, t, samples)[order]
        return acc


DEFAULT_STEEP_CHAIN = (3, 3, 3, 3)
#: width of each tls_dual edge window, relative to t_f, where the plateau
#: family's G steps onto and off the equator and B dips and recovers
_DUAL_WINDOW = 0.12
#: deepest tls_dual B dip, as a fraction of pi/2: sin(B) stays >= sin(0.05 pi/2)
_DUAL_MAX_DIP = 0.95


def make_tls_steep_protocol(t_f: float, g4: float) -> TlsProtocol:
    """Inversion protocol blending the cubic ramp toward a steep-step G.

    g4 = 0 is the standard cubic protocol; g4 = 1 crosses the equator at the
    full steepness of the composed smoothstep chain DEFAULT_STEEP_CHAIN;
    values beyond 1 extrapolate along the same ray. B stays at pi/2. t_f
    and g4 fix the protocol (no invariant scale: TlsProtocol).
    """
    _check_positive(t_f=t_f)
    base = SmoothstepChain((1,), t_f)
    steep = SmoothstepChain(DEFAULT_STEEP_CHAIN, t_f)
    g_path = PathCombo(np.pi, (-np.pi * (1.0 - g4), -np.pi * g4), (base, steep))
    return TlsProtocol(g_poly=g_path, b_poly=PathCombo(np.pi / 2, (), ()), t_f=t_f)


def make_tls_dual_protocol(t_f: float, shape: float, b_dip: float) -> TlsProtocol:
    """Two-channel trade-off family for simultaneous sigma_z / sigma_x noise.

    shape in [-1, 1] morphs G: positive values blend toward a steep single
    step (dwell at the poles, protects against dephasing), negative values
    toward a double step with a plateau at pi/2 (dwell on the equator), its
    steps in the edge windows of width _DUAL_WINDOW t_f.
    b_dip in [0, 1] lowers B from pi/2 toward (1 - _DUAL_MAX_DIP) * pi/2 over
    the plateau, aligning the invariant with sigma_x there. The dip is
    capped so sin(B) stays bounded away from zero, and its amplitude is
    scaled by the plateau weight max(0, -shape): rotating the azimuth while
    G sits at a pole would require a divergent detuning, so without a
    plateau B stays flat. t_f, shape and b_dip fix the protocol (no
    invariant scale: TlsProtocol). G depends on (t_f, shape) alone, so the
    cells of one shape build equal G paths, and the closed-form slots of
    measures, keyed by the path, sample and take the sine of one G per
    shape.
    """
    _check_positive(t_f=t_f)
    if not -1.0 <= shape <= 1.0:
        raise ValueError("shape must lie in [-1, 1]")
    if not 0.0 <= b_dip <= 1.0:
        raise ValueError("b_dip must lie in [0, 1]")
    base = SmoothstepChain((1,), t_f)
    rise = SmoothstepChain(DEFAULT_STEEP_CHAIN, t_f, window=(0.0, _DUAL_WINDOW))
    fall = SmoothstepChain(DEFAULT_STEEP_CHAIN, t_f, window=(1.0 - _DUAL_WINDOW, 1.0))
    if shape >= 0:
        steep = SmoothstepChain(DEFAULT_STEEP_CHAIN, t_f)
        g_path = PathCombo(np.pi, (-np.pi * (1.0 - shape), -np.pi * shape), (base, steep))
    else:
        a = -shape
        g_path = PathCombo(np.pi, (-np.pi * (1.0 - a), -0.5 * np.pi * a, -0.5 * np.pi * a),
                           (base, rise, fall))
    dip = 0.5 * np.pi * _DUAL_MAX_DIP * b_dip * max(0.0, -shape)
    b_path = PathCombo(np.pi / 2, (-dip, dip), (rise, fall))
    return TlsProtocol(g_poly=g_path, b_poly=b_path, t_f=t_f)


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

    def __post_init__(self):
        if self.form not in ("inverse_sqrt_poly", "sqrt_poly"):
            raise ValueError(f"unknown form {self.form!r}")
        # P > 0 on [0, t_f] exactly: positive at both ends and no real root
        # in between, from the coefficients in s = t / duration
        c = self.inner.coefficients
        s_end = self.t_f / self.inner.duration
        if c[0] <= 0 or horner(c, s_end) <= 0:
            raise NonPositiveRho("inner polynomial is not positive at 0 or t_f")
        roots = self._roots
        real = roots.real[np.abs(roots.imag) <= _REAL_ROOT_TOL * np.abs(roots)]
        if np.any((real >= 0.0) & (real <= s_end)):
            raise NonPositiveRho("inner polynomial crosses zero on [0, t_f]")

    @cached_property
    def _roots(self) -> np.ndarray:
        """Roots of P in s = t / duration, from its companion matrix. The
        leading coefficient c[len(roots)] is the last above machine epsilon
        times the largest, so the companion matrix's entries stay below
        1/epsilon; the terms above it move P by less than roundoff."""
        c = self.inner.coefficients
        top = np.flatnonzero(np.abs(c) > np.finfo(float).eps * np.abs(c).max())[-1]
        companion = np.eye(top, k=-1)
        companion[:, top - 1:] = -c[:top, None] / c[top]
        return np.linalg.eigvals(companion).astype(complex)

    @property
    def _power(self) -> float:
        """The exponent a of rho = P^a."""
        return -0.5 if self.form == "inverse_sqrt_poly" else 0.5

    def _rho_derivs(self, t, order: int):
        """(rho, rho', ..., rho^(order)) of rho = P^a by the chain rule, up to
        order 3, from one evaluation of P, P', ... and of each power of P."""
        if not 0 <= order <= 3:
            raise ValueError("rho derivatives implemented up to order 3")
        a = self._power
        p = self.inner(t)
        rho = p**a
        if order == 0:
            return (rho,)
        pa1, p1 = p ** (a - 1), self.inner(t, 1)
        r1 = a * pa1 * p1
        if order == 1:
            return rho, r1
        pa2, p2 = p ** (a - 2), self.inner(t, 2)
        r2 = a * (a - 1) * pa2 * p1**2 + a * pa1 * p2
        if order == 2:
            return rho, r1, r2
        r3 = (a * (a - 1) * (a - 2) * p ** (a - 3) * p1**3
              + 3 * a * (a - 1) * pa2 * p1 * p2 + a * pa1 * self.inner(t, 3))
        return rho, r1, r2, r3

    def rho(self, t, order: int = 0):
        """rho = P^a, a = -1/2 or +1/2 by form, or its derivative of order <= 3."""
        return self._rho_derivs(t, order)[order]

    def omega_sq(self, t):
        """omega^2(t) from rho; a scalar t stays a Python float."""
        t = float(t) if isinstance(t, float) else t
        rho, _, r2 = self._rho_derivs(t, 2)
        return algebra.omega_sq_from_rho(rho, r2, self.omega0)

    def omega_sq_dot(self, t):
        rho, r1, r2, r3 = self._rho_derivs(t, 3)
        return -4.0 * self.omega0**2 * r1 / rho**5 - (r3 * rho - r2 * r1) / rho**2

    @cached_property
    def g_phase(self) -> float:
        """Phase integral g = int_0^tf dt / rho(t)^2, in closed form."""
        return float(self._phase_integral(self.t_f))

    def theta(self, t):
        """Invariant-mode phase omega0 * int_0^t dt'/rho^2."""
        return self.omega0 * self._phase_integral(t)

    def _phase_integral(self, t):
        """int_0^t dt'/rho^2 = int P (inverse_sqrt_poly) or int 1/P (sqrt_poly).

        1/P = sum_k w_k / (s - r_k) over the roots r_k of P in s = t / T,
        w_k = 1/P'(r_k), so int 1/P = T sum_k w_k log(1 - s/r_k), continuous
        as no root lies on [0, t_f]. Summed over the roots r = a + ib with
        b >= 0 (a pair counts twice) as log|1 - s/r| = log(((a - s)^2 + b^2)
        / |r|^2) / 2 and arg(1 - s/r) = atan2(b s, |r|^2 - a s).
        """
        if self.form == "inverse_sqrt_poly":
            return self.inner.antiderivative_at(t)
        if not len(self._roots):  # constant P
            return np.asarray(t, dtype=float) / self.inner.coefficients[0]
        roots, weights = self._partial_fractions
        s = np.asarray(t, dtype=float)[..., None] / self.inner.duration
        a, b = roots.real, roots.imag
        r_sq = a * a + b * b
        return self.inner.duration * (0.5 * np.log(((a - s) ** 2 + b * b) / r_sq) @ weights.real
                                      - np.arctan2(b * s, r_sq - a * s) @ weights.imag)

    @cached_property
    def _partial_fractions(self):
        """(roots with Im >= 0, w or 2 w for a pair) of _phase_integral.

        w_k = 1 / (c_top prod_{j != k} (r_k - r_j)) integrates exactly the
        polynomial with the computed roots. Near-double roots make the terms
        cancel: IllConditionedPhase when a bound on sum_k |w_k log(1 - s/r_k)|
        on [0, t_f] (|Im log| peaks at t_f, |Re log| at t_f or Re r_k),
        relative to the integral at t_f, exceeds _PHASE_CANCELLATION_MAX.
        """
        r, c = self._roots, self.inner.coefficients
        diff = r[:, None] - r[None, :]
        np.fill_diagonal(diff, 1.0)
        w = 1.0 / (c[len(r)] * diff.prod(axis=1))
        s_end = self.t_f / self.inner.duration
        log_end = np.log(1.0 - s_end / r)
        log_mid = np.log(1.0 - np.clip(r.real, 0.0, s_end) / r)
        bound = np.abs(w) @ np.hypot(np.maximum(abs(log_end.real), abs(log_mid.real)),
                                     log_end.imag)
        cancellation = bound / (w @ log_end).real
        if not 0.0 < cancellation <= _PHASE_CANCELLATION_MAX:
            raise IllConditionedPhase(f"nearly repeated roots of the inner polynomial: "
                                      f"the phase sum cancels {cancellation:.3g} times")
        keep = r.imag >= 0.0
        return r[keep], np.where(r.imag > 0.0, 2.0 * w, w.real)[keep]

    def heisenberg_coeffs(self, t):
        """Closed-form Heisenberg flow of the quadratures.

        Returns (fq, fp, gq, gp) with q_H = fq q + fp p and p_H = gq q + gp p;
        built from the classical solutions rho cos(theta), rho sin(theta) of
        the trap equation of motion. A scalar t stays a Python float, so the
        Fock right-hand side takes no 0-d array arithmetic.
        """
        scalar = isinstance(t, float)
        t = float(t) if scalar else np.asarray(t, dtype=float)
        rho, rho_dot = self._rho_derivs(t, 1)
        th = self.theta(t)
        c, s = (cos(th), sin(th)) if scalar else (np.cos(th), np.sin(th))
        fq = rho * c
        fp = rho * s / (self.mass * self.omega0)
        gq = self.mass * (rho_dot * c - (self.omega0 / rho) * s)
        gp = (rho_dot * s + (self.omega0 / rho) * c) / self.omega0
        return fq, fp, gq, gp


def _p_final(omega0, omega_f, form) -> float:
    """P(t_f) of rho = P^(-+1/2) by form, for rho(t_f) = sqrt(omega0/omega_f)."""
    return omega_f / omega0 if form == "inverse_sqrt_poly" else omega0 / omega_f


def _ermakov_inner(omega0, omega_f, t_f, form, extra) -> BoundaryPolynomial:
    """Inner polynomial P of rho = P^(-+1/2) by form, with the six Ermakov
    boundary conditions and the free coefficients extra."""
    return solve_boundary_polynomial(
        [Constraint(0.0, 0, 1.0), Constraint(t_f, 0, _p_final(omega0, omega_f, form)),
         *(Constraint(t, k, 0.0) for k in (1, 2) for t in (0.0, t_f))],
        degree=5 + len(extra),
        free_values=tuple(extra),
        duration=t_f,
    )


def _meets_boundaries(proto: HoProtocol) -> HoProtocol:
    """proto, unless its inner polynomial P misses one of the six boundary
    conditions of _ermakov_inner (P, dP/ds and d2P/ds2 at s = 0 and t_f /
    duration) by more than _BOUNDARY_MISS_MAX times the larger boundary
    value of P: then InvariantControlError, as its free values cancel past
    double precision."""
    p = proto.inner
    p_final = _p_final(proto.omega0, proto.omega_f, proto.form)
    for s, value in ((0.0, 1.0), (proto.t_f / p.duration, p_final)):
        v, d1, d2 = (horner(p._scaled_coeffs(k), s) for k in range(3))
        miss = max(abs(v - value), abs(d1), abs(d2)) / max(1.0, p_final)
        if not miss <= _BOUNDARY_MISS_MAX:
            raise InvariantControlError(f"the trap protocol misses its boundary conditions "
                                        f"at s = {s:g} by {miss:.3g} relative")
    return proto


def make_ho_protocol(
    omega0: float,
    omega_f: float,
    mass: float = MASS_100_CA40,
    t_f: float = 100e-6,
    form: str = "inverse_sqrt_poly",
    r_extra=(),
) -> HoProtocol:
    """Build a trap-expansion protocol satisfying the six Ermakov boundary
    conditions rho(0)=1, rho(t_f)=sqrt(omega0/omega_f), rhodot = rhoddot = 0
    at both edges. A solve that misses them by more than _BOUNDARY_MISS_MAX
    raises InvariantControlError (_meets_boundaries)."""
    _check_positive(omega0=omega0, omega_f=omega_f, mass=mass, t_f=t_f)
    return _meets_boundaries(HoProtocol(
        inner=_ermakov_inner(omega0, omega_f, t_f, form, tuple(r_extra)), form=form,
        omega0=omega0, omega_f=omega_f, mass=mass, t_f=t_f,
    ))


@lru_cache(maxsize=16)
def _ermakov_basis(omega0, omega_f, t_f, form):
    """(c0, e6, e7, g0, g6, g7), the arrays read-only: the inner polynomial
    P with the free values (r6, r7) has the coefficients c0 + r6 e6 + r7 e7
    and the integral g0 + r6 g6 + r7 g7 over [0, t_f], both affine in (r6,
    r7). Three solves per key, at (r6, r7) = (0, 0), (1, 0) and (0, 1)."""
    c0, c6, c7 = (_ermakov_inner(omega0, omega_f, t_f, form, extra).coefficients
                  for extra in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    e6, e7 = c6 - c0, c7 - c0
    for c in (c0, e6, e7):
        c.flags.writeable = False
    g0, g6, g7 = (float(BoundaryPolynomial(c, t_f).antiderivative_at(t_f)) for c in (c0, e6, e7))
    return c0, e6, e7, g0, g6, g7


def constrain_g_phase(
    omega0: float,
    omega_f: float,
    g_target: float,
    mass: float = MASS_100_CA40,
    t_f: float = 100e-6,
    form: str = "inverse_sqrt_poly",
    r6: float = 0.0,
) -> HoProtocol:
    """Solve the last free coefficient r7 so the phase integral hits g_target.

    Only the inverse-square-root form is solved: its integrand 1/rho^2 is the
    inner polynomial, so g is affine in r7 and the root is exact. r6 is the
    scan parameter of the family. The coefficients and g are affine in (r6,
    r7), so the Ermakov system is solved once per (omega0, omega_f, t_f)
    into a basis (_ermakov_basis, cached), and each build takes r7 in
    closed form and the coefficients as one three-term combination, without
    a solve. Against the three solves per build that this replaced, on the
    default fig3 and benchmark cells: S0 within 5.7e-14 relative, omega^2
    within 5.7e-14 of its maximum, r7 within 1.6e-12 relative, the phase
    within 4.3e-15 of g_target (the three solves: 4.3e-14), and on the fig3
    scan widened to r6 in [-2000, 2000] the same cells infeasible. Where the
    coefficients cancel past double precision, a protocol that misses its
    boundary conditions raises InvariantControlError (_meets_boundaries),
    and a phase that misses g_target by more than _PHASE_MISS_MAX relative
    raises NoRoot.
    """
    _check_positive(omega0=omega0, omega_f=omega_f, mass=mass, t_f=t_f)
    if form != "inverse_sqrt_poly":
        raise ValueError(f"the phase constraint is solved for the inverse_sqrt_poly "
                         f"form only, got {form!r}")
    c0, e6, e7, g0, g6, g7 = _ermakov_basis(omega0, omega_f, t_f, form)
    if g7 == 0.0:
        raise NoRoot("phase integral does not depend on r7")
    r6 = float(r6)
    with np.errstate(over="ignore", invalid="ignore"):
        r7 = (g_target - g0 - r6 * g6) / g7
        coeffs = c0 + r6 * e6 + r7 * e7
    if not np.isfinite(coeffs).all():
        raise InvariantControlError("the polynomial coefficients are not finite")
    # positivity of the inner polynomial is enforced by the constructor;
    # an infeasible g_target surfaces as NonPositiveRho here
    proto = _meets_boundaries(HoProtocol(
        inner=BoundaryPolynomial(coeffs, t_f, (r6, float(r7))), form=form,
        omega0=omega0, omega_f=omega_f, mass=mass, t_f=t_f))
    if not abs(proto.g_phase - g_target) <= _PHASE_MISS_MAX * abs(g_target):
        raise NoRoot(f"the phase integral {proto.g_phase:.6g} misses g_target {g_target:.6g}")
    return proto


@dataclass(frozen=True)
class ConstantMuControl:
    """Reference expansion with constant mu = omega_dot / omega^2."""

    omega0: float
    omega_f: float
    t_f: float
    mass: float

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

    def heisenberg_coeffs(self, t):
        """Closed-form Heisenberg flow of the quadratures.

        Returns (fq, fp, gq, gp) with q_H = fq q + fp p and p_H = gq q + gp p.
        With tau = 1 - mu omega0 t the trap equation is the Euler-Cauchy
        equation tau^2 q'' + q / mu^2 = 0, solved by sqrt(tau) cosh(k L) and
        sqrt(tau) sinh(k L) / k with L = log(tau), k^2 = 1/4 - 1/mu^2. In
        the phase phi = int_0^t omega = -L / mu and nu^2 = 1 - mu^2/4 =
        -mu^2 k^2 these are C = cos(nu phi) and S = sin(nu phi) / nu (cosh
        and sinh for nu^2 < 0, 1 and phi at nu = 0), and
        fq = sqrt(tau) (C + mu S/2), fp = sqrt(tau) S / (m omega0),
        gq = -m omega0 S / sqrt(tau), gp = (C - mu S/2) / sqrt(tau).
        mu = 0 is the static trap, phi = omega0 t: nothing divides by mu.
        """
        t = np.asarray(t, dtype=float)
        mu, w0 = self.mu, self.omega0
        x = -mu * w0 * t
        phi = w0 * t if mu == 0.0 else -np.log1p(x) / mu
        nu_sq = 1.0 - 0.25 * mu * mu
        nu = np.sqrt(abs(nu_sq))
        if nu_sq > 0.0:
            c, s = np.cos(nu * phi), np.sin(nu * phi) / nu
        elif nu_sq < 0.0:
            c, s = np.cosh(nu * phi), np.sinh(nu * phi) / nu
        else:
            c, s = np.ones_like(phi), phi
        root_tau = np.sqrt(1.0 + x)
        fq = root_tau * (c + 0.5 * mu * s)
        fp = root_tau * s / (self.mass * w0)
        gq = -self.mass * w0 * s / root_tau
        gp = (c - 0.5 * mu * s) / root_tau
        return fq, fp, gq, gp


def make_constant_mu_protocol(omega0: float, omega_f: float, t_f: float,
                              mass: float = MASS_100_CA40) -> ConstantMuControl:
    _check_positive(omega0=omega0, omega_f=omega_f, t_f=t_f, mass=mass)
    return ConstantMuControl(omega0=omega0, omega_f=omega_f, t_f=t_f, mass=mass)


# ---------------------------------------------------------------------------
# protocol families


#: kind -> (number of free coefficients, None for any; builder(params, t_f,
#: free)). Each builder looks its make_* (or constrain_g_phase) up in this
#: module when it runs, so a build goes through whatever that name holds.
_BUILDERS = {
    "tls_steep_blend": (1, lambda p, t_f, free: make_tls_steep_protocol(t_f, *free)),
    "tls_dual": (2, lambda p, t_f, free: make_tls_dual_protocol(t_f, *free)),
    "ho_coherent": (1, lambda p, t_f, free: constrain_g_phase(
        p["omega0"], p["omega_f"], p["g_target"], p.get("mass", MASS_100_CA40), t_f, r6=free[0])),
    "ho_thermal": (None, lambda p, t_f, free: make_ho_protocol(
        p["omega0"], p["omega_f"], p.get("mass", MASS_100_CA40), t_f, "sqrt_poly", free)),
    "ho_constant_mu": (0, lambda p, t_f, free: make_constant_mu_protocol(
        p["omega0"], p["omega_f"], t_f, p.get("mass", MASS_100_CA40))),
}


@dataclass(frozen=True)
class ProtocolFamily:
    """Description of a protocol family plus free coefficients.

    An "ho_coherent" family has r6 as its only free coefficient: build()
    solves r7 so the phase integral hits params["g_target"]
    (constrain_g_phase). The two-level kinds read no params. No kind checks
    the params keys, so a key that its builder does not read is ignored.
    """

    kind: str
    params: dict
    t_f: float
    free: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")

    def build(self):
        n_free, builder = _BUILDERS[self.kind]
        if n_free is not None and len(self.free) != n_free:
            raise ValueError(f"{self.kind} takes {n_free} free coefficient(s), "
                             f"got {len(self.free)}")
        return builder(self.params, self.t_f, self.free)

    def with_free(self, free) -> "ProtocolFamily":
        return replace(self, free=tuple(float(v) for v in free))
