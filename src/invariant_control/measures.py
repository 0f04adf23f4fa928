"""Noise-sensitivity measures for invariant-based control protocols.

Two families of measures are computed along a protocol: the time-averaged
excess overlap O between the invariant eigenbasis and the noise-operator
eigenbasis, and the normalized commutator norm A. Closed forms for the
two-level case, the oscillator wavefunction overlap S_n, the weighted
two-channel landscape and the average power complete the set. Every time
integral is composite Simpson on a uniform grid, w @ y with cached weights
w = h/3 (1, 4, 2, ..., 4, 1); scipy.integrate.simpson is its test oracle.

The two-level closed forms reuse their last result on an equal angle path,
by the slot rule _last. Three quantities keep one slot each: sin G (shared
by O_z, A_z and O_x) and the O_z value keyed by (G, t_f, grid), and the O_x
value keyed by (G, B, t_f, grid); a path is sampled on a miss only. Equal
PathCombos give bit-identical samples on a grid (a signed zero aside, which
|sin G| and cos B cannot see); a BoundaryPolynomial or any other callable
is equal only to itself, and the slot's strong reference keeps its id from
being reused. So a path must be a pure function of t. A scan whose cells
share G (tls_dual at one shape) or both angles (shape >= 0, where B stays
at pi/2) takes each sine and overlap sum once, and a hit returns a cold
call's value bit for bit. The slots hold one float64 grid array, 8 * grid
bytes (32 kB at grid 4001).
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import erf, factorial, isfinite, sqrt

import numpy as np

from .errors import (
    AllZeroStrengths,
    DegenerateSpectrum,
    DimensionMismatch,
    NonPositiveRho,
    ZeroNormalizer,
)

__all__ = [
    "overlap_matrix",
    "measure_O",
    "measure_A",
    "closed_form_O_z",
    "closed_form_A_z",
    "closed_form_O_x",
    "weighted_average",
    "ho_overlap_Sn",
    "hermite_abs_integral",
    "average_power",
    "two_channel_landscape",
    "simpson_weights",
    "O_MAX_TWO_LEVEL",
]

#: tight upper bound of sum |S_ij| - n for n = 2
O_MAX_TWO_LEVEL = 2.0 * np.sqrt(2.0) - 2.0
#: measure_A raises ZeroNormalizer below this int ||X I|| dt
_NORM_FLOOR = 1e-300


def overlap_matrix(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """S_ij = <phi_i|psi_j> for two orthonormal column bases."""
    a = np.asarray(basis_a, dtype=complex)
    b = np.asarray(basis_b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatch("bases must be matrices of equal shape")
    return a.conj().T @ b


def _excess_overlap(inv: np.ndarray, x_vecs: np.ndarray, gap_floor: float) -> float:
    vals, vecs = np.linalg.eigh(inv)  # ascending eigenvalues
    n = inv.shape[0]
    gaps = np.diff(vals)
    if np.any(gaps < gap_floor):
        raise DegenerateSpectrum("invariant spectrum is (near-)degenerate")
    s = overlap_matrix(vecs, x_vecs)
    return float(np.sum(np.abs(s)) - n)


def measure_O(invariant_path, x: np.ndarray, t_f: float, grid: int = 2001) -> float:
    """Time-averaged excess overlap (1/t_f) int (sum |S_ij| - n) dt.

    invariant_path is a callable t -> Hermitian matrix. The direct route
    that checks the closed forms (closed_form_O_z on a protocol's invariant).
    """
    ts, w = _simpson_rule(t_f, grid)
    mats = [np.asarray(invariant_path(t), dtype=complex) for t in ts]
    x = np.asarray(x, dtype=complex)
    _, x_vecs = np.linalg.eigh(x)
    scale = max(np.max(np.abs(m)) for m in mats)
    vals = np.array([_excess_overlap(m, x_vecs, 1e-10 * scale) for m in mats])
    return float(w @ vals / t_f)


def measure_A(invariant_path, x: np.ndarray, t_f: float, grid: int = 2001) -> float:
    """Commutator measure A = int ||[X, I]|| dt / (2 int ||X I|| dt) (Frobenius).

    The direct route that checks closed_form_A_z and the closed-form limits
    A = 1 (anticommuting pair) and A = 0 (commuting pair).
    """
    ts, w = _simpson_rule(t_f, grid)
    mats = [np.asarray(invariant_path(t), dtype=complex) for t in ts]
    x = np.asarray(x, dtype=complex)
    comm = np.empty(grid)
    prod = np.empty(grid)
    for i, m in enumerate(mats):
        xm = x @ m
        comm[i] = np.linalg.norm(xm - m @ x)
        prod[i] = np.linalg.norm(xm)
    denom = 2.0 * (w @ prod)
    if denom < _NORM_FLOOR:
        raise ZeroNormalizer("int ||X I|| dt vanishes")
    return float(w @ comm / denom)


# ---------------------------------------------------------------------------
# Simpson rule of the measures, S_n and the average power


def simpson_weights(i: np.ndarray, n: int) -> np.ndarray:
    """Composite Simpson weights (1, 4, 2, ..., 2, 4, 1) at the indices i of a
    uniform grid of n intervals, n even: times h/3, the integral's weights."""
    w = np.where(i % 2 == 1, 4.0, 2.0)
    w[(i == 0) | (i == n)] = 1.0
    return w


@lru_cache(maxsize=16)
def _simpson_rule(t_f: float, grid: int):
    """(ts, w) for composite Simpson on ts = linspace(0, t_f, grid), read-only:
    the integral of samples y on ts is w @ y, w = h/3 (1, 4, 2, ..., 4, 1).
    It agrees with scipy.integrate.simpson(y, x=ts) to grid * eps * (|w| @
    |y|). t_f must be positive and finite, grid odd and at least 3."""
    if not (t_f > 0.0 and isfinite(t_f)):
        raise ValueError(f"t_f must be positive and finite, got {t_f!r}")
    if grid < 3 or grid % 2 == 0:
        raise ValueError(f"the Simpson grid must be an odd number >= 3, got {grid!r}")
    ts = np.linspace(0.0, t_f, grid)
    w = (t_f / (grid - 1) / 3.0) * simpson_weights(np.arange(grid), grid - 1)
    for a in (ts, w):
        a.flags.writeable = False
    return ts, w


# ---------------------------------------------------------------------------
# two-level closed forms


def _overlap_sum_z(sin_g):
    """sum_ij |S_ij| of the sigma_z eigenbasis and an invariant at polar angle
    G: 2(|sin(G/2)| + |cos(G/2)|) = 2 sqrt(1 + |sin G|), from sin G."""
    return 2.0 * np.sqrt(1.0 + np.abs(sin_g))


def _overlap_sum_x(sin_g, b):
    """sum_ij |S_ij| of the sigma_x eigenbasis and an invariant at angles
    (G, B), which depends on them through cos(B) sin(G); from sin G and B."""
    cbsg = np.cos(b) * sin_g
    return 2.0 * (np.sqrt((1.0 - cbsg) / 2.0) + np.sqrt((1.0 + cbsg) / 2.0))


#: name -> (key, value): the last sin G, O_z and O_x (module docstring)
_slots: dict = {}


def _last(slots: dict, name, key, compute):
    """slots[name]'s value if its key equals key, else compute() kept there,
    as one (key, value) tuple read once: threads sharing a slot can recompute
    a value but never hit a key that is not their own."""
    slot = slots.get(name)
    if slot is not None and slot[0] == key:
        return slot[1]
    value = compute()
    slots[name] = (key, value)
    return value


def _sin_g(g_path, ts, key: tuple):
    """sin G on the Simpson grid ts, whose slot key is key, from the sine slot."""
    return _last(_slots, "sin", key, lambda: np.sin(np.asarray(g_path(ts), dtype=float)))


def closed_form_O_z(g_path, t_f: float, grid: int = 4001) -> float:
    """O for X = sigma_z: (1/t_f) int 2(|sin(G/2)| + |cos(G/2)| - 1) dt."""
    ts, w = _simpson_rule(t_f, grid)
    key = (g_path, t_f, grid)
    return _last(_slots, "O_z", key, lambda: float(
        w @ (_overlap_sum_z(_sin_g(g_path, ts, key)) - 2.0) / t_f))


def closed_form_A_z(g_path, t_f: float, grid: int = 4001) -> float:
    """A for X = sigma_z: (1/t_f) int |sin G| dt."""
    ts, w = _simpson_rule(t_f, grid)
    return float(w @ np.abs(_sin_g(g_path, ts, (g_path, t_f, grid))) / t_f)


def closed_form_O_x(g_path, b_path, t_f: float, grid: int = 4001) -> float:
    """O for X = sigma_x, depending on both angles through cos(B) sin(G)."""
    ts, w = _simpson_rule(t_f, grid)
    return _last(_slots, "O_x", (g_path, b_path, t_f, grid), lambda: float(
        w @ (_overlap_sum_x(_sin_g(g_path, ts, (g_path, t_f, grid)),
                            np.asarray(b_path(ts), dtype=float)) - 2.0) / t_f))


def weighted_average(measures, strengths) -> float:
    """Convex combination sum_j (eta_j / sum eta) measure_j."""
    m = np.asarray(measures, dtype=float)
    eta = np.asarray(strengths, dtype=float)
    if m.shape != eta.shape:
        raise DimensionMismatch("measures and strengths differ in length")
    if np.any(eta < 0):
        raise ValueError("strengths must be nonnegative")
    total = eta.sum()
    if not isfinite(total):
        raise ValueError("strengths and their sum must be finite")
    if total == 0:
        raise AllZeroStrengths("all channel strengths are zero")
    if not all(map(isfinite, m.tolist())):
        raise ValueError("measures must be finite")
    return float(m @ eta / total)


# ---------------------------------------------------------------------------
# oscillator overlap


@cache
def hermite_abs_integral(n: int) -> float:
    """J_n = int exp(-y^2/2) |H_n(y)| dy, exactly.

    H_n keeps its sign between consecutive roots, so J_n sums |F_n(b) -
    F_n(a)| over those intervals, with F_n the antiderivative of
    exp(-y^2/2) H_n: F_n = -2 exp(-y^2/2) H_(n-1) + 2 (n-1) F_(n-2),
    F_0 = sqrt(pi/2) erf(y/sqrt(2)). The outer ends sit at +-(sqrt(2n+1) +
    12), where the tails are far below roundoff. Cached: J_n depends on n
    alone, and every S_n evaluation reads it.
    """
    roots = []
    if n > 0:
        # numpy.polynomial loads nine modules, and only n >= 1 needs it
        from numpy.polynomial.hermite import hermroots

        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        roots = np.sort(hermroots(coeffs).real)
    edge = sqrt(2.0 * n + 1.0) + 12.0
    y = np.array([-edge, *roots, edge])
    gauss = np.exp(-0.5 * y * y)
    f = [sqrt(0.5 * np.pi) * np.array([erf(v / sqrt(2.0)) for v in y])]  # F_0
    h_prev, h = np.zeros_like(y), np.ones_like(y)  # H_(k-2), H_(k-1)
    for k in range(1, n + 1):
        f.append(-2.0 * gauss * h + (2.0 * (k - 1) * f[k - 2] if k > 1 else 0.0))
        h_prev, h = h, 2.0 * y * h - 2.0 * (k - 1) * h_prev
    return float(np.sum(np.abs(np.diff(f[n]))))


def ho_overlap_Sn(rho_path, n: int, mass: float, omega0: float, t_f: float,
                  grid: int = 2001) -> float:
    """Wavefunction overlap measure S_n = C_n (1/t_f) int sqrt(rho) dt.

    The position integral of |<q|phi_n(t)>| factorizes: substituting
    y = sqrt(m omega0) q / rho leaves a protocol-independent constant
    C_n = (m omega0)^(-1/4) pi^(-1/4) J_n / sqrt(2^n n!) times sqrt(rho),
    which is why minimizing S_n at any n minimizes all of them.
    """
    ts, w = _simpson_rule(t_f, grid)
    rho = rho_path(ts)
    if np.any(rho <= 0):
        raise NonPositiveRho("rho must be positive along the path")
    c_n = (
        (mass * omega0) ** -0.25
        * np.pi**-0.25
        * hermite_abs_integral(n)
        / np.sqrt(2.0**n * factorial(n))
    )
    return float(c_n * (w @ np.sqrt(rho)) / t_f)


def average_power(omega_sq_dot, qq, mass: float, t_f: float,
                  grid: int = 2001) -> float:
    """Mean drive power (1/t_f) int m omega omegadot <q^2> dt.

    omega_sq_dot is a callable of t and qq holds <q^2> sampled on the
    uniform grid; the product omega * omegadot is evaluated as
    d(omega^2)/dt / 2, so transiently inverted traps need no complex square
    root. The sign is preserved; take the absolute value at the reporting
    layer if needed.
    """
    ts, w = _simpson_rule(t_f, grid)
    return float(w @ (0.5 * mass * omega_sq_dot(ts) * qq) / t_f)


# ---------------------------------------------------------------------------
# two-channel landscape


@lru_cache(maxsize=4)
def _landscape_surfaces(n_theta: int, n_phi: int):
    """(theta, phi, sum_z, sum_x) of two_channel_landscape, read-only: the
    sigma_z and sigma_x overlap sums on the grid do not depend on the weight."""
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    sin_th = np.sin(th)
    sum_z, sum_x = _overlap_sum_z(sin_th), _overlap_sum_x(sin_th, ph)
    for a in (theta, phi, sum_z, sum_x):
        a.flags.writeable = False
    return theta, phi, sum_z, sum_x


def two_channel_landscape(p: float, n_theta: int = 181, n_phi: int = 361):
    """Weighted overlap sum over a parametrized measurement basis.

    For a fixed invariant direction parametrized by polar angles
    (theta, phi), the weighted sum p * (sum for sigma_z) + (1 - p) *
    (sum for sigma_x) is evaluated on a grid; returns a dict with the
    surface, the grid minimum/argmin and maximum. The grid and the two sums
    are cached per grid size, so "theta" and "phi" are read-only.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight p must lie in [0, 1]")
    theta, phi, sum_z, sum_x = _landscape_surfaces(n_theta, n_phi)
    w = p * sum_z + (1.0 - p) * sum_x
    imin = np.unravel_index(np.argmin(w), w.shape)
    imax = np.unravel_index(np.argmax(w), w.shape)
    return {
        "theta": theta,
        "phi": phi,
        "surface": w,
        "minimum": float(w[imin]),
        "argmin": (float(theta[imin[0]]), float(phi[imin[1]])),
        "maximum": float(w[imax]),
        "argmax": (float(theta[imax[0]]), float(phi[imax[1]])),
    }
