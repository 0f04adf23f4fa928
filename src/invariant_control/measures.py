"""Noise-sensitivity measures for invariant-based control protocols.

Two families of measures are computed along a protocol: the time-averaged
excess overlap O between the invariant eigenbasis and the noise-operator
eigenbasis, and the normalized commutator norm A. Closed forms for the
two-level case, the oscillator wavefunction overlap S_n, the weighted
two-channel landscape and the average power complete the set.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from numpy.polynomial.hermite import hermroots
from scipy.integrate import quad, simpson

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
    "O_MAX_TWO_LEVEL",
]

#: tight upper bound of sum |S_ij| - n for n = 2
O_MAX_TWO_LEVEL = 2.0 * np.sqrt(2.0) - 2.0


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
    ts = np.linspace(0.0, t_f, grid)
    mats = [np.asarray(invariant_path(t), dtype=complex) for t in ts]
    x = np.asarray(x, dtype=complex)
    _, x_vecs = np.linalg.eigh(x)
    scale = max(np.max(np.abs(m)) for m in mats)
    vals = np.array([_excess_overlap(m, x_vecs, 1e-10 * scale) for m in mats])
    return float(simpson(vals, x=ts) / t_f)


def measure_A(invariant_path, x: np.ndarray, t_f: float, grid: int = 2001,
              norm_floor: float = 1e-300) -> float:
    """Commutator measure A = int ||[X, I]|| dt / (2 int ||X I|| dt) (Frobenius).

    The direct route that checks closed_form_A_z and the closed-form limits
    A = 1 (anticommuting pair) and A = 0 (commuting pair).
    """
    ts = np.linspace(0.0, t_f, grid)
    mats = [np.asarray(invariant_path(t), dtype=complex) for t in ts]
    x = np.asarray(x, dtype=complex)
    comm = np.empty(grid)
    prod = np.empty(grid)
    for i, m in enumerate(mats):
        xm = x @ m
        comm[i] = np.linalg.norm(xm - m @ x)
        prod[i] = np.linalg.norm(xm)
    denom = 2.0 * simpson(prod, x=ts)
    if denom < norm_floor:
        raise ZeroNormalizer("int ||X I|| dt vanishes")
    return float(simpson(comm, x=ts) / denom)


# ---------------------------------------------------------------------------
# two-level closed forms


def closed_form_O_z(g_path, t_f: float, grid: int = 4001) -> float:
    """O for X = sigma_z: (1/t_f) int 2(|sin(G/2)| + |cos(G/2)| - 1) dt."""
    ts = np.linspace(0.0, t_f, grid)
    g = g_path(ts)
    integrand = 2.0 * (np.abs(np.sin(g / 2)) + np.abs(np.cos(g / 2)) - 1.0)
    return float(simpson(integrand, x=ts) / t_f)


def closed_form_A_z(g_path, t_f: float, grid: int = 4001) -> float:
    """A for X = sigma_z: (1/t_f) int |sin G| dt."""
    ts = np.linspace(0.0, t_f, grid)
    g = g_path(ts)
    return float(simpson(np.abs(np.sin(g)), x=ts) / t_f)


def closed_form_O_x(g_path, b_path, t_f: float, grid: int = 4001) -> float:
    """O for X = sigma_x, depending on both angles through cos(B) sin(G)."""
    ts = np.linspace(0.0, t_f, grid)
    g, b = g_path(ts), b_path(ts)
    cbsg = np.cos(b) * np.sin(g)
    integrand = 2.0 * (
        np.sqrt((1.0 - cbsg) / 2.0) + np.sqrt((1.0 + cbsg) / 2.0) - 1.0
    )
    return float(simpson(integrand, x=ts) / t_f)


def weighted_average(measures, strengths) -> float:
    """Convex combination sum_j (eta_j / sum eta) measure_j."""
    m = np.asarray(measures, dtype=float)
    eta = np.asarray(strengths, dtype=float)
    if m.shape != eta.shape:
        raise DimensionMismatch("measures and strengths differ in length")
    if np.any(eta < 0):
        raise ValueError("strengths must be nonnegative")
    total = eta.sum()
    if total == 0:
        raise AllZeroStrengths("all channel strengths are zero")
    return float(m @ eta / total)


# ---------------------------------------------------------------------------
# oscillator overlap


def hermite_abs_integral(n: int) -> float:
    """J_n = int exp(-y^2/2) |H_n(y)| dy, splitting at the Hermite roots."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    roots = np.sort(hermroots(coeffs).real) if n > 0 else np.array([])

    def f(y):
        return np.exp(-0.5 * y * y) * abs(np.polynomial.hermite.hermval(y, coeffs))

    edge = np.sqrt(2.0 * n + 1.0) + 12.0
    pts = np.concatenate(([-edge], roots, [edge]))
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, _ = quad(f, lo, hi, limit=200)
        total += val
    return total


def ho_overlap_Sn(rho_path, n: int, mass: float, omega0: float, t_f: float,
                  grid: int = 2001) -> float:
    """Wavefunction overlap measure S_n = C_n (1/t_f) int sqrt(rho) dt.

    The position integral of |<q|phi_n(t)>| factorizes: substituting
    y = sqrt(m omega0) q / rho leaves a protocol-independent constant
    C_n = (m omega0)^(-1/4) pi^(-1/4) J_n / sqrt(2^n n!) times sqrt(rho),
    which is why minimizing S_n at any n minimizes all of them.
    """
    ts = np.linspace(0.0, t_f, grid)
    rho = rho_path(ts)
    if np.any(rho <= 0):
        raise NonPositiveRho("rho must be positive along the path")
    c_n = (
        (mass * omega0) ** -0.25
        * np.pi**-0.25
        * hermite_abs_integral(n)
        / np.sqrt(2.0**n * factorial(n))
    )
    return float(c_n * simpson(np.sqrt(rho), x=ts) / t_f)


def average_power(omega_sq_dot, qq, mass: float, t_f: float,
                  grid: int = 2001) -> float:
    """Mean drive power (1/t_f) int m omega omegadot <q^2> dt.

    omega_sq_dot is a callable of t and qq holds <q^2> sampled on the
    uniform grid; the product omega * omegadot is evaluated as
    d(omega^2)/dt / 2, so transiently inverted traps need no complex square
    root. The sign is preserved; take the absolute value at the reporting
    layer if needed.
    """
    ts = np.linspace(0.0, t_f, grid)
    return float(simpson(0.5 * mass * omega_sq_dot(ts) * qq, x=ts) / t_f)


# ---------------------------------------------------------------------------
# two-channel landscape


def two_channel_landscape(p: float, n_theta: int = 181, n_phi: int = 361):
    """Weighted overlap sum over a parametrized measurement basis.

    For a fixed invariant direction parametrized by polar angles
    (theta, phi), the weighted sum p * (sum for sigma_z) + (1 - p) *
    (sum for sigma_x) is evaluated on a grid; returns a dict with the
    surface, the grid minimum/argmin and maximum.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight p must lie in [0, 1]")
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    sum_z = 2.0 * (np.abs(np.sin(th / 2)) + np.abs(np.cos(th / 2)))
    cps = np.cos(ph) * np.sin(th)
    sum_x = 2.0 * (np.sqrt((1.0 - cps) / 2.0) + np.sqrt((1.0 + cps) / 2.0))
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
