"""SU(2) and Ermakov inverse engineering.

A two-level invariant is Omega_R ((cosG, sinG e^{iB}), (sinG e^{-iB}, -cosG))
for polar angles (G, B); the controls of H = Delta/2 sigma_z + Omega/2 sigma_x
that keep it invariant follow from the angle paths alone
(su2_controls_from_angles). A trap expansion is prescribed by the Ermakov
scaling function rho, and the trap frequency follows from rho and its second
derivative (omega_sq_from_rho).
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveRho, SingularControl

__all__ = [
    "su2_invariant_matrix",
    "su2_controls_from_angles",
    "omega_sq_from_rho",
    "PAULI_X",
    "PAULI_Z",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def su2_invariant_matrix(g_angle: float, b_angle: float, omega_r: float) -> np.ndarray:
    """2x2 invariant Omega_R * ((cosG, sinG e^{iB}), (sinG e^{-iB}, -cosG))."""
    cg, sg = np.cos(g_angle), np.sin(g_angle)
    e = np.exp(1j * b_angle)
    return omega_r * np.array([[cg, sg * e], [sg * np.conj(e), -cg]], dtype=complex)


#: a denominator sin(B) or sin(G) sin(B) below this counts as zero
_SINGULAR_ATOL = 1e-9


def su2_controls_from_angles(g, g_dot, b, b_dot):
    """Controls Delta = -Bdot + Gdot cot(G) cot(B), Omega = Gdot / sin(B).

    Inputs are scalars or arrays sampled on a time grid; returns (Delta,
    Omega, removable). Where a denominator is below _SINGULAR_ATOL, a
    numerator above 1e-9 of the rate scale max|Gdot| + max|Bdot| + 1 rad/s
    raises SingularControl. Otherwise the sample is a removable 0/0: Omega
    is 0 there, and where sin(G) sin(B) is the small denominator, removable
    marks the sample and Delta holds the quotient as computed (no cot term
    where the denominator is exactly 0), for the caller to replace by a
    limit (TlsProtocol.controls takes a one-sided one).
    """
    sin_b = np.sin(b)
    # Gdot cot(G) cot(B) as Gdot cosG cosB / (sinG sinB), so that the
    # tan(B) -> inf limit stays exact
    num = g_dot * np.cos(g) * np.cos(b)
    den = np.sin(g) * sin_b
    top = 1e-9 * (np.max(np.abs(g_dot)) + np.max(np.abs(b_dot)) + 1.0)

    removable = np.abs(den) < _SINGULAR_ATOL
    if np.any(removable & (np.abs(num) > top)):
        raise SingularControl("tan(G) tan(B) vanishes where Gdot != 0")
    zero = den == 0.0
    delta = -b_dot + np.where(zero, 0.0, num / np.where(zero, 1.0, den))

    small = np.abs(sin_b) < _SINGULAR_ATOL
    if np.any(small & (np.abs(g_dot) > top)):
        raise SingularControl("sin(B) vanishes where Gdot != 0")
    omega = np.where(small, 0.0, g_dot / np.where(small, 1.0, sin_b))
    if delta.ndim == 0:
        return float(delta), float(omega), bool(removable)
    return delta, omega, removable


def omega_sq_from_rho(rho, rho_ddot, omega0: float):
    """Trap control omega^2(t) = omega0^2 / rho^4 - rhoddot / rho.

    Negative values (transiently inverted trap) are returned as-is. Floats
    give a float without 0-d array arithmetic (the moment-ODE oracle calls
    this once per right-hand side), unless a power overflows or underflows
    to a zero divisor: those take the array route, to inf and its warning.
    """
    if isinstance(rho, float) and isinstance(rho_ddot, float):
        if rho <= 0:
            raise NonPositiveRho("rho must be strictly positive")
        try:
            return omega0**2 / rho**4 - rho_ddot / rho
        except (OverflowError, ZeroDivisionError):
            pass
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise NonPositiveRho("rho must be strictly positive")
    return omega0**2 / rho**4 - np.asarray(rho_ddot, dtype=float) / rho
