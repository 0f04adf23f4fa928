"""Lie-algebra inverse engineering for SU(2) and SU(1,1).

Invariants are linear combinations I = sum_a f_a T_a of algebra generators.
Given the free functions f_a, the Hamiltonian controls follow from the
coupling matrix of the structure constants; frictionless boundary conditions
force [H, I] = 0 at the protocol edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    NonPositiveRho,
    SingularControl,
)

__all__ = [
    "LieAlgebraSpec",
    "su2",
    "su11",
    "build_coupling_matrix",
    "su2_invariant_matrix",
    "su2_controls_from_angles",
    "su2_controls_from_components",
    "polar_components",
    "omega_sq_from_rho",
    "frictionless_residual",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants alpha[a, b, c] with [T_b, T_c] = sum_a alpha_abc T_a."""

    structure_constants: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.structure_constants, dtype=complex)
        if alpha.ndim != 3 or len(set(alpha.shape)) != 1:
            raise DimensionMismatch("structure constants must be N x N x N")
        if not np.allclose(alpha, -alpha.transpose(0, 2, 1), atol=1e-12):
            raise ConstraintViolated("structure constants must be antisymmetric in (b, c)")
        object.__setattr__(self, "structure_constants", alpha)

    @property
    def dimension(self) -> int:
        return self.structure_constants.shape[0]


def su2() -> LieAlgebraSpec:
    """[T1, T2] = i T3 and cyclic."""
    alpha = np.zeros((3, 3, 3), dtype=complex)
    for a, b, c in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        alpha[a, b, c] = 1j
        alpha[a, c, b] = -1j
    return LieAlgebraSpec(alpha)


def su11() -> LieAlgebraSpec:
    """[T1, T2] = -i T3, [T1, T3] = -2i T1, [T2, T3] = 2i T2."""
    alpha = np.zeros((3, 3, 3), dtype=complex)
    alpha[2, 0, 1] = -1j
    alpha[2, 1, 0] = 1j
    alpha[0, 0, 2] = -2j
    alpha[0, 2, 0] = 2j
    alpha[1, 1, 2] = 2j
    alpha[1, 2, 1] = -2j
    return LieAlgebraSpec(alpha)


def build_coupling_matrix(spec: LieAlgebraSpec, f) -> np.ndarray:
    """Coupling matrix G_ab = (1/i) sum_c alpha_abc f_c linking df/dt to controls."""
    f = np.asarray(f, dtype=float)
    if f.shape != (spec.dimension,):
        raise DimensionMismatch(
            f"expected {spec.dimension} components, got shape {f.shape}"
        )
    g = np.einsum("abc,c->ab", spec.structure_constants, f) / 1j
    if np.allclose(g.imag, 0.0, atol=1e-12):
        return g.real
    return g


def su2_invariant_matrix(g_angle: float, b_angle: float, omega_r: float) -> np.ndarray:
    """2x2 invariant Omega_R * ((cosG, sinG e^{iB}), (sinG e^{-iB}, -cosG))."""
    cg, sg = np.cos(g_angle), np.sin(g_angle)
    e = np.exp(1j * b_angle)
    return omega_r * np.array([[cg, sg * e], [sg * np.conj(e), -cg]], dtype=complex)


_SINGULAR_ATOL = 1e-12


def su2_controls_from_angles(g, g_dot, b, b_dot):
    """Controls Delta = -Bdot + Gdot/(tanG tanB), Omega = Gdot/sinB.

    Inputs may be scalars or arrays sampled on a time grid. Raises
    SingularControl where a denominator vanishes with nonzero numerator;
    removable 0/0 points must be handled by the caller (protocols do this
    with a one-sided finite-difference limit).
    """
    g, g_dot, b, b_dot = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (g, g_dot, b, b_dot))
    )
    sin_b = np.sin(b)
    scale = np.max(np.abs(g_dot)) + 1.0
    bad = (np.abs(sin_b) < _SINGULAR_ATOL) & (np.abs(g_dot) > 1e-9 * scale)
    if np.any(bad):
        raise SingularControl("sin(B) vanishes where Gdot != 0")
    omega = np.where(np.abs(sin_b) < _SINGULAR_ATOL, 0.0, g_dot / np.where(sin_b == 0, 1.0, sin_b))

    # Gdot/(tanG tanB) written as Gdot*cosG*cosB/(sinG*sinB) to keep the
    # tanB -> inf limit exact.
    num = g_dot * np.cos(g) * np.cos(b)
    den = np.sin(g) * sin_b
    bad = (np.abs(den) < _SINGULAR_ATOL) & (np.abs(num) > 1e-9 * scale)
    if np.any(bad):
        raise SingularControl("tan(G) tan(B) vanishes where Gdot != 0")
    corr = np.where(np.abs(den) < _SINGULAR_ATOL, 0.0, num / np.where(den == 0, 1.0, den))
    delta = -b_dot + corr
    if delta.ndim == 0:
        return float(delta), float(omega)
    return delta, omega


def polar_components(g_angle, b_angle, omega_r):
    """Invariant components matching the e^{iB} convention of the 2x2 matrix.

    f = Omega_R (sinG cosB, -sinG sinB, cosG); with this sign the component
    formulas reproduce the angle formulas exactly.
    """
    g_angle = np.asarray(g_angle, dtype=float)
    b_angle = np.asarray(b_angle, dtype=float)
    return np.stack(
        [
            omega_r * np.sin(g_angle) * np.cos(b_angle),
            -omega_r * np.sin(g_angle) * np.sin(b_angle),
            omega_r * np.cos(g_angle),
        ]
    )


def su2_controls_from_components(f, f_dot, tol: float = 1e-8):
    """Controls Delta = -f1dot/f2, Omega = f3dot/f2 for the SU(2) invariant.

    f and f_dot are arrays of shape (3,) or (3, n). The sphere constraint
    sum f_i^2 = const is enforced through sum f_i fdot_i ~ 0.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    f_dot = np.atleast_2d(np.asarray(f_dot, dtype=float))
    if f.shape[0] != 3 or f_dot.shape != f.shape:
        raise DimensionMismatch("expected component arrays of shape (3, n)")
    norm = np.sum(f * f, axis=0)
    drift = np.abs(np.sum(f * f_dot, axis=0))
    scale = np.sqrt(norm) * np.sqrt(np.sum(f_dot * f_dot, axis=0))
    if np.any(drift > tol * np.maximum(scale, 1e-300)):
        raise ConstraintViolated("f breaks the sphere constraint sum f_i^2 = const")
    f2 = f[1]
    small = np.abs(f2) < 1e-12 * np.sqrt(np.max(norm))
    if np.any(small & ((np.abs(f_dot[0]) > tol) | (np.abs(f_dot[2]) > tol))):
        raise SingularControl("f2 vanishes where f1dot or f3dot != 0")
    safe = np.where(small, 1.0, f2)
    delta = np.where(small, 0.0, -f_dot[0] / safe)
    omega = np.where(small, 0.0, f_dot[2] / safe)
    if delta.shape == (1,):
        return float(delta[0]), float(omega[0])
    return delta, omega


def omega_sq_from_rho(rho, rho_ddot, omega0: float):
    """Trap control omega^2(t) = omega0^2 / rho^4 - rhoddot / rho.

    Negative values (transiently inverted trap) are returned as-is.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise NonPositiveRho("rho must be strictly positive")
    return omega0**2 / rho**4 - np.asarray(rho_ddot, dtype=float) / rho


def frictionless_residual(h: np.ndarray, inv: np.ndarray) -> float:
    """Normalized Frobenius norm ||[H, I]|| / (||H|| ||I||); zero = frictionless."""
    h = np.asarray(h, dtype=complex)
    inv = np.asarray(inv, dtype=complex)
    if h.shape != inv.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch("H and I must be square matrices of equal size")
    comm = h @ inv - inv @ h
    denom = np.linalg.norm(h) * np.linalg.norm(inv)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(comm) / denom)
