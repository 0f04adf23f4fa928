"""Reference routes that only the test suite calls.

Each one checks a library route by another: the Hamiltonian and invariant of
a two-level protocol for the dense master equation and the direct measures,
the Ermakov residual of a trap protocol, the lab-frame moments of a Fock
trajectory, the dissipator in an eigenbasis and as a superoperator, and the
Fock-basis thermal state. The package never imports this module, and it
loads numpy and the package only, no scipy.
"""

import numpy as np

from invariant_control import algebra
from invariant_control.dynamics import fock_operators


def tls_hamiltonian(proto):
    """t -> H(t) = Delta/2 sigma_z + Omega/2 sigma_x of a two-level protocol
    at a single time: the right-hand side of the dense master-equation oracle
    (dynamics.integrate_master) that checks tls_fidelity."""
    def hamiltonian(t):
        delta, omega = proto.controls(np.atleast_1d(t))
        return 0.5 * delta[0] * algebra.PAULI_Z + 0.5 * omega[0] * algebra.PAULI_X

    return hamiltonian


def tls_invariant(proto, scale):
    """t -> the invariant matrix of a two-level protocol at a single time,
    scale times the unit invariant of its angles: the path that the direct
    measures (measures.measure_O, measure_A) take to check the closed forms.
    The scale enters no control, so any positive value serves."""
    def invariant(t):
        return algebra.su2_invariant_matrix(float(proto.g_poly(t)), float(proto.b_poly(t)), scale)

    return invariant


def ermakov_residual(proto, t):
    """rhoddot + omega^2 rho - omega0^2 / rho^3 of a trap protocol, zero for
    a consistent trap control."""
    rho, _, r2 = proto._rho_derivs(t, 2)
    return r2 + proto.omega_sq(t) * rho - proto.omega0**2 / rho**3


def fock_moments(traj):
    """Lab-frame (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) at each sample of a
    dynamics.HoFockTrajectory, from its interaction-picture states and the
    protocol's Heisenberg quadratures."""
    proto = traj.protocol
    q, p, _ = fock_operators(traj.dim, proto.mass, proto.omega0)
    fq, fp, gq, gp = proto.heisenberg_coeffs(traj.times)
    out = np.empty((len(traj.times), 5))
    for i, rho in enumerate(traj.rhos):
        qh = fq[i] * q + fp[i] * p
        ph = gq[i] * q + gp[i] * p
        out[i, 0] = np.trace(rho @ qh).real
        out[i, 1] = np.trace(rho @ ph).real
        out[i, 2] = np.trace(rho @ (qh @ qh)).real
        out[i, 3] = np.trace(rho @ (ph @ ph)).real
        out[i, 4] = 0.5 * np.trace(rho @ (qh @ ph + ph @ qh)).real
    return out


def dissipative_matrix_elements(rho_basis, eigenvectors, x, eta):
    """<phi_l| L rho |phi_k> for L rho = -eta [X, [X, rho]], given rho_lk =
    <phi_l|rho|phi_k> in the basis of the eigenvectors: with
    dissipator_superoperator, the two routes of the common-eigenbasis rate
    check."""
    phi = np.asarray(eigenvectors, dtype=complex)
    rho_basis = np.asarray(rho_basis, dtype=complex)
    x = np.asarray(x, dtype=complex)
    xb = phi.conj().T @ x @ phi
    x2b = phi.conj().T @ (x @ x) @ phi
    return -eta * (x2b @ rho_basis + rho_basis @ x2b - 2.0 * xb @ rho_basis @ xb)


def dissipator_superoperator(x, eta):
    """Matrix of L rho = -eta [X, [X, rho]] acting on vec(rho) (column
    stacking)."""
    x = np.asarray(x, dtype=complex)
    eye = np.eye(x.shape[0])
    x2 = x @ x
    return -eta * (np.kron(eye, x2) + np.kron(x2.T, eye) - 2.0 * np.kron(x.T, x))


def thermal_fock_state(n_bar, dim):
    """Thermal oscillator state with mean occupation n_bar on dim Fock
    levels, not renormalised (as dynamics.integrate_ho_master's start rule
    needs)."""
    ratio = n_bar / (n_bar + 1.0)
    pops = ratio ** np.arange(dim) / (n_bar + 1.0)  # 0.0**0 == 1.0: exact vacuum at n_bar 0
    return np.diag(pops).astype(complex)
