"""Reference routes that only the test suite calls.

Each one checks a library route by another: the Hamiltonian and invariant of
a two-level protocol for the dense master equation and the direct measures,
its equator controls by the general SU(2) formula, the Ermakov residual of a
trap protocol, the lab-frame moments of a Fock trajectory, the dissipator in
an eigenbasis and as a superoperator, the Fock-basis thermal state, and the
generic Magnus-4 step that the q^2 route's closed form replaced. The package
never imports this module, and it loads numpy and the package only, no
scipy.
"""

import numpy as np

from invariant_control import algebra
from invariant_control.dynamics import _GL, _expm3, _mul, fock_operators

#: steps per block of the Omega_4 terms that take temporaries
ASSEMBLY_BLOCK = 256


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


def equator_controls(proto, t):
    """(Delta, Omega) of a two-level protocol whose B stays at pi/2, by the
    general formula algebra.su2_controls_from_angles with its cot(B) term
    dropped, and with it every 0/0 of that term (where G sits at a pole):
    the route TlsProtocol.controls took on the equator before it skipped the
    formula there."""
    b_dot = proto.b_poly(t, 1)
    _, omega, _ = algebra.su2_controls_from_angles(
        proto.g_poly(t), proto.g_poly(t, 1), proto.b_poly(t), b_dot)
    return -b_dot, omega


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


def magnus_steps(generator, left, width):
    """Magnus-4 propagators (3, 3, n) of dx/dt = A(t) x over [left, left + width),
    for any generator, by the Taylor exponential dynamics._expm3: the step the
    q^2 route took before its closed form (dynamics._rank_one_steps), and its
    oracle.

    generator(t) -> A(t), a (3, 3, len(t)) batch, runs once on the two
    Gauss-Legendre nodes of every step. Its output is released before the
    step exponentials are taken, so their buffers can reuse its memory.
    """
    return _expm3(magnus_exponents(generator(np.concatenate(
        [left + (0.5 - _GL) * width, left + (0.5 + _GL) * width])), width))


def magnus_exponents(a, width):
    """Omega_4 = w/2 (A1 + A2) + sqrt(3) w^2/12 [A2, A1] of each step of width
    w, from a = [A1 of every step, A2 of every step] (last axis), left as is.

    Omega_4 is built in one batch-sized buffer; the terms that need their
    own temporaries are added ASSEMBLY_BLOCK steps at a time.
    """
    a1, a2 = a[..., :len(width)], a[..., len(width):]
    omega = _mul(a2, a1)
    for s in range(0, len(width), ASSEMBLY_BLOCK):
        b1, b2, wb, o = (v[..., s:s + ASSEMBLY_BLOCK] for v in (a1, a2, width, omega))
        o -= _mul(b1, b2)
        o *= (np.sqrt(3.0) / 12.0) * wb * wb
        o += 0.5 * wb * (b1 + b2)
    return omega


def rank_one_by_magnus_steps(generator, left, width):
    """dynamics._rank_one_steps by the generic route: the (u, w) pairs of
    generator become the (3, 3, n) batch u w^T, stepped by magnus_steps."""
    def outer(t):
        u, w = generator(t)
        return u[:, None] * w

    return magnus_steps(outer, left, width)
