"""Master-equation integrators and invariant-drift diagnostics.

The noise model is a sum of double-commutator (unital) dissipators,

    drho/dt = -i [H(t), rho] - sum_k eta_k [X_k, [X_k, rho]],

integrated with an adaptive embedded Runge-Kutta 4(5) stepper. Dense 2x2
states cover the two-level runs; oscillator runs use either a truncated
Fock basis (integrated in the interaction picture of the exactly solvable
noiseless flow) or the closed Gaussian-moment equations. Under q noise the
moments also have an exact route without an ODE: exact_q_moments propagates
them through the invariant's closed-form Heisenberg flow and adds the noise
by one quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45, solve_ivp

from .errors import (
    DimensionMismatch,
    StepSizeUnderflow,
    TruncationWarning,
    UnsupportedChannel,
)
from .protocols import HoProtocol

__all__ = [
    "NoiseChannel",
    "lindblad_rhs",
    "integrate_master",
    "integrate_ho_master",
    "fock_operators",
    "gaussian_moment_rhs",
    "integrate_moments",
    "exact_q_moments",
    "lambda_dot",
    "dissipative_matrix_elements",
    "dissipator_superoperator",
    "HoFockTrajectory",
]

PAULI_TAGS = ("sigma_z", "sigma_x")
OSC_TAGS = ("q", "q_squared")


@dataclass(frozen=True)
class NoiseChannel:
    """One dissipator term: Hermitian coupling X (tagged) with strength eta.

    Strength units follow the operator: 1/s for Pauli channels, Hz/A^2 for
    q and Hz/A^4 for q^2.
    """

    operator_tag: str
    eta: float

    def __post_init__(self):
        if self.operator_tag not in PAULI_TAGS + OSC_TAGS:
            raise UnsupportedChannel(f"unknown operator tag {self.operator_tag!r}")
        if self.eta < 0:
            raise ValueError("noise strength must be nonnegative")

    def matrix(self, q=None, p=None) -> np.ndarray:
        from . import algebra

        if self.operator_tag == "sigma_z":
            return algebra.PAULI_Z
        if self.operator_tag == "sigma_x":
            return algebra.PAULI_X
        if q is None:
            raise UnsupportedChannel(
                "oscillator channels need an explicit position operator"
            )
        return q if self.operator_tag == "q" else q @ q


def _double_commutator(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    xr = x @ rho
    return x @ xr + rho @ (x @ x) - 2.0 * xr @ x


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, channels) -> np.ndarray:
    """Right-hand side -i[H, rho] - sum_k eta_k [X_k, [X_k, rho]]."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if rho.shape != h.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch("rho and H must be square matrices of equal size")
    out = -1j * (h @ rho - rho @ h)
    for ch in channels:
        x, eta = (ch if isinstance(ch, tuple) else (ch.matrix(), ch.eta))
        x = np.asarray(x, dtype=complex)
        if x.shape != rho.shape:
            raise DimensionMismatch("channel operator has the wrong dimension")
        if eta != 0.0:
            out -= eta * _double_commutator(x, rho)
    return out


def _rk45_matrix(rhs, rho0, t_eval, rtol, atol, max_step=np.inf):
    """Adaptive RK45 over a matrix-valued ODE with per-step hermitization."""
    t_eval = np.asarray(t_eval, dtype=float)
    n = rho0.shape[0]
    y0 = np.asarray(rho0, dtype=complex).ravel()

    def f(t, y):
        return rhs(t, y.reshape(n, n)).ravel()

    out = np.empty((len(t_eval), n, n), dtype=complex)
    idx = 0
    if t_eval[0] == 0.0:
        out[0] = rho0
        idx = 1
    if t_eval[-1] == 0.0:
        return out

    solver = RK45(f, 0.0, y0, t_eval[-1], rtol=rtol, atol=atol, max_step=max_step)
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(msg or "adaptive step failed")
        dense = solver.dense_output()
        while idx < len(t_eval) and t_eval[idx] <= solver.t:
            r = dense(t_eval[idx]).reshape(n, n)
            out[idx] = 0.5 * (r + r.conj().T)
            idx += 1
        y = solver.y.reshape(n, n)
        solver.y = (0.5 * (y + y.conj().T)).ravel()
    while idx < len(t_eval):
        # end of span reached within roundoff of the last sample
        r = solver.y.reshape(n, n)
        out[idx] = 0.5 * (r + r.conj().T)
        idx += 1
    return out


def integrate_master(
    rho0: np.ndarray,
    hamiltonian,
    channels,
    t_f: float,
    t_eval=None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    max_step: float = np.inf,
):
    """Integrate the dense master equation on [0, t_f].

    hamiltonian is a callable t -> matrix; channels is a sequence of
    NoiseChannel (Pauli tags) or (matrix, eta) pairs. Returns (times, rhos).
    max_step caps the adaptive step so narrow control pulses surrounded by
    long H = 0 stretches cannot be stepped over.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if t_eval is None:
        t_eval = np.linspace(0.0, t_f, 201)
    resolved = []
    for ch in channels:
        x, eta = (ch if isinstance(ch, tuple) else (ch.matrix(), ch.eta))
        resolved.append((np.asarray(x, dtype=complex), float(eta)))

    def rhs(t, rho):
        return lindblad_rhs(rho, hamiltonian(t), resolved)

    rhos = _rk45_matrix(rhs, rho0, t_eval, rtol, atol, max_step)
    return np.asarray(t_eval, dtype=float), rhos


def fock_operators(d: int, mass: float, omega_ref: float):
    """Truncated position, momentum and number operators at reference
    frequency omega_ref (q in angstrom, p in 1/angstrom with hbar = 1)."""
    if d < 2:
        raise ValueError("need at least two Fock levels")
    sq = np.sqrt(np.arange(1, d))
    a = np.diag(sq, 1).astype(complex)
    ad = a.conj().T
    q = np.sqrt(1.0 / (2.0 * mass * omega_ref)) * (a + ad)
    p = 1j * np.sqrt(mass * omega_ref / 2.0) * (ad - a)
    n = np.diag(np.arange(d)).astype(complex)
    return q, p, n


@dataclass(frozen=True)
class HoFockTrajectory:
    """Interaction-picture Fock trajectory of a trap-expansion run.

    rhos[i] is the density matrix in the frame co-moving with the noiseless
    dynamics, so for eta = 0 it never moves. Lab-frame moments are obtained
    by pairing it with the Heisenberg quadratures of the protocol.
    """

    protocol: HoProtocol
    times: np.ndarray
    rhos: np.ndarray
    dim: int
    converged: bool

    def moments(self, mass: float | None = None):
        """Lab-frame (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) at each sample."""
        m = self.protocol.mass if mass is None else mass
        q, p, _ = fock_operators(self.dim, m, self.protocol.omega0)
        fq, fp, gq, gp = self.protocol.heisenberg_coeffs(self.times)
        out = np.empty((len(self.times), 5))
        for i, rho in enumerate(self.rhos):
            qh = fq[i] * q + fp[i] * p
            ph = gq[i] * q + gp[i] * p
            out[i, 0] = np.trace(rho @ qh).real
            out[i, 1] = np.trace(rho @ ph).real
            out[i, 2] = np.trace(rho @ (qh @ qh)).real
            out[i, 3] = np.trace(rho @ (ph @ ph)).real
            out[i, 4] = 0.5 * np.trace(rho @ (qh @ ph + ph @ qh)).real
        return out

    @property
    def final_rho(self) -> np.ndarray:
        return self.rhos[-1]


def _integrate_ho_fixed_dim(protocol, rho0_builder, channel, t_eval, d, rtol, atol):
    q, p, _ = fock_operators(d, protocol.mass, protocol.omega0)
    rho0 = rho0_builder(d)
    eta = channel.eta
    fq_all, fp_all, _, _ = protocol.heisenberg_coeffs(t_eval)  # warm caches
    del fq_all, fp_all
    squared = channel.operator_tag == "q_squared"

    def rhs(t, rho):
        if eta == 0.0:
            return np.zeros_like(rho)
        fq, fp, _, _ = protocol.heisenberg_coeffs(t)
        x = fq * q + fp * p
        if squared:
            x = x @ x
        return -eta * _double_commutator(x, rho)

    rhos = _rk45_matrix(rhs, rho0, t_eval, rtol, atol)
    return rhos


def integrate_ho_master(
    protocol: HoProtocol,
    rho0_builder,
    channel: NoiseChannel,
    t_eval=None,
    dim: int | None = None,
    excitation_scale: float = 0.0,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    max_dim: int = 512,
) -> HoFockTrajectory:
    """Integrate an oscillator run in the truncated Fock basis.

    rho0_builder(d) must return the initial density matrix at truncation d
    (in the omega0 representation). The truncation starts at
    d0 = max(40, 8 * (excitation_scale + 1)) and doubles until the top two
    levels stay below 1e-8 population, warning with TruncationWarning if the
    cap is reached first.
    """
    if channel.operator_tag not in OSC_TAGS:
        raise UnsupportedChannel("oscillator integrator needs a q or q^2 channel")
    if t_eval is None:
        t_eval = np.linspace(0.0, protocol.t_f, 201)
    t_eval = np.asarray(t_eval, dtype=float)

    d = dim if dim is not None else int(max(40, np.ceil(8 * (excitation_scale + 1))))
    while True:
        rhos = _integrate_ho_fixed_dim(
            protocol, rho0_builder, channel, t_eval, d, rtol, atol
        )
        top = max(
            float(np.real(r[-1, -1] + r[-2, -2])) for r in (rhos[0], rhos[-1])
        )
        top = max(top, float(np.max(np.real(rhos[:, -1, -1] + rhos[:, -2, -2]))))
        if top < 1e-8:
            return HoFockTrajectory(protocol, t_eval, rhos, d, True)
        if dim is not None or 2 * d > max_dim:
            warnings.warn(
                f"population {top:.2e} on the top two of {d} Fock levels",
                TruncationWarning,
            )
            return HoFockTrajectory(protocol, t_eval, rhos, d, False)
        d *= 2


# ---------------------------------------------------------------------------
# Gaussian moments


def gaussian_moment_rhs(y, omega_sq: float, mass: float, channel: NoiseChannel):
    """Time derivative of (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2).

    The double-commutator algebra closes on these moments for both X = q
    and X = q^2; only <p^2> acquires a noise term.
    """
    if channel.operator_tag not in OSC_TAGS:
        raise UnsupportedChannel("moment equations exist only for q, q^2 channels")
    mq, mp, qq, pp, qp = y
    dy = np.empty(5)
    dy[0] = mp / mass
    dy[1] = -mass * omega_sq * mq
    dy[2] = 2.0 * qp / mass
    dy[3] = -2.0 * mass * omega_sq * qp
    dy[4] = pp / mass - mass * omega_sq * qq
    if channel.eta:
        if channel.operator_tag == "q":
            dy[3] += 2.0 * channel.eta
        else:
            dy[3] += 8.0 * channel.eta * qq
    return dy


def integrate_moments(
    omega_sq_func,
    y0,
    channel: NoiseChannel,
    t_f: float,
    mass: float,
    t_eval=None,
    rtol: float = 1e-10,
    atol: float = 1e-14,
):
    """Integrate the closed moment equations; returns (times, 5-column array)."""
    if t_eval is None:
        t_eval = np.linspace(0.0, t_f, 201)
    sol = solve_ivp(
        lambda t, y: gaussian_moment_rhs(y, float(omega_sq_func(t)), mass, channel),
        (0.0, t_f),
        np.asarray(y0, dtype=float),
        t_eval=np.asarray(t_eval, dtype=float),
        rtol=rtol,
        atol=atol,
        method="DOP853",
    )
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    return sol.t, sol.y.T


#: Simpson samples per period of cos(2 theta) in the q-noise quadrature, and
#: the fewest intervals it uses however short the run
_SAMPLES_PER_PERIOD = 16
_MIN_INTERVALS = 64
#: samples evaluated at once; bounds the quadrature's working set (~1 MB)
_BLOCK = 4096


def _q_noise_gram(protocol: HoProtocol) -> np.ndarray:
    """int_0^tf c c^T ds with c = (-fp, fq) = M^-1 e_p, by composite Simpson.

    The grid is uniform in t with _SAMPLES_PER_PERIOD samples per period of
    cos(2 theta) on average, and is swept in blocks of _BLOCK samples.
    """
    t_f = protocol.t_f
    periods = float(protocol.theta(t_f)) / np.pi
    half = int(np.ceil(0.5 * _SAMPLES_PER_PERIOD * periods))
    n = 2 * max(_MIN_INTERVALS // 2, half)  # Simpson needs an even count
    h = t_f / n
    pp = pq = qq = 0.0
    for start in range(0, n + 1, _BLOCK):
        i = np.arange(start, min(start + _BLOCK, n + 1))
        w = np.where(i % 2 == 1, 4.0, 2.0)
        w[(i == 0) | (i == n)] = 1.0
        fq, fp, _, _ = protocol.heisenberg_coeffs(i * h)
        wfp = w * fp
        pp += wfp @ fp
        pq += wfp @ fq
        qq += (w * fq) @ fq
    return (h / 3.0) * np.array([[pp, -pq], [-pq, qq]])


def exact_q_moments(protocol: HoProtocol, y0, channel: NoiseChannel) -> np.ndarray:
    """Moments (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) at t_f under q noise, no ODE.

    With M(t) = [[fq, fp], [gq, gp]] the noiseless Heisenberg flow of the
    invariant (HoProtocol.heisenberg_coeffs), the means are M(t_f) m0. q noise
    only adds the constant 2 eta to d<p^2>/dt, so by variation of constants
    the raw second moments are S(t_f) = M [S0 + 2 eta int c c^T ds] M^T with
    c = M^-1 e_p = (-fp, fq). q^2 noise couples to <q^2> and has no such
    closed form; integrate it with integrate_moments.
    """
    if channel.operator_tag != "q":
        raise UnsupportedChannel("the exact invariant-frame route covers q noise only")
    mq, mp, qq, pp, qp = np.asarray(y0, dtype=float)
    s = np.array([[qq, qp], [qp, pp]])
    if channel.eta:
        s += 2.0 * channel.eta * _q_noise_gram(protocol)
    flow = np.reshape(protocol.heisenberg_coeffs(protocol.t_f), (2, 2))
    mean = flow @ (mq, mp)
    s = flow @ s @ flow.T
    return np.array([mean[0], mean[1], s[0, 0], s[1, 1], s[0, 1]])


# ---------------------------------------------------------------------------
# invariant-drift diagnostics


def lambda_dot(eigenvalues, eigenvectors, x: np.ndarray, eta: float):
    """Eigenvalue drift of the invariant under one double-commutator channel.

    lambdadot_l = 2 eta (lambda_l <l|X^2|l> - sum_k lambda_k |<k|X|l>|^2).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    phi = np.asarray(eigenvectors, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if phi.shape[0] != x.shape[0]:
        raise DimensionMismatch("eigenvector and operator dimensions differ")
    x_phi = phi.conj().T @ x @ phi  # <k|X|l> as matrix [k, l]
    x2_diag = np.real(np.diag(phi.conj().T @ (x @ x) @ phi))
    cross = np.abs(x_phi) ** 2  # |<k|X|l>|^2
    return 2.0 * eta * (lam * x2_diag - cross.T @ lam)


def dissipative_matrix_elements(rho_basis: np.ndarray, eigenvectors: np.ndarray,
                                x: np.ndarray, eta: float) -> np.ndarray:
    """Dissipator matrix elements in the invariant eigenbasis.

    rho_basis holds rho_lk = <phi_l|rho|phi_k>; the result is
    <phi_l| L rho |phi_k> for L rho = -eta [X, [X, rho]].
    """
    phi = np.asarray(eigenvectors, dtype=complex)
    rho_basis = np.asarray(rho_basis, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if phi.shape != x.shape or rho_basis.shape != x.shape:
        raise DimensionMismatch("all operators must share one basis dimension")
    xb = phi.conj().T @ x @ phi
    x2b = phi.conj().T @ (x @ x) @ phi
    return -eta * (x2b @ rho_basis + rho_basis @ x2b - 2.0 * xb @ rho_basis @ xb)


def dissipator_superoperator(x: np.ndarray, eta: float) -> np.ndarray:
    """Matrix of L rho = -eta [X, [X, rho]] acting on vec(rho) (column stacking)."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[0]
    eye = np.eye(d)
    x2 = x @ x
    return -eta * (
        np.kron(eye, x2) + np.kron(x2.T, eye) - 2.0 * np.kron(x.T, x)
    )
