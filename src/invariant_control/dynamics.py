"""Master-equation integrators and the fidelity routine of each system.

The noise model is a sum of double-commutator (unital) dissipators,

    drho/dt = -i [H(t), rho] - sum_k eta_k [X_k, [X_k, rho]],

integrated with an adaptive embedded Runge-Kutta 4(5) stepper on dense
matrices (integrate_master) or, for oscillator runs, in a truncated Fock
basis (in the interaction picture of the exactly solvable noiseless flow)
or through the closed Gaussian-moment equations. The Pauli channels of a
two-level run are unital, so its Bloch vector obeys a linear 3x3 ODE:
tls_fidelity propagates it with fourth-order Magnus steps on a uniform grid
whose error-carrying steps it splits until the fidelity settles, and
integrate_master is its test oracle. The invariant's closed-form Heisenberg
flow also gives the oscillator moments without an ODE: under q noise
exact_q_moments adds the noise by one quadrature, and under q^2 noise
magnus_q2_moments propagates the invariant-frame second moments with the
same Magnus steps. integrate_moments stays the route of controls without
such a flow and the test oracle of both. tls_fidelity, coherent_fidelity and
thermal_fidelity are the one fidelity routine of each simulated system; the
dissipator in the invariant eigenbasis backs the common-eigenbasis check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45, solve_ivp

from . import algebra, measures, states
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
    "magnus_q2_moments",
    "tls_fidelity",
    "coherent_fidelity",
    "thermal_fidelity",
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

    def matrix(self) -> np.ndarray:
        """The Pauli matrix of a two-level channel."""
        if self.operator_tag not in PAULI_TAGS:
            raise UnsupportedChannel("only Pauli channels have a fixed matrix")
        return algebra.PAULI_Z if self.operator_tag == "sigma_z" else algebra.PAULI_X


def _double_commutator(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    xr = x @ rho
    return x @ xr + rho @ (x @ x) - 2.0 * xr @ x


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, channels) -> np.ndarray:
    """Right-hand side -i[H, rho] - sum_k eta_k [X_k, [X_k, rho]] of the
    dense oracle integrate_master, for channels as (X_k, eta_k) pairs."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if rho.shape != h.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch("rho and H must be square matrices of equal size")
    out = -1j * (h @ rho - rho @ h)
    for x, eta in channels:
        if np.shape(x) != rho.shape:
            raise DimensionMismatch("channel operator has the wrong dimension")
        if eta != 0.0:
            out -= eta * _double_commutator(x, rho)
    return out


def _rk45_matrix(rhs, rho0, t_eval, rtol, atol, max_step=np.inf):
    """Adaptive RK45 over a matrix-valued ODE with per-step hermitization:
    the integrator of both oracles, dense (integrate_master) and truncated
    Fock (integrate_ho_master)."""
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
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    max_step: float = np.inf,
):
    """Integrate the dense master equation from 0 to t_eval[-1].

    The test oracle of tls_fidelity (two-level route against RK45) and of
    the Gaussian moments (static-trap Fock check). hamiltonian is a callable
    t -> matrix; channels is a sequence of NoiseChannel (Pauli tags) or
    (matrix, eta) pairs. Returns (times, rhos). max_step caps the adaptive
    step so narrow control pulses surrounded by long H = 0 stretches cannot
    be stepped over.
    """
    rho0 = np.asarray(rho0, dtype=complex)
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

    def moments(self):
        """Lab-frame (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) at each sample."""
        q, p, _ = fock_operators(self.dim, self.protocol.mass, self.protocol.omega0)
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
    rtol: float = 1e-9,
    atol: float = 1e-12,
    max_dim: int = 512,
) -> HoFockTrajectory:
    """Integrate an oscillator run in the truncated Fock basis.

    The Fock oracle of the Gaussian routes (acceptance check of Fock against
    moments). rho0_builder(d) must return the initial density matrix at
    truncation d (in the omega0 representation). Unless dim fixes it, the
    truncation starts at 40 levels and doubles until the top two levels stay
    below 1e-8 population, warning with TruncationWarning if max_dim is
    reached first.
    """
    if channel.operator_tag not in OSC_TAGS:
        raise UnsupportedChannel("oscillator integrator needs a q or q^2 channel")
    if t_eval is None:
        t_eval = np.linspace(0.0, protocol.t_f, 201)
    t_eval = np.asarray(t_eval, dtype=float)

    d = dim if dim is not None else 40
    while True:
        rhos = _integrate_ho_fixed_dim(
            protocol, rho0_builder, channel, t_eval, d, rtol, atol
        )
        top = max(
            float(np.real(r[-1, -1] + r[-2, -2])) for r in (rhos[0], rhos[-1])
        )
        top = max(top, float(np.max(np.real(rhos[:, -1, -1] + rhos[:, -2, -2]))))
        if top < 1e-8:
            return HoFockTrajectory(protocol, t_eval, rhos, d)
        if dim is not None or 2 * d > max_dim:
            warnings.warn(
                f"population {top:.2e} on the top two of {d} Fock levels",
                TruncationWarning,
            )
            return HoFockTrajectory(protocol, t_eval, rhos, d)
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


#: intervals of the q^2 propagator's uniform output grid; its Magnus step
#: count is a multiple of this, so every output sample is a step boundary
_Q2_INTERVALS = 400
#: bound on the estimated error of the sampled invariant-frame moments,
#: relative to their largest entry; the default rtol of the moment ODE it
#: replaces. fig4 cells stop at 800 steps (1600 at t_f = 20 us), within
#: 2.4e-11 of F and 4.4e-9 of the mean power of DOP853 at rtol 1e-13
_Q2_TOL = 1e-8
#: the step count stops doubling here (the step arrays then take ~15 MB each)
_Q2_MAX_STEPS = _Q2_INTERVALS * 2**8
#: bound on the estimated error of a two-level fidelity: the Bloch-frame grid
#: starts with _TLS_MIN_STEPS uniform steps, and while its one-step and
#: two-half-step runs differ by more than 15 times it, every step whose own
#: difference exceeds _TLS_SPLIT times the largest is split. It raises
#: StepSizeUnderflow rather than grow past _TLS_MAX_STEPS half steps (one
#: batch of step generators then takes up to ~14 MB)
_TLS_TOL = 1e-9
_TLS_MIN_STEPS = 512
_TLS_MAX_STEPS = 2**16
_TLS_SPLIT = 1e-3
#: Gauss-Legendre nodes of one step sit at h (1/2 -+ _GL)
_GL = np.sqrt(3.0) / 6.0
#: step exponentials: Taylor degree, and the norm the scaling brings them to
_TAYLOR_DEGREE = 12
_TAYLOR_NORM = 0.5


def _expm3(x: np.ndarray) -> np.ndarray:
    """exp of a batch of 3x3 matrices: Taylor series with scaling and squaring."""
    norm = float(np.abs(x).sum(axis=-1).max())
    squarings = int(np.ceil(np.log2(norm / _TAYLOR_NORM))) if norm > _TAYLOR_NORM else 0
    x = x / 2.0**squarings
    eye = np.eye(3)
    out = eye + x / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def _q2_invariant_path(protocol: HoProtocol, kappa: float, s0, n: int) -> np.ndarray:
    """Scaled invariant-frame moments on the output grid after n Magnus-4 steps.

    s = (S_I00, S_I01, S_I11) with p in units of m omega0 obeys
    ds/dt = kappa u w^T s, u = (fp^2, -fp fq, fq^2), w = (fq^2, 2 fq fp, fp^2).
    Each step takes Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1] on its
    two Gauss-Legendre nodes; the samples are running products of the steps.
    """
    h = protocol.t_f / n
    left = np.arange(n) * h
    fq, fp, _, _ = protocol.heisenberg_coeffs(
        np.concatenate([left + (0.5 - _GL) * h, left + (0.5 + _GL) * h]))
    fp = fp * (protocol.mass * protocol.omega0)
    u = np.stack([fp * fp, -fp * fq, fq * fq], axis=-1)
    w = np.stack([fq * fq, 2.0 * fq * fp, fp * fp], axis=-1)
    a = kappa * u[:, :, None] * w[:, None, :]
    a1, a2 = a[:n], a[n:]
    steps = _expm3(0.5 * h * (a1 + a2) + (np.sqrt(3.0) / 12.0 * h * h) * (a2 @ a1 - a1 @ a2))
    # product over each output interval, then running products over intervals
    k = n // _Q2_INTERVALS
    prod = steps[::k]
    for j in range(1, k):
        prod = steps[j::k] @ prod
    d = 1
    while d < len(prod):
        prod[d:] = prod[d:] @ prod[:-d]
        d *= 2
    return np.vstack([s0, prod @ s0])


def magnus_q2_moments(protocol: HoProtocol, y0, channel: NoiseChannel):
    """Moments (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) under q^2 noise, sampled on
    401 uniform points of [0, t_f]; returns (times, 5-column array).

    With M(t) the invariant's Heisenberg flow (HoProtocol.heisenberg_coeffs)
    the raw second moments are S = M S_I M^T, and q^2 noise drives S_I by the
    rank-one linear generator 8 eta <q^2> c c^T, c = (-fp, fq). It is
    propagated by fourth-order Magnus steps; the step count starts at 400 and
    doubles until n and 2n steps agree to _Q2_TOL. The means stay M m0.
    """
    if channel.operator_tag != "q_squared":
        raise UnsupportedChannel("the invariant-frame propagator covers q^2 noise only")
    mq, mp, qq, pp, qp = np.asarray(y0, dtype=float)
    scale = protocol.mass * protocol.omega0
    s = np.array([qq, qp / scale, pp / scale**2])
    if channel.eta:
        kappa = 8.0 * channel.eta / scale**2
        n = _Q2_INTERVALS
        coarse = _q2_invariant_path(protocol, kappa, s, n)
        while True:
            n *= 2
            fine = _q2_invariant_path(protocol, kappa, s, n)
            # Magnus-4: the error of the finer run is about (fine - coarse)/15
            if np.abs(fine - coarse).max() <= 15.0 * _Q2_TOL * np.abs(fine).max():
                break
            if n >= _Q2_MAX_STEPS or not np.isfinite(fine).all():
                raise StepSizeUnderflow(
                    f"q^2 propagator not converged at {n} Magnus steps "
                    f"(largest moment {np.abs(fine).max():.3g})")
            coarse = fine
        s = fine
    a, b, c = np.atleast_2d(s).T * np.array([[1.0], [scale], [scale**2]])
    ts = np.linspace(0.0, protocol.t_f, _Q2_INTERVALS + 1)
    fq, fp, gq, gp = protocol.heisenberg_coeffs(ts)
    ys = np.column_stack([
        fq * mq + fp * mp,
        gq * mq + gp * mp,
        fq * fq * a + 2.0 * fq * fp * b + fp * fp * c,
        gq * gq * a + 2.0 * gq * gp * b + gp * gp * c,
        fq * gq * a + (fq * gp + fp * gq) * b + fp * gp * c,
    ])
    return ts, ys


# ---------------------------------------------------------------------------
# fidelity of the paper's two systems: one routine each


def _bloch_steps(protocol, damping: np.ndarray, left: np.ndarray, h: np.ndarray):
    """Magnus-4 propagators of dr/dt = A(t) r over the steps [left, left + h):
    (one step each, product of its two half steps each).

    r = (<sigma_x>, <sigma_y>, <sigma_z>) and A is the rotation about
    (Omega, 0, Delta) plus diag(damping). A step of width w takes
    Omega_4 = w/2 (A1 + A2) + sqrt(3) w^2/12 [A2, A1] on its two
    Gauss-Legendre nodes; protocol.controls runs once on all of them.
    """
    n = len(h)
    start = np.concatenate([left, left, left + 0.5 * h])
    width = np.concatenate([h, 0.5 * h, 0.5 * h])
    delta, omega = protocol.controls(
        np.concatenate([start + (0.5 - _GL) * width, start + (0.5 + _GL) * width]))
    a = np.zeros((6 * n, 3, 3))
    a[:, 0, 1], a[:, 1, 0] = -delta, delta
    a[:, 1, 2], a[:, 2, 1] = -omega, omega
    a[:, (0, 1, 2), (0, 1, 2)] = damping
    a1, a2 = a[:3 * n], a[3 * n:]
    w = width[:, None, None]
    u = _expm3(0.5 * w * (a1 + a2) + (np.sqrt(3.0) / 12.0) * w * w * (a2 @ a1 - a1 @ a2))
    return u[:n], u[2 * n:] @ u[n:2 * n]


def _final_z(steps: np.ndarray) -> float:
    """<sigma_z>(t_f) from r = e_z through time-ordered step propagators,
    reduced by pairwise products."""
    while len(steps) > 1:
        even = len(steps) - len(steps) % 2
        steps = np.concatenate([steps[1:even:2] @ steps[:even:2], steps[even:]])
    return float(steps[0, 2, 2])


def tls_fidelity(protocol, channels=()) -> float:
    """Final |1><1| population of a two-level inversion run.

    Starts from the first basis state, r = (0, 0, 1), under
    H = Delta/2 sigma_z + Omega/2 sigma_x from protocol.controls; a perfect
    inversion ends at F = (1 - r_z)/2 = 1. sigma_z and sigma_x channels damp
    the Bloch vector by diag(-4 eta_z, -4 (eta_z + eta_x), -4 eta_x), and any
    other channel raises UnsupportedChannel. The Bloch ODE is propagated by
    Magnus-4 steps (_bloch_steps) on _TLS_MIN_STEPS uniform steps, each also
    taken as two half steps. Until the two runs agree to 15 _TLS_TOL in F,
    the steps that carry the error are split: the steep control windows get
    fine steps and the rest of the run keeps its coarse ones, so a cell
    costs about the same whatever its steepness.
    """
    eta = dict.fromkeys(PAULI_TAGS, 0.0)
    for ch in channels:
        if ch.operator_tag not in PAULI_TAGS:
            raise UnsupportedChannel("the Bloch-frame propagator covers Pauli channels only")
        eta[ch.operator_tag] += ch.eta
    eta_z, eta_x = eta["sigma_z"], eta["sigma_x"]
    damping = -4.0 * np.array([eta_z, eta_z + eta_x, eta_x])
    h = np.full(_TLS_MIN_STEPS, protocol.t_f / _TLS_MIN_STEPS)
    left = np.arange(_TLS_MIN_STEPS) * h
    one, two = _bloch_steps(protocol, damping, left, h)
    while True:
        coarse = 0.5 * (1.0 - _final_z(one))
        fine = 0.5 * (1.0 - _final_z(two))
        # Magnus-4: the error of the half-step run is about (fine - coarse)/15
        gap = abs(fine - coarse)
        if gap <= 15.0 * _TLS_TOL:
            return fine
        # each flagged step is split into 2^k, k the doublings of every step
        # that an error falling as h^4 would need
        diff = np.abs(two - one).max(axis=(1, 2))
        flagged = diff > _TLS_SPLIT * diff.max()
        k = np.ceil(np.log2(gap / (15.0 * _TLS_TOL)) / 4.0)
        if not np.isfinite(gap) or 2 * (len(h) + flagged.sum() * (2**k - 1)) > _TLS_MAX_STEPS:
            raise StepSizeUnderflow(
                f"two-level propagator not converged on {2 * len(h)} Magnus half steps "
                f"(F = {fine:.6g}, change {gap:.3g})")
        parts = np.where(flagged, 2 ** int(k), 1)
        idx = np.repeat(np.arange(len(h)), parts)
        h = h[idx] / parts[idx]
        left = left[idx] + (np.arange(len(idx)) - (np.cumsum(parts) - parts)[idx]) * h
        split = parts[idx] > 1
        one, two = one[idx], two[idx]
        one[split], two[split] = _bloch_steps(protocol, damping, left[split], h[split])


def coherent_fidelity(protocol: HoProtocol, alpha: complex, channel: NoiseChannel) -> float:
    """Gaussian fidelity of a coherent-state trap expansion under q noise
    with its target, through the exact invariant-frame route."""
    mass = protocol.mass
    init = states.coherent_state(alpha, protocol.omega0, mass, "gaussian").raw()
    final = exact_q_moments(protocol, init, channel)
    target = states.target_coherent(
        alpha, protocol.g_phase, protocol.omega0, protocol.omega_f, mass
    )
    return states.gaussian_fidelity(
        states.GaussianMoments.from_raw(*final), target.gaussian()
    )


def thermal_fidelity(protocol, n_bar: float, mass: float, channel: NoiseChannel,
                     rtol: float = 1e-10) -> tuple[float, float]:
    """(fidelity, mean drive power) of a thermal-state trap expansion.

    protocol is any trap control with omega0, omega_f, t_f, omega_sq and
    omega_sq_dot. An HoProtocol (of the same mass) goes through the
    invariant-frame propagator magnus_q2_moments, which keeps its own error
    control, so rtol is not used; a ConstantMuControl has no Heisenberg flow
    and goes through integrate_moments at rtol. Either way the moments are
    sampled on 401 points so the power integral shares the fidelity's
    trajectory.
    """
    t_f = protocol.t_f
    init = states.thermal_state(n_bar, protocol.omega0, mass, "gaussian")
    if isinstance(protocol, HoProtocol):
        if mass != protocol.mass:
            raise ValueError("mass differs from the protocol's mass")
        ts, ys = magnus_q2_moments(protocol, init.raw(), channel)
    else:
        ts, ys = integrate_moments(
            protocol.omega_sq, init.raw(), channel, t_f, mass,
            t_eval=np.linspace(0.0, t_f, _Q2_INTERVALS + 1), rtol=rtol, atol=1e-14,
        )
    target = states.thermal_state(n_bar, protocol.omega_f, mass, "gaussian")
    fid = states.gaussian_fidelity(states.GaussianMoments.from_raw(*ys[-1]), target)
    power = measures.average_power(
        protocol.omega_sq_dot, ys[:, 2], mass, t_f, grid=len(ts)
    )
    return fid, power


# ---------------------------------------------------------------------------
# the dissipator in the invariant eigenbasis


def dissipative_matrix_elements(rho_basis: np.ndarray, eigenvectors: np.ndarray,
                                x: np.ndarray, eta: float) -> np.ndarray:
    """Dissipator matrix elements in the invariant eigenbasis.

    rho_basis holds rho_lk = <phi_l|rho|phi_k>; the result is
    <phi_l| L rho |phi_k> for L rho = -eta [X, [X, rho]]. With
    dissipator_superoperator, the two routes of the acceptance check of
    common-eigenbasis dissipation rates.
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
    """Matrix of L rho = -eta [X, [X, rho]] acting on vec(rho) (column
    stacking): the direct route of the common-eigenbasis rate check."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[0]
    eye = np.eye(d)
    x2 = x @ x
    return -eta * (
        np.kron(eye, x2) + np.kron(x2.T, eye) - 2.0 * np.kron(x.T, x)
    )
