"""Master-equation integrators and the fidelity routine of each system.

The noise model is a sum of double-commutator (unital) dissipators,

    drho/dt = -i [H(t), rho] - sum_k eta_k [X_k, [X_k, rho]],

integrated by RK45 (_rk45_matrix) on dense matrices (integrate_master) or,
for oscillator runs, in a truncated Fock basis (integrate_ho_master, in the
interaction picture of the exactly solvable noiseless flow, from the
smallest truncation, at most 40, that holds the initial state to 1e-12, each
run abandoned as soon as its top two levels hold 1e-8, for 40 levels from a
smaller start, else for twice as many, until they hold below 1e-8) or
through the closed Gaussian-moment equations. The Fock right-hand side takes
the double commutator of Hermitian rho in two matrix products (three for
q^2) and returns it exactly Hermitian, so the Fock samples stay so with no
projection; lindblad_rhs's five-product form is its oracle. The Pauli
channels of a two-level run are unital, so its Bloch vector obeys a linear
3x3 ODE dx/dt = A(t) x; in the frame of the invariant's closed-form
Heisenberg flow so do an oscillator's second moments under q^2 noise. One
error-controlled propagator (_magnus_path: Magnus steps of order p on a
uniform start grid, whose error-carrying steps it splits until the one-step
and half-step runs agree; the running products of both runs are one pairwise
scan over all steps, and a mask marks the steps that end a start step)
serves both: tls_fidelity, with integrate_master as its test oracle, by
sixth-order steps (_magnus6_steps) on 128 start steps, as its output is the
end of the run alone, and magnus_q2_moments by fourth-order steps
(_magnus_steps), as its output is sampled at the ends of its 400 start
steps, which it therefore cannot coarsen; there the higher order gains no
measurable time and would move every fig4 row. Under q noise
exact_q_moments adds the noise to the same flow by one Simpson quadrature;
both map to the lab frame by _lab_moments.
Every trap control (HoProtocol and the constant-mu reference
ConstantMuControl) has a closed-form flow, so integrate_moments, the
lab-frame moment ODE, is a test oracle only: the independent route that both
oscillator routes are checked against. Of the oracles only integrate_moments,
one scipy DOP853 call, imports scipy (on its first call, from the test
extra), so the package, invctl and the RK45 oracles load numpy only.
tls_fidelity, coherent_fidelity and thermal_fidelity are the one fidelity
routine of each simulated system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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
        if not 0.0 <= self.eta < np.inf:
            raise ValueError(f"noise strength must be nonnegative and finite, got {self.eta!r}")

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


#: Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 19 (1980)) as scipy's RK45 holds it (nodes,
#: stages, weights, error weights, interpolant), stepped under the starting step and step-size
#: control of Hairer, Norsett & Wanner (Solving ODEs I, II.4); samples come from interpolants
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array([[0, 0, 0, 0, 0], [1 / 5, 0, 0, 0, 0], [3 / 40, 9 / 40, 0, 0, 0],
                  [44 / 45, -56 / 15, 32 / 9, 0, 0],
                  [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
                  [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _rk45_matrix(rhs, rho0, t_eval, rtol, atol, max_step=np.inf, stop=None):
    """rho at t_eval of drho/dt = rhs(t, rho), rho(0) = rho0, by scipy's RK45 (its test
    oracle, matched bit for bit) in numpy: the integrator of the dense and the Fock oracle.
    Nothing is projected onto Hermitian matrices: the samples stay exactly Hermitian if
    rho0 and rhs are (the Fock route). If stop(rho0) >= 0, or stop(rho) >= 0 at the end of
    a step, the run ends there and returns None. t_eval must be finite, nondecreasing, >= 0."""
    t_eval = np.asarray(t_eval, dtype=float)
    if (t_eval.ndim != 1 or not t_eval.size or not np.isfinite(t_eval).all()
            or t_eval[0] < 0.0 or (np.diff(t_eval) < 0.0).any()):
        raise ValueError("t_eval must be a finite, nondecreasing grid of times >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    if stop is not None and stop(rho0) >= 0.0:
        return None
    n, t_f, root_size = rho0.shape[0], float(t_eval[-1]), rho0.size**0.5
    if t_f == 0.0:
        return np.repeat(rho0[None], len(t_eval), axis=0)

    def fun(t, y):
        return rhs(t, y.reshape(n, n)).ravel()

    y = rho0.ravel()
    f = fun(0.0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = np.linalg.norm(y / scale) / root_size, np.linalg.norm(f / scale) / root_size
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_f)
    d2 = np.linalg.norm((fun(h0, y + h0 * f) - f) / scale) / root_size / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_f, max_step)
    K, out = np.empty((7, y.size), dtype=complex), np.empty((len(t_eval), y.size), dtype=complex)
    t, i = 0.0, 0
    while t < t_f:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs, rejected = max_step if h_abs > max_step else max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow("Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_f)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = np.linalg.norm(np.dot(K.T, _DP_E) * h / scale) / root_size
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error**-0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error**-0.2), True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if stop is not None and stop(y.reshape(n, n)) >= 0.0:
            return None
        j = np.searchsorted(t_eval, t, side="right")
        if j > i:
            powers = np.cumprod(np.tile((t_eval[i:j] - t_old) / h, (4, 1)), axis=0)
            out[i:j], i = (h * np.dot(K.T.dot(_DP_P), powers) + y_old[:, None]).T, j
    return out.reshape(-1, n, n)


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
    be stepped over. Loads numpy only.
    """
    resolved = []
    for ch in channels:
        x, eta = (ch if isinstance(ch, tuple) else (ch.matrix(), ch.eta))
        resolved.append((np.asarray(x, dtype=complex), float(eta)))

    def rhs(t, rho):
        return lindblad_rhs(rho, hamiltonian(t), resolved)

    return np.asarray(t_eval, dtype=float), _rk45_matrix(rhs, rho0, t_eval, rtol, atol, max_step)


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
    dynamics, so for eta = 0 it never moves; it pairs with the protocol's
    Heisenberg quadratures (heisenberg_coeffs) to give lab-frame moments.
    """

    protocol: HoProtocol
    times: np.ndarray
    rhos: np.ndarray
    dim: int

    @property
    def final_rho(self) -> np.ndarray:
        return self.rhos[-1]


def _fock_rhs(protocol: HoProtocol, channel: NoiseChannel, q, p):
    """Right-hand side -eta [X, [X, rho]] of a Fock run, X = q_H or q_H^2,
    q_H = fq q + fp p. With x = sqrt(eta) X (folded into fq, fp) and
    Hermitian rho, c = x rho - (x rho)^H is [x, rho], and y + y^H with
    y = c x is -[x, [x, rho]], Hermitian to the last bit. The Hermitian
    parts are taken in place."""
    squared = channel.operator_tag == "q_squared"
    scale = channel.eta ** (0.25 if squared else 0.5)

    def rhs(t, rho):
        if scale == 0.0:
            return np.zeros_like(rho)
        fq, fp, _, _ = protocol.heisenberg_coeffs(t)
        x = (scale * fq) * q + (scale * fp) * p
        xx = x @ x if squared else x
        c = xx @ rho
        c -= c.conj().T
        y = c @ xx
        y += y.conj().T
        return y

    return rhs


#: largest truncation the Fock oracle doubles to
_FOCK_MAX_DIM = 512
#: largest truncation the Fock oracle starts at
_FOCK_START_MAX_DIM = 40
#: relative and absolute tolerances of the Fock oracle's RK45 steps
_FOCK_RTOL, _FOCK_ATOL = 1e-9, 1e-12


def _top_two(rho):
    """Population on the top two Fock levels of rho (of each, for a stack)."""
    return rho[..., -1, -1].real + rho[..., -2, -2].real


def _fock_start_dim(rho0_builder) -> int:
    """Smallest d at which rho0_builder(d) holds below 1e-12 population both
    on its top two levels and past its last one (1e-4 of the run's gate,
    headroom for noise heating), or _FOCK_START_MAX_DIM. A Fock builder such
    as states.coherent_state does not renormalise, so 1 - tr rho0 is the
    exact missing tail, which falls monotonically in d; the top-two
    population alone does not (a coherent state's rises up to its mean, and
    at d = 2 it is below 1e-12 for |alpha|^2 >= 32). d grows one level at a
    time, so no rho0 larger than the start is built."""
    for d in range(2, _FOCK_START_MAX_DIM):
        rho0 = rho0_builder(d)
        if _top_two(rho0) < 1e-12 and 1.0 - np.trace(rho0).real < 1e-12:
            return d
    return _FOCK_START_MAX_DIM


def _integrate_ho_fixed_dim(protocol, rho0_builder, channel, t_eval, d, stop=None):
    q, p, _ = fock_operators(d, protocol.mass, protocol.omega0)
    return _rk45_matrix(_fock_rhs(protocol, channel, q, p), rho0_builder(d), t_eval,
                        _FOCK_RTOL, _FOCK_ATOL, stop=stop)


def integrate_ho_master(
    protocol: HoProtocol,
    rho0_builder,
    channel: NoiseChannel,
    t_eval=None,
    dim: int | None = None,
) -> HoFockTrajectory:
    """Integrate an oscillator run in the truncated Fock basis.

    The Fock oracle of the Gaussian routes (acceptance check of Fock against
    moments). rho0_builder(d) must return the initial density matrix at
    truncation d (in the omega0 representation), exactly Hermitian as the
    states module builds it. The right-hand side (_fock_rhs) takes two d x d
    products for q noise and three for q^2 and is Hermitian to the last bit,
    so the RK45 samples, stepped at _FOCK_RTOL and _FOCK_ATOL, stay exactly
    Hermitian with no projection; its oracle is lindblad_rhs's five-product
    _double_commutator. Unless dim fixes it, the truncation starts at the
    smallest d, at most 40, whose rho0 holds below 1e-12 population on its
    top two levels and past its last one (_fock_start_dim). A run is
    abandoned as soon as its top two levels hold 1e-8 (at t = 0, or at the
    end of a step, which moves no step of a run it does not end), and the
    run goes on at 40 levels from a start below 40, else at twice the
    levels, until the top two levels stay below 1e-8 population at every
    sample. Only a run at a fixed dim, or one whose
    doubling would pass _FOCK_MAX_DIM, has no stop: it runs to t_f and
    warns with TruncationWarning if it fails the gate. Loads numpy only.
    """
    if channel.operator_tag not in OSC_TAGS:
        raise UnsupportedChannel("oscillator integrator needs a q or q^2 channel")
    if t_eval is None:
        t_eval = np.linspace(0.0, protocol.t_f, 201)
    t_eval = np.asarray(t_eval, dtype=float)

    d = dim if dim is not None else _fock_start_dim(rho0_builder)
    while True:
        last = dim is not None or 2 * d > _FOCK_MAX_DIM
        rhos = _integrate_ho_fixed_dim(
            protocol, rho0_builder, channel, t_eval, d,
            stop=None if last else (lambda rho: _top_two(rho) - 1e-8),
        )
        if rhos is not None:
            top = float(np.max(_top_two(rhos)))
            if top < 1e-8:
                return HoFockTrajectory(protocol, t_eval, rhos, d)
            if last:
                warnings.warn(
                    f"population {top:.2e} on the top two of {d} Fock levels",
                    TruncationWarning,
                )
                return HoFockTrajectory(protocol, t_eval, rhos, d)
        d = _FOCK_START_MAX_DIM if d < _FOCK_START_MAX_DIM else 2 * d


# ---------------------------------------------------------------------------
# Gaussian moments


_MOMENT_TAGS_ONLY = "moment equations exist only for q, q^2 channels"


def gaussian_moment_rhs(y, omega_sq: float, mass: float, channel: NoiseChannel):
    """Time derivative of (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2).

    The double-commutator algebra closes on these moments for both X = q
    and X = q^2; only <p^2> acquires a noise term. The arithmetic runs on
    Python floats, which round as numpy's float64 does.
    """
    mq, mp, qq, pp, qp = np.asarray(y).tolist()
    dpp = -2.0 * mass * omega_sq * qp
    tag, eta = channel.operator_tag, channel.eta
    if tag == "q":
        if eta:
            dpp += 2.0 * eta
    elif tag == "q_squared":
        if eta:
            dpp += 8.0 * eta * qq
    else:
        raise UnsupportedChannel(_MOMENT_TAGS_ONLY)
    return np.array([mp / mass, -mass * omega_sq * mq, 2.0 * qp / mass, dpp,
                     pp / mass - mass * omega_sq * qq])


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
    """Integrate the closed moment equations by DOP853; returns (times,
    5-column array). Imports scipy (the test extra) on its first call."""
    if channel.operator_tag not in OSC_TAGS:
        raise UnsupportedChannel(_MOMENT_TAGS_ONLY)
    from scipy.integrate import solve_ivp

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


#: Simpson samples per period of cos(2 theta) in the q-noise quadrature, and the
#: fewest and most intervals it takes (a default fig3 cell: 25728)
_SAMPLES_PER_PERIOD = 16
_MIN_INTERVALS = 64
_MAX_INTERVALS = 2**22
#: samples evaluated at once; bounds the quadrature's working set (~1 MB)
_BLOCK = 4096


def _q_noise_gram(protocol: HoProtocol) -> np.ndarray:
    """int_0^tf c c^T ds with c = (-fp, fq) = M^-1 e_p, by measures' Simpson weights.

    The grid is uniform in t with _SAMPLES_PER_PERIOD samples per period of
    cos(2 theta) on average, and is swept in blocks of _BLOCK samples.
    """
    t_f = protocol.t_f
    periods = float(protocol.theta(t_f)) / np.pi
    half = np.ceil(0.5 * _SAMPLES_PER_PERIOD * periods)
    if not half <= _MAX_INTERVALS // 2:
        raise StepSizeUnderflow(f"q-noise quadrature needs {2 * half:.3g} intervals")
    n = 2 * max(_MIN_INTERVALS // 2, int(half))  # Simpson needs an even count
    h = t_f / n
    pp = pq = qq = 0.0
    for start in range(0, n + 1, _BLOCK):
        i = np.arange(start, min(start + _BLOCK, n + 1))
        w = measures.simpson_weights(i, n)
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
    closed form; magnus_q2_moments propagates it.
    """
    if channel.operator_tag != "q":
        raise UnsupportedChannel("the exact invariant-frame route covers q noise only")
    mq, mp, qq, pp, qp = np.asarray(y0, dtype=float)
    s = np.array([[qq, qp], [qp, pp]])
    if channel.eta:
        s += 2.0 * channel.eta * _q_noise_gram(protocol)
    return _lab_moments(protocol, protocol.t_f, (mq, mp), (s[0, 0], s[0, 1], s[1, 1]))


def _lab_moments(protocol, ts, means, second) -> np.ndarray:
    """Lab-frame (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) at ts (a row per sample)
    of invariant-frame means m and raw second moments (S00, S01, S11): M m
    and M S M^T, M = [[fq, fp], [gq, gp]] the flow (heisenberg_coeffs)."""
    mq, mp = means
    a, b, c = second
    fq, fp, gq, gp = protocol.heisenberg_coeffs(ts)
    return np.stack([
        fq * mq + fp * mp,
        gq * mq + gp * mp,
        fq * fq * a + 2.0 * fq * fp * b + fp * fp * c,
        gq * gq * a + 2.0 * gq * gp * b + gp * gp * c,
        fq * gq * a + (fq * gp + fp * gq) * b + fp * gp * c,
    ], axis=-1)


# ---------------------------------------------------------------------------
# one error-controlled Magnus propagator of dx/dt = A(t) x, x in R^3: the
# Bloch vector of a two-level run and the invariant-frame q^2 moments


#: bound on the estimated error of a two-level fidelity, and the uniform
#: start grid of its propagator
_TLS_TOL = 1e-9
_TLS_MIN_STEPS = 128
#: intervals of the q^2 propagator's uniform output grid, which is also its
#: start grid
_Q2_INTERVALS = 400
#: largest q^2 noise dose kappa t_f, kappa = 8 eta / (m omega0)^2, that the
#: thermal route accepts. A static trap heats as exp(kappa t / 2) and the
#: fidelity multiplies two moments, so past kappa t_f = ln(DBL_MAX) ~ 709.8
#: a double overflows (F is below 1e-30 already at kappa t_f = 300)
Q2_DOSE_MAX = float(np.log(np.finfo(float).max))
#: bound on the estimated error of the sampled invariant-frame moments,
#: relative to their largest entry. fig4 cells stop at 800 half steps (1600
#: at t_f = 20 us), within 2.4e-11 of F and 4.4e-9 of the mean power of
#: DOP853 at rtol 1e-13 (constant-mu rows: 7.5e-12 and 2.1e-9)
_Q2_TOL = 1e-8
#: a refinement splits every step whose own one-step/half-step difference
#: exceeds _SPLIT times the largest; the propagator raises StepSizeUnderflow
#: rather than grow past _MAX_HALF_STEPS half steps (one batch of step
#: generators then takes up to ~14 MB at two nodes per step, ~21 MB at three)
_SPLIT = 1e-3
_MAX_HALF_STEPS = 2**16
#: Gauss-Legendre nodes of one step: a Magnus-4 step samples its generator at
#: h (1/2 -+ _GL), a Magnus-6 step at h (1/2 -+ _GL6) and h/2
_GL = np.sqrt(3.0) / 6.0
_GL6 = np.sqrt(15.0) / 10.0
#: step exponentials: Taylor degree, and the norm the scaling brings them to
_TAYLOR_DEGREE = 12
_TAYLOR_NORM = 0.5
#: steps per block of the Omega_4 and of the Omega_6 terms that take
#: temporaries (a two-level cell's first Magnus-6 batch, 3 _TLS_MIN_STEPS
#: steps, is one block)
_ASSEMBLY_BLOCK = 256
_ASSEMBLY_BLOCK6 = 512


def _mul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b of 3x3 matrices batched on the last axes, (3, 3, ...), by einsum."""
    return np.einsum("ij...,jk...->ik...", a, b, out=out)


def _expm3(x: np.ndarray) -> np.ndarray:
    """exp of a (3, 3, n) batch: Taylor series with scaling and squaring.

    Consumes x: it is scaled in place. The Taylor and squaring loops write
    each product into the other half of one work buffer, which first holds
    |x| for the norm, so no step allocates a temporary.
    """
    out, tmp = np.empty((2, *x.shape))
    norm = float(np.abs(x, out=out).sum(axis=1).max())
    squarings = int(np.ceil(np.log2(norm / _TAYLOR_NORM))) if norm > _TAYLOR_NORM else 0
    x /= 2.0**squarings
    eye = np.eye(3)[:, :, None]
    np.divide(x, _TAYLOR_DEGREE, out=out)
    out += eye
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        _mul(x, out, out=tmp)
        tmp /= k
        tmp += eye
        out, tmp = tmp, out
    for _ in range(squarings):
        _mul(out, out, out=tmp)
        out, tmp = tmp, out
    return out


def _magnus_steps(generator, left: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Magnus-4 propagators (3, 3, n) of dx/dt = A(t) x over [left, left + width).

    generator(t) -> A(t), a (3, 3, len(t)) batch, runs once on the two
    Gauss-Legendre nodes of every step. Its output is released before the
    step exponentials are taken, so their buffers can reuse its memory.
    """
    return _expm3(_magnus_exponents(generator(np.concatenate(
        [left + (0.5 - _GL) * width, left + (0.5 + _GL) * width])), width))


def _magnus_exponents(a: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Omega_4 = w/2 (A1 + A2) + sqrt(3) w^2/12 [A2, A1] of each step of width
    w, from a = [A1 of every step, A2 of every step] (last axis), left as is.

    Omega_4 is built in one batch-sized buffer; the terms that need their
    own temporaries are added _ASSEMBLY_BLOCK steps at a time.
    """
    a1, a2 = a[..., :len(width)], a[..., len(width):]
    omega = _mul(a2, a1)
    for s in range(0, len(width), _ASSEMBLY_BLOCK):
        b1, b2, wb, o = (v[..., s:s + _ASSEMBLY_BLOCK] for v in (a1, a2, width, omega))
        o -= _mul(b1, b2)
        o *= (np.sqrt(3.0) / 12.0) * wb * wb
        o += 0.5 * wb * (b1 + b2)
    return omega


def _magnus6_steps(generator, left: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Magnus-6 propagators (3, 3, n) of dx/dt = A(t) x over [left, left + width).

    generator(t) -> A(t), a fresh (3, 3, len(t)) batch, runs once on the
    three Gauss-Legendre nodes of every step; the step overwrites its output
    and releases it before the step exponentials are taken, so their buffers
    can reuse its memory.
    """
    return _expm3(_magnus6_exponents(generator(np.concatenate(
        [left + (0.5 - _GL6) * width, left + 0.5 * width, left + (0.5 + _GL6) * width])), width))


def _magnus6_exponents(a: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Omega_6 of each step of width w (Blanes, Casas & Ros, BIT 40, 434
    (2000)), from a = [A1 of every step, A2 of every step, A3 of every step]
    (last axis):

        alpha1 = w A2, alpha2 = sqrt(15) w/3 (A3 - A1),
        alpha3 = 10 w/3 (A3 - 2 A2 + A1),
        C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1]/60,
        Omega_6 = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.

    Consumes a: the alphas overwrite the nodes, alpha3 on A1, alpha1 on A2
    and alpha2 on A3. Omega_6 is built in one batch-sized buffer; the terms
    that need temporaries are added _ASSEMBLY_BLOCK6 steps at a time.
    """
    n = len(width)
    alpha3, alpha1, alpha2 = a[..., :n], a[..., n:2 * n], a[..., 2 * n:]
    alpha2 -= alpha3                            # A3 - A1
    alpha3 += alpha3
    alpha3 += alpha2
    alpha3 -= alpha1
    alpha3 -= alpha1                            # A1 - 2 A2 + A3
    alpha3 *= (10.0 / 3.0) * width
    alpha2 *= (np.sqrt(15.0) / 3.0) * width
    alpha1 *= width
    omega = np.empty((3, 3, n))
    for s in range(0, n, _ASSEMBLY_BLOCK6):
        b1, b2, b3, o = (v[..., s:s + _ASSEMBLY_BLOCK6] for v in (alpha1, alpha2, alpha3, omega))
        _mul(b2, b1, out=o)
        c = _mul(b1, b2)
        c -= o                                  # C1
        x = b3 + b3
        x += c                                  # 2 alpha3 + C1
        _mul(b1, x, out=o)
        x = _mul(x, b1)
        x -= o
        x /= 60.0
        b2 += x                                 # alpha2 + C2
        c -= 20.0 * b1
        c -= b3                                 # -20 alpha1 - alpha3 + C1
        _mul(c, b2, out=o)
        o -= _mul(b2, c)
        o /= 240.0
        o += b1
        b3 /= 12.0
        o += b3
    return omega


def _one_and_halves(generator, steps, left, h, one=None):
    """(one step, first half, second half) propagators of the steps
    [left, left + h) by the step kernel steps (_magnus_steps or
    _magnus6_steps); one, when given, holds the known one-step propagators."""
    starts, widths = [left, left + 0.5 * h], [0.5 * h, 0.5 * h]
    if one is None:
        starts, widths = [left, *starts], [h, *widths]
    u = steps(generator, np.concatenate(starts), np.concatenate(widths))
    n = len(left)
    return (u[..., :n] if one is None else one), u[..., -2 * n:-n], u[..., -n:]


def _running_products(u: np.ndarray) -> np.ndarray:
    """Products of time-ordered step propagators from t = 0 to the end of
    each step: u[..., r, j] is step j of run r, and the result holds
    u[..., r, j] @ ... @ u[..., r, 0] there.

    Consumes u: it is overwritten with the result. A pairwise scan over the
    steps of all runs at once multiplies adjacent entries level by level up
    to a single product and, on the way back down, gives every entry its
    running product by at most one more product.
    """
    levels = []
    while u.shape[-1] > 1:
        levels.append(u)
        u = _mul(u[..., 1::2], u[..., :-1:2])
    for low in reversed(levels):
        low[..., 2::2] = _mul(low[..., 2::2], u[..., :(low.shape[-1] - 1) // 2])
        low[..., 1::2] = u
        u = low
    return u


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite gap
def _magnus_path(generator, t_f: float, n_start: int, x0, error, steps, order: int) -> np.ndarray:
    """x(t) of dx/dt = A(t) x, x(0) = x0, at the n_start + 1 ends of a uniform
    start grid on [0, t_f], by the step kernel steps of order p = order
    (_magnus_steps, p = 4, or _magnus6_steps, p = 6).

    Every step is taken as one step and as two half steps. Until the two runs
    agree, error(one-step run, half-step run) <= 2^p - 1 in units of the
    route's tolerance (an error falling as h^p leaves the half-step run about
    gap/(2^p - 1) off: 15 for Magnus-4, 63 for Magnus-6), each step that
    carries the error is split into 2^k, k the doublings of every step that an
    error falling as h^p would need. The steep stretches of a run get fine
    steps and the rest keeps its coarse ones. A step split in two takes its
    halves as the one-step runs of its parts. Returns the half-step run.
    """
    gate = 2.0**order - 1.0
    h = np.full(n_start, t_f / n_start)
    left = np.arange(n_start) * h
    ends = np.ones(n_start, dtype=bool)  # the steps that end a start step
    one, first, second = _one_and_halves(generator, steps, left, h)
    while True:
        halves = _mul(second, first)
        runs = _running_products(np.stack([one, halves], axis=2))
        path = np.einsum("ijrn,j->rni", runs[..., ends], x0)
        coarse, fine = np.concatenate([np.broadcast_to(x0, (2, 1, 3)), path], axis=1)
        gap = error(coarse, fine)
        if gap <= gate:
            return fine
        if not np.isfinite(gap):
            raise StepSizeUnderflow(f"Magnus propagator overflowed on {2 * len(h)} half steps")
        diff = np.abs(halves - one).max(axis=(0, 1))
        flagged = diff > _SPLIT * diff.max()
        k = np.ceil(np.log2(gap / gate) / order)
        if 2 * (len(h) + flagged.sum() * (2**k - 1)) > _MAX_HALF_STEPS:
            raise StepSizeUnderflow(
                f"Magnus propagator not converged on {2 * len(h)} half steps "
                f"(estimated error {gap / gate:.3g} times its tolerance)")
        parts = np.where(flagged, 2 ** int(k), 1)
        idx = np.repeat(np.arange(len(h)), parts)
        part = np.arange(len(idx)) - (np.cumsum(parts) - parts)[idx]  # its place in its step
        h = h[idx] / parts[idx]
        left = left[idx] + part * h
        ends = ends[idx] & (part == parts[idx] - 1)  # a start step ends with its last part
        split = parts[idx] > 1
        known = (np.stack([first[..., flagged], second[..., flagged]], axis=-1).reshape(3, 3, -1)
                 if k == 1 else None)
        one, first, second = one[..., idx], first[..., idx], second[..., idx]
        one[..., split], first[..., split], second[..., split] = _one_and_halves(
            generator, steps, left[split], h[split], known)


def magnus_q2_moments(protocol, y0, channel: NoiseChannel):
    """Moments (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2) under q^2 noise, sampled on
    401 uniform points of [0, t_f]; returns (times, 5-column array).

    protocol is a trap control with omega0, mass, t_f and a closed-form
    noiseless Heisenberg flow heisenberg_coeffs (HoProtocol from the
    invariant, ConstantMuControl from the Euler-Cauchy solutions). With M(t)
    that flow the raw second moments are S = M S_I M^T, and q^2 noise drives
    S_I by the rank-one linear generator 8 eta <q^2> c c^T, c = (-fp, fq):
    with p in units of m omega0, s = (S_I00, S_I01, S_I11) obeys
    ds/dt = kappa u w^T s, u = (fp^2, -fp fq, fq^2), w = (fq^2, 2 fq fp,
    fp^2). The Magnus
    propagator (_magnus_path) takes Magnus-4 steps from the 400 output
    intervals and refines until the largest change of a sampled moment is
    within _Q2_TOL of the largest moment. The means stay M m0.
    """
    if channel.operator_tag != "q_squared":
        raise UnsupportedChannel("the invariant-frame propagator covers q^2 noise only")
    mq, mp, qq, pp, qp = np.asarray(y0, dtype=float)
    scale = protocol.mass * protocol.omega0
    s = np.array([qq, qp / scale, pp / scale**2])
    if channel.eta:
        kappa = 8.0 * channel.eta / scale**2

        def generator(t):
            fq, fp, _, _ = protocol.heisenberg_coeffs(t)
            fp = fp * scale
            u = np.stack([fp * fp, -fp * fq, fq * fq])
            w = np.stack([fq * fq, 2.0 * fq * fp, fp * fp])
            return kappa * u[:, None] * w

        s = _magnus_path(
            generator, protocol.t_f, _Q2_INTERVALS, s,
            lambda coarse, fine: np.abs(fine - coarse).max() / (_Q2_TOL * np.abs(fine).max()),
            _magnus_steps, 4)
    ts = np.linspace(0.0, protocol.t_f, _Q2_INTERVALS + 1)
    second = np.atleast_2d(s).T * np.array([[1.0], [scale], [scale**2]])
    return ts, _lab_moments(protocol, ts, (mq, mp), second)


# ---------------------------------------------------------------------------
# fidelity of the paper's two systems: one routine each


def _bloch_generator(protocol, channels):
    """A(t) of the Bloch vector r of a two-level run, dr/dt = A(t) r: the
    rotation about (Omega, 0, Delta) from protocol.controls, plus the damping
    diag(-4 eta_z, -4 (eta_z + eta_x), -4 eta_x) of its sigma_z and sigma_x
    channels. Any other channel raises UnsupportedChannel."""
    eta = dict.fromkeys(PAULI_TAGS, 0.0)
    for ch in channels:
        if ch.operator_tag not in PAULI_TAGS:
            raise UnsupportedChannel("the Bloch-frame propagator covers Pauli channels only")
        eta[ch.operator_tag] += ch.eta
    eta_z, eta_x = eta["sigma_z"], eta["sigma_x"]
    damping = -4.0 * np.array([eta_z, eta_z + eta_x, eta_x])

    def generator(t):
        delta, omega = protocol.controls(t)
        a = np.zeros((3, 3, len(t)))
        a[0, 1], a[1, 0] = -delta, delta
        a[1, 2], a[2, 1] = -omega, omega
        a[(0, 1, 2), (0, 1, 2)] = damping[:, None]
        return a

    return generator


def tls_fidelity(protocol, channels=()) -> float:
    """Final |1><1| population of a two-level inversion run.

    Starts from the first basis state, r = (0, 0, 1), under
    H = Delta/2 sigma_z + Omega/2 sigma_x from protocol.controls; a perfect
    inversion ends at F = (1 - r_z)/2 = 1. r is propagated by the Magnus
    propagator (_magnus_path) with Magnus-6 steps on _bloch_generator, from
    _TLS_MIN_STEPS uniform steps until the error it estimates is within
    _TLS_TOL, so a steep cell costs about as much as a smooth one. The
    estimate is the largest distance between the one-step and half-step
    Bloch vectors at the start-step ends, halved: F moves by at most half of
    a change in r, and the largest gap over the run cannot hide errors of
    separate stretches that cancel at its end, as the gap in F alone can.
    """
    path = _magnus_path(
        _bloch_generator(protocol, channels), protocol.t_f, _TLS_MIN_STEPS,
        np.array([0.0, 0.0, 1.0]),
        lambda coarse, fine: 0.5 * np.linalg.norm(fine - coarse, axis=1).max() / _TLS_TOL,
        _magnus6_steps, 6)
    return float(0.5 * (1.0 - path[-1, 2]))


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


def thermal_fidelity(protocol, n_bar: float, channel: NoiseChannel) -> tuple[float, float]:
    """(fidelity, mean drive power) of a thermal-state trap expansion.

    protocol is a trap control with omega0, omega_f, mass, t_f, omega_sq_dot
    and a closed-form Heisenberg flow: an HoProtocol or the constant-mu
    reference ConstantMuControl. Both go through magnus_q2_moments, which
    keeps its own error control; the moments are sampled on its 401 points,
    so the power integral shares the fidelity's trajectory.
    """
    mass = protocol.mass
    init = states.thermal_state(n_bar, protocol.omega0, mass)
    ts, ys = magnus_q2_moments(protocol, init.raw(), channel)
    target = states.thermal_state(n_bar, protocol.omega_f, mass)
    fid = states.gaussian_fidelity(states.GaussianMoments.from_raw(*ys[-1]), target)
    power = measures.average_power(
        protocol.omega_sq_dot, ys[:, 2], mass, protocol.t_f, grid=len(ts)
    )
    return fid, power
