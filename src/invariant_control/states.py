"""State constructors and fidelities.

Dense density matrices are compared with the Uhlmann fidelity
F = tr sqrt(sqrt(rho) sigma sqrt(rho)); Gaussian states carry first and
second moments and use the closed single-mode formula. Both routes are
cross-validated against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCovariance, NonPSDInput

__all__ = [
    "GaussianMoments",
    "uhlmann_fidelity",
    "gaussian_fidelity",
    "thermal_state",
    "coherent_state",
    "coherent_vector",
    "target_coherent",
    "CoherentTarget",
]


@dataclass(frozen=True)
class GaussianMoments:
    """First moments and symmetrized covariances of a single mode (hbar = 1)."""

    mean_q: float
    mean_p: float
    v_qq: float
    v_pp: float
    v_qp: float

    def __post_init__(self):
        if self.v_qq <= 0 or self.v_pp <= 0:
            raise InvalidCovariance("diagonal covariances must be positive")
        if self.det_v < 0.25 - 1e-9:
            raise InvalidCovariance(
                f"uncertainty product {self.det_v:.3e} below the quantum limit"
            )

    @property
    def det_v(self) -> float:
        return self.v_qq * self.v_pp - self.v_qp**2

    @property
    def covariance(self) -> np.ndarray:
        return np.array([[self.v_qq, self.v_qp], [self.v_qp, self.v_pp]])

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mean_q, self.mean_p])

    @classmethod
    def from_raw(cls, mq, mp, qq, pp, qp_sym) -> "GaussianMoments":
        """Build from raw moments (<q>, <p>, <q^2>, <p^2>, <qp+pq>/2)."""
        return cls(
            mean_q=float(mq),
            mean_p=float(mp),
            v_qq=float(qq - mq * mq),
            v_pp=float(pp - mp * mp),
            v_qp=float(qp_sym - mq * mp),
        )

    def raw(self) -> np.ndarray:
        return np.array([
            self.mean_q,
            self.mean_p,
            self.v_qq + self.mean_q**2,
            self.v_pp + self.mean_p**2,
            self.v_qp + self.mean_q * self.mean_p,
        ])


def _psd_eigh(rho: np.ndarray):
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    if vals[0] < -1e-6:
        raise NonPSDInput(f"eigenvalue {vals[0]:.3e} below -1e-6")
    return np.clip(vals, 0.0, None), vecs


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F = tr sqrt(sqrt(rho) sigma sqrt(rho)), clipped to [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatch("states have different dimensions")
    vals, vecs = _psd_eigh(rho)
    sqrt_rho = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    ivals, _ = _psd_eigh(inner)
    return float(min(1.0, np.sum(np.sqrt(ivals))))


def gaussian_fidelity(a: GaussianMoments, b: GaussianMoments) -> float:
    """Single-mode Gaussian-state fidelity from means and covariances.

    Raises InvalidCovariance for non-finite moments, which would otherwise
    clip to a perfect fidelity.
    """
    va, vb = a.covariance, b.covariance
    if not np.all(np.isfinite([va, vb])) or not np.all(np.isfinite([a.mean, b.mean])):
        raise InvalidCovariance("moments must be finite")
    vsum = va + vb
    delta = b.mean - a.mean
    big = float(np.linalg.det(vsum))
    lam = 4.0 * (np.linalg.det(va) - 0.25) * (np.linalg.det(vb) - 0.25)
    lam = max(float(lam), 0.0)
    denom = np.sqrt(big + lam) - np.sqrt(lam)
    if denom <= 0:
        raise InvalidCovariance("degenerate covariance sum")
    expo = -0.5 * float(delta @ np.linalg.solve(vsum, delta))
    f_sq = np.exp(expo) / denom
    return float(min(1.0, np.sqrt(max(f_sq, 0.0))))


def thermal_state(n_bar: float, omega: float, mass: float,
                  representation: str = "gaussian", dim: int = 64):
    """Thermal oscillator state with mean occupation n_bar."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if representation == "gaussian":
        s = n_bar + 0.5
        return GaussianMoments(0.0, 0.0, s / (mass * omega), s * mass * omega, 0.0)
    if representation != "fock":
        raise ValueError(f"unknown representation {representation!r}")
    k = np.arange(dim)
    if n_bar == 0:
        pops = np.zeros(dim)
        pops[0] = 1.0
    else:
        ratio = n_bar / (n_bar + 1.0)
        pops = ratio**k / (n_bar + 1.0)
    return np.diag(pops).astype(complex)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    amps = np.exp(
        -0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact
    ) if alpha != 0 else np.eye(dim, 1).ravel().astype(complex)
    return amps.astype(complex)


def coherent_state(alpha: complex, omega: float, mass: float,
                   representation: str = "gaussian", dim: int = 64):
    """Coherent state |alpha> of a trap at frequency omega."""
    if representation == "gaussian":
        return GaussianMoments(
            mean_q=np.sqrt(2.0 / (mass * omega)) * np.real(alpha),
            mean_p=np.sqrt(2.0 * mass * omega) * np.imag(alpha),
            v_qq=1.0 / (2.0 * mass * omega),
            v_pp=mass * omega / 2.0,
            v_qp=0.0,
        )
    if representation != "fock":
        raise ValueError(f"unknown representation {representation!r}")
    v = coherent_vector(alpha, dim)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class CoherentTarget:
    """Final coherent state of a trap expansion, in the final-trap basis.

    The overall phase exp(-i g omega0 / 2) does not affect any fidelity and
    is kept as metadata only.
    """

    alpha_tilde: complex
    omega: float
    mass: float
    global_phase: complex

    def gaussian(self) -> GaussianMoments:
        return coherent_state(self.alpha_tilde, self.omega, self.mass, "gaussian")

    def frame_fock(self, dim: int) -> np.ndarray:
        """Target conjugated into the co-moving invariant frame.

        The frame propagator carries the mode phases exp(-i (n + 1/2) g
        omega0) that define alpha_tilde, so pulling the target back through
        it restores the bare initial amplitude alpha. Use this to compare
        against interaction-picture Fock trajectories.
        """
        alpha = self.alpha_tilde / self.global_phase**2
        return coherent_state(alpha, self.omega, self.mass, "fock", dim)


def target_coherent(alpha: complex, g: float, omega0: float,
                    omega_f: float, mass: float) -> CoherentTarget:
    """Target coherent state alpha_tilde = alpha * exp(-i g omega0)."""
    phase = np.exp(-1j * g * omega0)
    return CoherentTarget(
        alpha_tilde=complex(alpha) * phase,
        omega=omega_f,
        mass=mass,
        global_phase=np.exp(-0.5j * g * omega0),
    )
