"""State constructors and the two fidelity routes."""

import warnings

import numpy as np
import pytest

from invariant_control import dynamics, states
from invariant_control.constants import TWO_PI
from invariant_control.errors import InvalidCovariance
from invariant_control.protocols import make_ho_protocol

import oracles


def test_gaussian_moments_raw_round_trip():
    g = states.GaussianMoments(0.4, -0.2, 0.8, 0.9, 0.1)
    again = states.GaussianMoments.from_raw(*g.raw())
    for name in ("mean_q", "mean_p", "v_qq", "v_pp", "v_qp"):
        assert getattr(again, name) == pytest.approx(getattr(g, name), abs=1e-12)


def test_gaussian_moments_validation_and_purity():
    with pytest.raises(InvalidCovariance):
        states.GaussianMoments(0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(InvalidCovariance):
        states.GaussianMoments(0.0, 0.0, 0.1, 0.1, 0.0)  # below the quantum limit
    # purity 1 / (2 sqrt(det V)): 1 for a coherent state, 1 / (2 n + 1) thermal
    coh = states.coherent_state(1.0 + 1.0j, 2.0, 1.0, "gaussian")
    assert coh.det_v == pytest.approx(0.25, rel=1e-12)
    th = states.thermal_state(3.0, 2.0, 1.0)
    assert th.det_v == pytest.approx((3.0 + 0.5) ** 2, rel=1e-12)


def test_thermal_state_fock_populations():
    n_bar, dim = 2.5, 120
    rho = oracles.thermal_fock_state(n_bar, dim)
    pops = np.diag(rho).real
    assert pops.sum() == pytest.approx(1.0, abs=1e-10)
    assert (np.arange(dim) * pops).sum() == pytest.approx(n_bar, rel=1e-8)
    # n_bar = 0 is the exact vacuum
    vacuum = oracles.thermal_fock_state(0.0, 5)
    assert np.array_equal(vacuum, np.diag([1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        states.thermal_state(-1.0, 1.0, 1.0)


def test_fock_coherent_state_is_exactly_hermitian():
    rho = states.coherent_state(1.0 + 1.0j, 2.0, 1.0, "fock", 40)
    assert np.array_equal(rho, rho.conj().T)
    assert not np.any(np.diag(rho).imag)


def test_coherent_state_fock_matches_gaussian_moments():
    alpha, omega, mass, dim = 1.2 - 0.4j, 1.7, 0.9, 60
    rho = states.coherent_state(alpha, omega, mass, "fock", dim)
    q, p, n = dynamics.fock_operators(dim, mass, omega)
    g = states.coherent_state(alpha, omega, mass, "gaussian")
    assert np.trace(rho @ q).real == pytest.approx(g.mean_q, rel=1e-10)
    assert np.trace(rho @ p).real == pytest.approx(g.mean_p, rel=1e-10)
    assert np.trace(rho @ (q @ q)).real == pytest.approx(
        g.v_qq + g.mean_q**2, rel=1e-10
    )
    assert np.trace(rho @ n).real == pytest.approx(abs(alpha) ** 2, rel=1e-10)


def test_uhlmann_fidelity_pure_state_overlap():
    rng = np.random.default_rng(13)
    for _ in range(5):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        f = states.uhlmann_fidelity(np.outer(v, v.conj()), np.outer(w, w.conj()))
        assert f == pytest.approx(abs(v.conj() @ w), abs=1e-13)


@pytest.mark.parametrize("near_pure", [False, True])
def test_uhlmann_fidelity_of_a_pure_target_has_no_roundoff_floor(near_pure):
    # F(rho, |psi><psi|) = sqrt(<psi|rho|psi>): the eigenvalues of the
    # rank-one sqrt(rho) sigma sqrt(rho) other than the top one are roundoff,
    # and their square roots must not add up
    rng = np.random.default_rng(29)
    d = 40
    for _ in range(5):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        if near_pure:  # like a Fock-run final state: one large eigenvalue
            v = a[:, 0] / np.linalg.norm(a[:, 0])
            rho = np.outer(v, v.conj()) + 1e-6 * rho / np.trace(rho).real
        rho = rho / np.trace(rho).real
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        if near_pure:
            psi = (psi + 5.0 * v) / np.linalg.norm(psi + 5.0 * v)
        f = states.uhlmann_fidelity(rho, np.outer(psi, psi.conj()))
        assert abs(f - np.sqrt((psi.conj() @ rho @ psi).real)) <= 1e-13


def test_uhlmann_fidelity_identity_and_symmetry():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    sigma = b @ b.conj().T
    sigma /= np.trace(sigma).real
    assert states.uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert states.uhlmann_fidelity(rho, sigma) == pytest.approx(
        states.uhlmann_fidelity(sigma, rho), abs=1e-9
    )


def test_gaussian_fidelity_displaced_coherent_closed_form():
    # F = exp(-|alpha - beta|^2 / 2) for two coherent states
    omega, mass = 1.3, 0.8
    alpha, beta = 0.5 + 0.2j, -0.3 + 0.9j
    f = states.gaussian_fidelity(
        states.coherent_state(alpha, omega, mass, "gaussian"),
        states.coherent_state(beta, omega, mass, "gaussian"),
    )
    assert f == pytest.approx(np.exp(-0.5 * abs(alpha - beta) ** 2), rel=1e-10)


def test_gaussian_fidelity_rejects_non_finite_moments():
    # a non-finite moment would clip a fidelity to 1: no GaussianMoments
    # holds one, so gaussian_fidelity never sees it
    good = (0.0, 0.0, 1.0, 1.0, 0.0)
    for i in range(5):
        for value in (np.nan, np.inf, -np.inf):
            bad = (*good[:i], value, *good[i + 1:])
            with pytest.raises(InvalidCovariance, match="finite"):
                states.GaussianMoments(*bad)
            with pytest.raises(InvalidCovariance, match="finite"):
                states.GaussianMoments.from_raw(*bad)
    with pytest.raises(InvalidCovariance, match="finite"):
        states.thermal_state(np.nan, 1.0, 1.0)


_TRAP_BUILDS = {
    "thermal": lambda omega, mass: states.thermal_state(1.0, omega, mass),
    "coherent": lambda omega, mass: states.coherent_state(1.0 + 1.0j, omega, mass),
    "coherent_fock": lambda omega, mass: states.coherent_state(1.0, omega, mass, "fock", 8),
}


@pytest.mark.parametrize("build", sorted(_TRAP_BUILDS))
@pytest.mark.parametrize("arg", ["omega", "mass"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_state_constructors_reject_a_trap_not_positive_and_finite(build, arg, bad):
    # checked first, as the trap builders do: no ZeroDivisionError, and no
    # numpy warning before the error
    values = {"omega": 2.0, "mass": 1.0, arg: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{arg}.*must be positive and finite"):
            _TRAP_BUILDS[build](**values)


def test_gaussian_fidelity_matches_fock_uhlmann():
    omega, mass, dim = 1.0, 1.0, 80
    pairs = [
        (states.thermal_state(1.5, omega, mass),
         states.thermal_state(3.0, omega, mass),
         oracles.thermal_fock_state(1.5, dim),
         oracles.thermal_fock_state(3.0, dim)),
        (states.coherent_state(0.7, omega, mass, "gaussian"),
         states.thermal_state(0.8, omega, mass),
         states.coherent_state(0.7, omega, mass, "fock", dim),
         oracles.thermal_fock_state(0.8, dim)),
    ]
    for ga, gb, fa, fb in pairs:
        f_gauss = states.gaussian_fidelity(ga, gb)
        f_fock = states.uhlmann_fidelity(fa, fb)
        assert f_gauss == pytest.approx(f_fock, abs=1e-6)


def test_target_coherent_phases():
    omega0 = TWO_PI * 15.92e6
    proto = make_ho_protocol(omega0, omega0 / 100.0, t_f=100e-6)
    g = proto.g_phase
    alpha = 1.0 + 1.0j
    tgt = states.target_coherent(alpha, g, omega0, omega0 / 100.0, proto.mass)
    assert tgt.alpha_tilde == pytest.approx(alpha * np.exp(-1j * g * omega0))
    assert abs(tgt.global_phase) == pytest.approx(1.0, abs=1e-12)
    # pulling the target back through the mode phases restores alpha
    assert tgt.alpha_tilde / tgt.global_phase**2 == pytest.approx(alpha)
    dim = 40
    frame = tgt.frame_fock(dim)
    bare = states.coherent_state(alpha, tgt.omega, tgt.mass, "fock", dim)
    np.testing.assert_allclose(frame, bare, atol=1e-12)
