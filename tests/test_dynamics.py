import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qig import dynamics, qspace, transforms


def rep(p, phi):
    return qspace.PhaseRep(p=p, phi=phi)


def test_zero_energy_is_identity():
    r = rep([0.5, 0.5], (0.3, 1.2))
    out = dynamics.evolve_stationary(r, 0.0, 5.0, alpha=2.0)
    assert_array_equal(out.phi, r.phi)
    assert_allclose(out.p, r.p, atol=0)


def test_phase_shift_definition():
    r = rep([0.5, 0.5], (0.3, 1.2))
    out = dynamics.evolve_stationary(r, 1.0, np.pi, alpha=1.0)
    assert out.phi[0] == pytest.approx((0.3 - np.pi) % (2 * np.pi))
    assert out.phi[1] == pytest.approx((1.2 - np.pi) % (2 * np.pi))
    assert_allclose(out.p, r.p, atol=0)


def test_evolution_additivity():
    r = rep([0.2, 0.3, 0.5], (0.1, 2.0, 4.0))
    one = dynamics.evolve_stationary(
        dynamics.evolve_stationary(r, 1.5, 0.7, alpha=1.0), 1.5, 0.3, alpha=1.0)
    two = dynamics.evolve_stationary(r, 1.5, 1.0, alpha=1.0)
    for f1, f2 in zip(one.phi, two.phi):
        assert f1 == pytest.approx(f2, abs=1e-12)


def test_evolution_is_global_phase():
    r = rep([0.2, 0.8], (0.4, 1.1))
    e, dt, alpha = 2.0, 0.6, 1.5
    evolved = qspace.to_complex(qspace.from_phase_rep(
        dynamics.evolve_stationary(r, e, dt, alpha)))
    direct = qspace.gauge_shift(
        qspace.to_complex(qspace.from_phase_rep(r)), -e * dt / alpha)
    assert_allclose(evolved, direct, atol=1e-12)


def test_evolution_classifies_unitary():
    shift = -1.0 * 0.7 / 1.0
    m = transforms.realify_unitary(np.exp(1j * shift) * np.eye(3))
    assert transforms.classify(m).kind == "unitary"


def test_hj_stationary_step():
    state = dynamics.HJGridState(h=0.1, x0=0.0, P=[0.2, 0.3, 0.5],
                                 S=[1.0, 2.0, 3.0], m=1.0)
    out = dynamics.hj_stationary_step(state, energy=2.0, dt=0.5)
    assert_allclose(out.P, state.P, atol=0)
    assert_allclose(out.S, state.S - 1.0, atol=0)
    # identity at E=0, additivity of steps
    same = dynamics.hj_stationary_step(state, 0.0, 1.0)
    assert_allclose(same.S, state.S, atol=0)
    twice = dynamics.hj_stationary_step(dynamics.hj_stationary_step(state, 2.0, 0.5), 2.0, 0.5)
    once = dynamics.hj_stationary_step(state, 2.0, 1.0)
    assert_allclose(twice.S, once.S, atol=0)


def test_correspondence_with_phase_evolution():
    rng = np.random.default_rng(0)
    alpha = 1.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        p = rng.random(n) + 0.05
        p /= p.sum()
        state = dynamics.HJGridState(h=0.1, x0=0.0, P=p, S=rng.normal(size=n), m=1.0)
        e, dt = rng.normal(scale=2.0), rng.uniform(0, 3)
        via_hj = dynamics.phase_rep_from_hj(
            dynamics.hj_stationary_step(state, e, dt), alpha)
        via_phase = dynamics.evolve_stationary(
            dynamics.phase_rep_from_hj(state, alpha), e, dt, alpha)
        for f1, f2 in zip(via_hj.phi, via_phase.phi):
            d = abs(f1 - f2) % (2 * np.pi)
            assert min(d, 2 * np.pi - d) < 1e-12


def test_plane_wave_residuals_vanish():
    def provider(t):
        return dynamics.free_particle_state(0.7, 1.0, h=0.01, x0=-1.0, n=201, t=t)

    cont, hj = dynamics.hj_residual(provider, t=1.0, dt=0.01)
    assert cont < 1e-12
    assert hj < 1e-12


def test_spreading_family_second_order_convergence():
    def residuals(h, dt):
        n = int(round(3.6 / h)) + 1

        def provider(t):
            return dynamics.spreading_free_particle_state(
                1.0, h=h, x0=-1.8, n=n, t=t, width=0.2)

        return dynamics.hj_residual(provider, t=1.0, dt=dt)

    coarse = residuals(0.02, 0.02)
    fine = residuals(0.01, 0.01)
    for c, f in zip(coarse, fine):
        assert c / f >= 3.5


def test_hj_residual_rejects_tiny_grid():
    def provider(t):
        return dynamics.free_particle_state(0.5, 1.0, h=0.1, x0=0.0, n=4, t=t)

    with pytest.raises(ValueError):
        dynamics.hj_residual(provider, 1.0, 0.1)


def test_grid_state_validation():
    with pytest.raises(ValueError):
        dynamics.HJGridState(h=-0.1, x0=0.0, P=[1.0], S=[0.0], m=1.0)
    with pytest.raises(ValueError):
        dynamics.HJGridState(h=0.1, x0=0.0, P=[0.4, 0.4], S=[0.0, 0.0], m=1.0)
