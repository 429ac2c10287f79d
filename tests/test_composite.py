import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qig import composite, measurement, qspace
from qig.sampling import haar_unitary


def full_support_rep(n, rng):
    p = rng.random(n) + 0.05
    p /= p.sum()
    return qspace.PhaseRep(p=p, phi=tuple(rng.uniform(0, 2 * np.pi, n)))


def test_compose_vertices():
    s1 = qspace.PhaseRep(p=[1.0, 0.0], phi=(0.0, None))
    out = composite.compose_phase_reps(s1, s1)
    assert_allclose(out.p, [1, 0, 0, 0], atol=0)
    assert_array_equal(out.phi, [0.0, np.nan, np.nan, np.nan])


def test_compose_half_half_with_vertex():
    s1 = qspace.PhaseRep(p=[0.5, 0.5], phi=(0.0, np.pi / 2))
    s2 = qspace.PhaseRep(p=[1.0, 0.0], phi=(0.0, None))
    out = composite.compose_phase_reps(s1, s2)
    assert_allclose(out.p, [0.5, 0, 0.5, 0], atol=0)
    assert out.phi[0] == 0.0
    assert out.phi[2] == pytest.approx(np.pi / 2)
    assert np.isnan(out.phi[1]) and np.isnan(out.phi[3])


def test_compose_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = composite.compose_phase_reps(
            full_support_rep(int(rng.integers(2, 5)), rng),
            full_support_rep(int(rng.integers(2, 5)), rng))
        assert out.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_tensor_examples():
    assert_allclose(composite.tensor(np.array([1, 0], dtype=complex),
                                     np.array([0, 1], dtype=complex)),
                    [0, 1, 0, 0], atol=0)
    v1 = np.array([1, 1j]) / np.sqrt(2.0)
    v2 = np.array([0, 1], dtype=complex)
    assert_allclose(composite.tensor(v1, v2),
                    np.array([0, 1, 0, 1j]) / np.sqrt(2.0), atol=1e-15)


def test_tensor_matches_phase_rep_composition():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s1 = full_support_rep(int(rng.integers(2, 4)), rng)
        s2 = full_support_rep(int(rng.integers(2, 4)), rng)
        via_reps = qspace.to_complex(qspace.from_phase_rep(
            composite.compose_phase_reps(s1, s2)))
        direct = composite.tensor(qspace.to_complex(qspace.from_phase_rep(s1)),
                                  qspace.to_complex(qspace.from_phase_rep(s2)))
        assert np.max(np.abs(via_reps - direct)) < 1e-12


def test_gauge_shift_compatibility():
    rng = np.random.default_rng(3)
    v1 = haar_unitary(3, rng)[:, 0]
    v2 = haar_unitary(2, rng)[:, 0]
    phi0 = 1.234
    shifted_first = composite.tensor(qspace.gauge_shift(v1, phi0), v2)
    shifted_second = composite.tensor(v1, qspace.gauge_shift(v2, phi0))
    whole = qspace.gauge_shift(composite.tensor(v1, v2), phi0)
    assert_allclose(shifted_first, whole, atol=1e-12)
    assert_allclose(shifted_second, whole, atol=1e-12)


def test_born_factorization():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n1, n2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        u1, u2 = haar_unitary(n1, rng), haar_unitary(n2, rng)
        v1, v2 = haar_unitary(n1, rng)[:, 0], haar_unitary(n2, rng)[:, 0]
        joint = measurement.born_probs(
            composite.tensor(v1, v2),
            measurement.MeasurementBasis(np.kron(u1, u2)))
        p1 = measurement.born_probs(v1, measurement.MeasurementBasis(u1))
        p2 = measurement.born_probs(v2, measurement.MeasurementBasis(u2))
        assert np.max(np.abs(joint - np.outer(p1, p2).ravel())) < 1e-12


def test_subsystem_observable_identity():
    obs = measurement.Observable(basis=measurement.MeasurementBasis.standard(2),
                                 values=[1.0, 1.0])
    lifted = composite.subsystem_observable(obs, 3)
    assert_allclose(lifted.matrix(), np.eye(6), atol=1e-12)


def test_subsystem_observable_rejects_an_empty_factor():
    obs = measurement.Observable(basis=measurement.MeasurementBasis.standard(2),
                                 values=[1.0, -1.0])
    assert_allclose(composite.subsystem_observable(obs, 1).matrix(), obs.matrix(), atol=0)
    for n_other in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            composite.subsystem_observable(obs, n_other)


def test_subsystem_observable_ignores_other_factor():
    rng = np.random.default_rng(5)
    obs = measurement.Observable(basis=measurement.MeasurementBasis.standard(2),
                                 values=[1.0, -1.0])
    v1 = np.sqrt([0.3, 0.7]).astype(complex)
    for _ in range(20):
        v2 = haar_unitary(2, rng)[:, 0]
        lifted = composite.subsystem_observable(obs, 2)
        got = measurement.expected_value(composite.tensor(v1, v2), lifted)
        assert got == pytest.approx(-0.4, abs=1e-12)


def test_subsystem_observable_multiplicity():
    rng = np.random.default_rng(6)
    obs = measurement.Observable(
        basis=measurement.MeasurementBasis(haar_unitary(2, rng)),
        values=[2.0, -3.0])
    n_other = 3
    lifted = composite.subsystem_observable(obs, n_other)
    eigvals = np.sort(np.linalg.eigvalsh(lifted.matrix()))
    expected = np.sort(np.repeat(obs.values, n_other))
    assert_allclose(eigvals, expected, atol=1e-9)


def test_energy_additivity():
    rng = np.random.default_rng(7)
    assert composite.energy_additivity_check(
        full_support_rep(2, rng), full_support_rep(2, rng),
        0.0, 0.0, 1.0, alpha=1.0) == 0.0
    resid = composite.energy_additivity_check(
        full_support_rep(2, rng), full_support_rep(3, rng),
        1.0, 2.0, 0.5, alpha=1.0)
    assert resid < 1e-12
    for _ in range(100):
        resid = composite.energy_additivity_check(
            full_support_rep(int(rng.integers(2, 4)), rng),
            full_support_rep(int(rng.integers(2, 4)), rng),
            rng.normal(scale=3), rng.normal(scale=3), rng.uniform(0, 2),
            alpha=1.0)
        assert resid < 1e-12
