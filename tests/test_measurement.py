import numpy as np
import pytest
from numpy.testing import assert_allclose

from qig import measurement, transforms
from qig.sampling import haar_unitary


def random_state(n, rng):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_basis_orthonormality_enforced():
    with pytest.raises(ValueError):
        measurement.MeasurementBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))
    measurement.MeasurementBasis.standard(3)


def test_bases_and_gauge_maps_share_one_unitarity_test():
    # rows are orthonormal iff the matrix is unitary: one residual test decides both
    u = haar_unitary(4, np.random.default_rng(0))
    measurement.MeasurementBasis(u)
    transforms.realify_unitary(u)
    # |(1 + e)^2 I - I| = 2e sqrt(4) in the Frobenius norm, above ORTHO_TOL
    for build in (measurement.MeasurementBasis, transforms.realify_unitary):
        with pytest.raises(ValueError, match=r"matrix is not unitary: residual 1\.6e-10"):
            build(u * (1 + 4e-11))


def test_born_probs_reproducibility():
    rng = np.random.default_rng(0)
    basis = measurement.MeasurementBasis(haar_unitary(4, rng))
    for i in range(4):
        p = measurement.born_probs(basis.vectors[i], basis)
        expected = np.zeros(4)
        expected[i] = 1.0
        assert_allclose(p, expected, atol=1e-12)


def test_born_probs_phase_independent():
    basis = measurement.MeasurementBasis.standard(2)
    for theta in (0.0, 0.7, np.pi):
        v = np.array([np.sqrt(0.3), np.sqrt(0.7) * np.exp(1j * theta)])
        assert_allclose(measurement.born_probs(v, basis), [0.3, 0.7], rtol=1e-14)


def test_born_probs_hadamard_basis():
    basis = measurement.MeasurementBasis(
        np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
    assert_allclose(measurement.born_probs(np.array([1.0 + 0j, 0]), basis),
                    [0.5, 0.5], rtol=1e-14)


def test_build_simulation_standard_basis():
    arr = measurement.build_simulation(measurement.MeasurementBasis.standard(3))
    assert_allclose(arr.U, np.eye(3), atol=0)
    assert_allclose(arr.V, np.eye(3), atol=0)


def test_build_simulation_is_unitary():
    rng = np.random.default_rng(1)
    basis = measurement.MeasurementBasis(haar_unitary(4, rng))
    arr = measurement.build_simulation(basis, theta=rng.uniform(0, 6, 4),
                                       theta_out=rng.uniform(0, 6, 4))
    eye = np.eye(4)
    assert_allclose(arr.U.conj().T @ arr.U, eye, atol=1e-12)
    assert_allclose(arr.V.conj().T @ arr.V, eye, atol=1e-12)


def test_arrangement_distribution_is_born_for_any_phases():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        basis = measurement.MeasurementBasis(haar_unitary(n, rng))
        v = random_state(n, rng)
        arr = measurement.build_simulation(
            basis, theta=rng.uniform(0, 2 * np.pi, n),
            theta_out=rng.uniform(0, 2 * np.pi, n))
        assert_allclose(measurement.arrangement_probs(arr, v),
                        measurement.born_probs(v, basis), atol=1e-12)


def test_simulate_measurement_certain_result():
    rng = np.random.default_rng(3)
    basis = measurement.MeasurementBasis(haar_unitary(3, rng))
    arr = measurement.build_simulation(basis)
    for j in range(3):
        i, out = measurement.simulate_measurement(arr, basis.vectors[j], rng)
        assert i == j
        overlap = abs(np.vdot(basis.vectors[j], out))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_state_of_another_dimension_is_rejected():
    rng = np.random.default_rng(5)
    arr = measurement.build_simulation(measurement.MeasurementBasis(haar_unitary(3, rng)))
    for v in (np.array([1.0, 0.0]), np.eye(4)[:2]):
        with pytest.raises(ValueError, match="state and arrangement dimensions differ"):
            measurement.arrangement_probs(arr, v)
        with pytest.raises(ValueError, match="state and arrangement dimensions differ"):
            measurement.simulate_batch(arr, v, rng.random(2))
        with pytest.raises(ValueError, match="state and arrangement dimensions differ"):
            measurement.simulate_measurement(arr, v, rng)
        with pytest.raises(ValueError, match="state and basis dimensions differ"):
            measurement.born_probs(v, arr.basis)


def test_simulate_measurement_frequencies():
    rng = np.random.default_rng(4)
    basis = measurement.MeasurementBasis(haar_unitary(3, rng))
    arr = measurement.build_simulation(basis)
    v = random_state(3, rng)
    p = measurement.born_probs(v, basis)
    trials = 20000
    counts = np.zeros(3)
    for _ in range(trials):
        i, _ = measurement.simulate_measurement(arr, v, rng)
        counts[i] += 1
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) < 3.5 * sigma)


def test_simulate_measurement_repeatable():
    rng = np.random.default_rng(5)
    basis = measurement.MeasurementBasis(haar_unitary(3, rng))
    arr = measurement.build_simulation(basis, theta=rng.uniform(0, 6, 3),
                                       theta_out=rng.uniform(0, 6, 3))
    v = random_state(3, rng)
    for _ in range(500):
        i, out = measurement.simulate_measurement(arr, v, rng)
        j, _ = measurement.simulate_measurement(arr, out, rng)
        assert i == j


def test_simulation_deterministic_given_seed():
    basis = measurement.MeasurementBasis(haar_unitary(3, np.random.default_rng(6)))
    arr = measurement.build_simulation(basis)
    v = random_state(3, np.random.default_rng(7))
    run1 = [measurement.simulate_measurement(arr, v, np.random.default_rng(42))[0]
            for _ in range(1)]
    run2 = [measurement.simulate_measurement(arr, v, np.random.default_rng(42))[0]
            for _ in range(1)]
    assert run1 == run2


def test_expected_value_constant_observable():
    basis = measurement.MeasurementBasis.standard(3)
    obs = measurement.Observable(basis=basis, values=[2.5, 2.5, 2.5])
    v = random_state(3, np.random.default_rng(8))
    assert measurement.expected_value(v, obs) == pytest.approx(2.5, abs=1e-12)


def test_expected_value_diag_pm1():
    basis = measurement.MeasurementBasis.standard(2)
    obs = measurement.Observable(basis=basis, values=[1.0, -1.0])
    v = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    assert measurement.expected_value(v, obs) == pytest.approx(-0.4, abs=1e-12)


def test_expected_value_takes_array_likes():
    obs = measurement.Observable(basis=measurement.MeasurementBasis.standard(2),
                                 values=[1.0, -1.0])
    assert measurement.expected_value([1, 0], obs) == 1.0
    assert measurement.expected_value((0, 1j), obs) == -1.0
    assert_allclose(measurement.expected_value([[1, 0], [0, 1]], obs), [1.0, -1.0])
    with pytest.raises(ValueError, match="squared norm"):
        measurement.expected_value([1, 1], obs)
    with pytest.raises(ValueError, match="state and basis dimensions differ"):
        measurement.expected_value([1, 0, 0], obs)


def test_expected_value_dual_route():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        obs = measurement.Observable(
            basis=measurement.MeasurementBasis(haar_unitary(n, rng)),
            values=rng.normal(size=n))
        v = random_state(n, rng)
        direct = np.sum(obs.values * measurement.born_probs(v, obs.basis))
        quad = np.real(v.conj() @ obs.matrix() @ v)
        assert abs(direct - quad) < 1e-12
        measurement.expected_value(v, obs)  # internal cross-check must not raise


def test_expected_value_basis_rotation_invariant():
    rng = np.random.default_rng(10)
    n = 4
    obs = measurement.Observable(
        basis=measurement.MeasurementBasis(haar_unitary(n, rng)),
        values=rng.normal(size=n))
    v = random_state(n, rng)
    u = haar_unitary(n, rng)
    rotated = measurement.Observable(
        basis=measurement.MeasurementBasis(obs.basis.vectors @ u.T),
        values=obs.values)
    a = measurement.expected_value(v, obs)
    b = measurement.expected_value(u @ v, rotated)
    assert a == pytest.approx(b, abs=1e-10)


def test_observable_spectral_structure():
    rng = np.random.default_rng(11)
    n = 4
    basis = measurement.MeasurementBasis(haar_unitary(n, rng))
    values = np.array([3.0, -1.0, 0.5, 2.0])
    obs = measurement.Observable(basis=basis, values=values)
    mat = obs.matrix()
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    eigvals, eigvecs = np.linalg.eigh(mat)
    assert_allclose(np.sort(eigvals), np.sort(values), atol=1e-9)
    for i, a in enumerate(values):
        k = np.argmin(np.abs(eigvals - a))
        overlap = abs(np.vdot(eigvecs[:, k], basis.vectors[i]))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_degenerate_probs_two_shared_values():
    basis = measurement.MeasurementBasis.standard(3)
    v = np.sqrt([0.2, 0.3, 0.5]).astype(complex)
    grouped = measurement.degenerate_probs(v, basis, [10.0, 20.0, 20.0])
    assert grouped[10.0] == pytest.approx(0.2, abs=1e-12)
    assert grouped[20.0] == pytest.approx(0.8, abs=1e-12)


def test_degenerate_probs_trivial_grouping():
    rng = np.random.default_rng(12)
    basis = measurement.MeasurementBasis(haar_unitary(3, rng))
    v = random_state(3, rng)
    grouped = measurement.degenerate_probs(v, basis, [1.0, 2.0, 3.0])
    p = measurement.born_probs(v, basis)
    for val, pi in zip([1.0, 2.0, 3.0], p):
        assert grouped[val] == pytest.approx(pi, abs=1e-14)


def test_degenerate_probs_all_equal():
    basis = measurement.MeasurementBasis.standard(2)
    grouped = measurement.degenerate_probs(
        np.array([0.6, 0.8], dtype=complex), basis, [5.0, 5.0])
    assert grouped == {5.0: pytest.approx(1.0, abs=1e-12)}


def test_degenerate_probs_groups_by_exact_float_equality():
    basis = measurement.MeasurementBasis.standard(3)
    v = np.sqrt([0.2, 0.3, 0.5]).astype(complex)
    values = [0.1 + 0.2, 0.3, 1.0]  # 0.1 + 0.2 != 0.3 in floating point
    grouped = measurement.degenerate_probs(v, basis, values)
    assert len(grouped) == 3
    assert grouped[0.1 + 0.2] == pytest.approx(0.2) and grouped[0.3] == pytest.approx(0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise(bad):
    basis = measurement.MeasurementBasis.standard(3)
    v = np.sqrt([0.2, 0.3, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="finite"):
        measurement.degenerate_probs(v, basis, [bad, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        measurement.Observable(basis=basis, values=[bad, bad, 1.0])
