import numpy as np
import pytest
from numpy.testing import assert_allclose

from qig import measure


def test_cos_squared_density_is_constant():
    # |F'| / sqrt(F(1-F)) = 2 for F = cos^2(chi), symbolic oracle
    ff = measure.cos_squared_family(1.0, 0.0)
    assert_allclose(measure.induced_measure_density(ff, np.pi / 5), 2.0, rtol=1e-12)
    for chi in np.linspace(0.05, np.pi / 2 - 0.05, 20):
        assert_allclose(measure.induced_measure_density(ff, chi), 2.0, rtol=1e-9)


def test_cos_squared_density_chain_rule():
    ff = measure.cos_squared_family(3.0, 0.0)
    for chi in (0.1, 0.2, 0.4):
        assert_allclose(measure.induced_measure_density(ff, chi), 6.0, rtol=1e-9)


def test_quadratic_density_value():
    ff = measure.EmbeddingFunction(F=lambda x: x**2, dF=lambda x: 2 * x,
                                   domain=(0.0, 1.0))
    # 2x / (x sqrt(1 - x^2)) at x = 1/2
    expected = 2.0 / np.sqrt(1.0 - 0.25)
    assert_allclose(measure.induced_measure_density(ff, 0.5), expected, rtol=1e-12)
    assert_allclose(expected, 2.3094, atol=5e-5)


def test_density_singular_at_boundary():
    ff = measure.cos_squared_family(1.0, 0.0)
    with pytest.raises(measure.SingularDensityError):
        measure.induced_measure_density(ff, 0.0)


def test_translation_invariance_of_cos_squared():
    ff = measure.cos_squared_family(1.0, 0.3)
    grid = np.linspace(0.05, np.pi - 0.05, 200)
    grid = grid[np.abs(np.sin(2 * (grid + 0.3))) > 0.1]  # stay off singularities
    assert measure.density_variation(ff, grid) < 1e-9


def test_translation_invariance_rejects_quadratic():
    ff = measure.EmbeddingFunction(F=lambda x: x**2, dF=lambda x: 2 * x,
                                   domain=(0.1, 0.9))
    grid = np.linspace(0.1, 0.9, 100)
    dens = np.array([measure.induced_measure_density(ff, x) for x in grid])
    assert (dens.max() - dens.min()) / dens.max() > 0.2
    assert measure.density_variation(ff, grid) == (dens.max() - dens.min()) / dens.max()


def test_translation_invariance_rejects_logistic():
    ff = measure.EmbeddingFunction(
        F=lambda x: 0.05 + 0.9 * (1 + np.tanh(x)) / 2,
        dF=lambda x: 0.45 / np.cosh(x) ** 2,
        domain=(-2.0, 2.0))
    grid = np.linspace(-1.9, 1.9, 100)
    assert measure.density_variation(ff, grid) > 0.10


def test_constant_F_is_rejected():
    ff = measure.EmbeddingFunction(F=lambda x: 0.5, dF=lambda x: 0.0,
                                   domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        measure.density_variation(ff, np.linspace(0.1, 0.9, 10))


def test_f_ftilde_pythagorean_identity():
    chi = np.linspace(-5.0, 5.0, 1001)
    f = np.cos(1.7 * chi + 0.4)
    ftilde = np.sin(1.7 * chi + 0.4)
    assert np.max(np.abs(f**2 + ftilde**2 - 1.0)) < 1e-12


def test_ode_from_boundary():
    # F0 = 1 at chi0 = 0 follows cos^2: F(pi/3) = 1/4
    grid = np.array([np.pi / 3])
    sol = measure.solve_F_ode(1.0, 1.0, 0.0, grid, step=1e-4)
    assert_allclose(sol[0], 0.25, atol=1e-6)


def test_ode_backward_branch():
    # F0 = 1/2 at chi0 = pi/4 on the b=0 branch: F(0) = 1
    grid = np.linspace(np.pi / 4, 0.0, 30)
    sol = measure.solve_F_ode(1.0, 0.5, np.pi / 4, grid, step=1e-4)
    assert_allclose(sol[-1], 1.0, atol=1e-6)


def test_ode_matches_closed_form_over_period():
    grid = np.linspace(0.0, 2 * np.pi, 400)
    sol = measure.solve_F_ode(1.0, 1.0, 0.0, grid, step=1e-4)
    assert np.max(np.abs(sol - np.cos(grid) ** 2)) < 1e-6


def test_ode_nonunit_a():
    a, b = 2.5, 0.0
    grid = np.linspace(0.0, 2 * np.pi / a, 300)
    sol = measure.solve_F_ode(a, 1.0, 0.0, grid, step=5e-5)
    assert np.max(np.abs(sol - np.cos(a * grid) ** 2)) < 1e-6


def test_ode_fourth_order_convergence():
    # away from turning points halving the step gains >= 8x
    grid = np.linspace(0.3, np.pi / 2 - 0.3, 40)
    exact = np.cos(grid) ** 2
    errs = []
    for step in (2e-2, 1e-2):
        sol = measure.solve_F_ode(1.0, float(np.cos(0.3) ** 2), 0.3, grid,
                                  step=step, rising=False)
        errs.append(np.max(np.abs(sol - exact)))
    assert errs[0] / errs[1] >= 8.0


def test_ode_rejects_bad_inputs():
    with pytest.raises(ValueError):
        measure.solve_F_ode(0.0, 0.5, 0.0, [0.1])
    with pytest.raises(ValueError):
        measure.solve_F_ode(1.0, 1.5, 0.0, [0.1])
    with pytest.raises(ValueError):
        measure.solve_F_ode(1.0, 0.5, 0.5, [0.1])  # grid before chi0
