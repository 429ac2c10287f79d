import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    # F0 = 1/2 at chi0 = pi/4 on the b=0 branch: F(0) = 1.  A descending grid
    # is refused; backwards is forwards in chi' = 2 chi0 - chi on the other branch
    chi0 = np.pi / 4
    grid = np.linspace(chi0, 0.0, 30)
    with pytest.raises(ValueError, match="strictly ascending"):
        measure.solve_F_ode(1.0, 0.5, chi0, grid, step=1e-4)
    sol = measure.solve_F_ode(1.0, 0.5, chi0, 2 * chi0 - grid, step=1e-4, rising=True)
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
    for grid in ([1.0, np.nextafter(1.0, 0.0)], [1.0, 1.0], [1.0, 1.5, 1.2]):
        with pytest.raises(ValueError, match="strictly ascending"):
            measure.solve_F_ode(1.0, 0.5, 1.0, grid)
    # unchecked, non-finite input would give NaN, F0 or F = inf, or never return
    for args, kwargs, message in [
            ((np.nan, 0.5, 0.0, [0.1]), {}, "a must be finite"),
            ((np.inf, 0.5, 0.0, [0.1]), {}, "a must be finite"),
            ((-np.inf, 0.5, 0.0, [0.1]), {}, "a must be finite"),
            ((1.0, 0.5, 0.0, [0.1]), {"step": np.nan}, "step must be finite"),
            ((1.0, 0.5, 0.0, [0.1]), {"step": np.inf}, "step must be finite"),
            ((1.0, 0.5, np.nan, [0.1]), {}, "chi0 must be finite"),
            ((1.0, 0.5, np.nan, [0.0, 0.1]), {}, "chi0 must be finite"),
            ((1.0, 0.5, -np.inf, [0.1]), {}, "chi0 must be finite"),
            ((1.0, 0.5, 0.0, [np.nan]), {}, "grid must be finite"),
            ((1.0, 0.5, 0.0, [0.1, np.nan, 0.3]), {}, "grid must be finite")]:
        with pytest.raises(ValueError, match=message):
            measure.solve_F_ode(*args, **kwargs)
    # an infinite target is never reached, so without its check the call
    # hangs: run it in a process that a timeout can stop
    code = ("import numpy as np\n"
            "from qig import measure\n"
            "try:\n"
            "    measure.solve_F_ode(1.0, 0.5, 0.0, [0.0, np.inf])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = str(Path(measure.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=30, check=True).stdout
    assert out == "grid must be finite\n"


def reference_solve_F_ode(a, F0, chi0, grid, step=1e-4, rising=None):
    """``measure.solve_F_ode`` as it was when its loop ran on NumPy scalars, kept verbatim."""
    BOUNDARY_TOL = measure.BOUNDARY_TOL
    if a == 0:
        raise ValueError("a must be nonzero")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    if grid.size > 1 and np.all(np.diff(grid) < 0):
        # integrate backwards by reflecting: chi -> 2 chi0 - chi flips
        # the sign branch but leaves the trajectory otherwise unchanged
        flipped = None if rising is None else not rising
        return reference_solve_F_ode(a, F0, chi0, 2.0 * chi0 - grid, step=step, rising=flipped)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly monotone")
    if grid[0] < chi0 - 1e-15:
        raise ValueError("grid must start at or after chi0")
    if not 0.0 <= F0 <= 1.0:
        raise ValueError("F0 must lie in [0, 1]")
    if step <= 0:
        raise ValueError("step must be positive")

    aa = abs(a)
    # analytic-crossing trigger; well above BOUNDARY_TOL so RK4 never
    # operates where the sqrt derivative blows up
    switch = max(BOUNDARY_TOL, (10.0 * aa * step) ** 2)

    def rhs(F, s):
        return s * 2.0 * aa * math.sqrt(max(F * (1.0 - F), 0.0))

    s = 1.0 if rising is None else (1.0 if rising else -1.0)
    if rising is None:
        # a state starting at a boundary must move into the interior
        if F0 >= 1.0 - switch:
            s = -1.0
        elif F0 <= switch:
            s = 1.0

    out = np.empty_like(grid)
    chi, F = float(chi0), float(F0)
    # turning-point bookkeeping: when set, F follows the local quadratic
    # u = a^2 (chi - chi_star)^2 off the boundary at ``level``
    chi_star, level = None, None
    if F0 >= 1.0 - BOUNDARY_TOL:
        chi_star, level, s = chi, 1.0, -1.0
    elif F0 <= BOUNDARY_TOL:
        chi_star, level, s = chi, 0.0, 1.0

    for k, target in enumerate(grid):
        while chi < target - 1e-15:
            h = min(step, target - chi)
            if chi_star is not None:
                # ride the local quadratic until safely interior
                u = (aa * (chi + h - chi_star)) ** 2
                F = (1.0 - u) if level == 1.0 else u
                chi += h
                if u > switch:
                    chi_star, level = None, None
                continue
            u = min(F, 1.0 - F)
            if u < switch:
                # locate the turning point analytically and hop over it
                boundary = 1.0 if F > 0.5 else 0.0
                approaching = (s > 0) == (boundary == 1.0)
                if approaching:
                    chi_star = chi + np.sqrt(max(u, 0.0)) / aa
                    level = boundary
                    s = -s
                    continue
                # receding from the boundary: same quadratic, no flip
                chi_star = chi - np.sqrt(max(u, 0.0)) / aa
                level = boundary
                continue
            k1 = rhs(F, s)
            k2 = rhs(F + 0.5 * h * k1, s)
            k3 = rhs(F + 0.5 * h * k2, s)
            k4 = rhs(F + h * k3, s)
            F += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            F = min(max(F, 0.0), 1.0)
            chi += h
        if chi_star is not None:
            u = (aa * (chi - chi_star)) ** 2
            out[k] = (1.0 - u) if level == 1.0 else u
        else:
            out[k] = F
    return out


@st.composite
def ode_problems(draw):
    """Arguments of ``solve_F_ode``: boundary and interior starts, ascending grids."""
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.25, 2.5))
    if draw(st.booleans()):
        a = np.float64(a)  # a NumPy scalar must not leak into the loop
    step = draw(st.floats(1e-3, 5e-2))
    near = min(0.5, max(measure.BOUNDARY_TOL, (10.0 * abs(a) * step) ** 2))
    tol = measure.BOUNDARY_TOL
    F0 = draw(st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, tol), st.floats(1.0 - tol, 1.0),  # within BOUNDARY_TOL
        st.floats(0.0, near), st.floats(1.0 - near, 1.0),  # within switch
        st.floats(0.0, 1.0)))
    chi0 = draw(st.floats(-3.0, 3.0))
    # at most 0.5 / step <= 500 steps: the reference costs about 3 us a step
    ticks = draw(st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True))
    offsets = np.sort(ticks) * (0.5 / 100)
    grid = chi0 + offsets
    rising = draw(st.sampled_from([None, True, False]))
    return (a, F0, chi0, grid), {"step": step, "rising": rising}


def outcome(fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, database=None, max_examples=150)
@given(ode_problems())
def test_ode_matches_reference_bit_for_bit(problem):
    args, kwargs = problem
    expected = outcome(reference_solve_F_ode, args, kwargs)
    got = outcome(measure.solve_F_ode, args, kwargs)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
