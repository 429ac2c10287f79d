"""Determination of the sphere-embedding functions from measure invariance.

Writing the per-result pair of state components as (sqrt(p) f(chi),
sqrt(p) ftilde(chi)) with f^2 + ftilde^2 = 1, the metric over states
induces a measure over chi proportional to F'(chi) / sqrt(F(1-F)) with
F = f^2.  Requiring that measure to be translation invariant in chi
forces F' / sqrt(F(1-F)) = 2a, whose solutions are F = cos^2(a chi + b).
This module evaluates the induced density and its relative variation on
a grid, and integrates the ODE numerically (with branch switching at
the F in {0,1} turning points) to compare against the closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

BOUNDARY_TOL = 1e-10


class SingularDensityError(ValueError):
    """Raised when the induced density is evaluated where F(1-F) = 0."""


@dataclass(frozen=True)
class EmbeddingFunction:
    """A candidate F = f^2 with its derivative on a closed domain."""

    F: callable
    dF: callable
    domain: tuple

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("domain must be a nondegenerate interval")


def cos_squared_family(a=1.0, b=0.0):
    """The translation-invariant family F(chi) = cos^2(a chi + b) over one period."""
    if a == 0:
        raise ValueError("a must be nonzero (f must not be constant)")
    return EmbeddingFunction(
        F=lambda x: np.cos(a * x + b) ** 2,
        dF=lambda x: -2.0 * a * np.cos(a * x + b) * np.sin(a * x + b),
        domain=(0.0, 2.0 * np.pi / abs(a)),
    )


def induced_measure_density(ff, chi):
    """|F'(chi)| / sqrt(F(chi)(1 - F(chi))) at a point or array ``chi``, up to a constant.

    The overall constant is arbitrary and dropped; the absolute value is
    reported since a measure density carries no sign.
    """
    x, F = np.broadcast_arrays(chi, ff.F(chi))  # arrays, so ``~`` negates even a bool
    bad = ~((0.0 < F) & (F < 1.0))  # also true for NaN
    if bad.any():
        raise SingularDensityError(f"F({x[bad][0]}) = {F[bad][0]} is at the boundary of [0, 1]")
    return np.abs(ff.dF(chi)) / np.sqrt(F * (1.0 - F))


def density_variation(ff, grid):
    """Relative variation (max - min) / max of the induced density on ``grid``.

    The ratio drops the arbitrary normalization constant; it is 0 exactly
    for a translation-invariant density.  A grid point where the density
    is singular raises; an identically-zero derivative (constant F) is
    rejected outright since f must not be constant.
    """
    dens = induced_measure_density(ff, np.asarray(grid, dtype=float))
    if np.max(dens) == 0.0:
        raise ValueError("F is constant on the grid; f must not be constant")
    return (np.max(dens) - np.min(dens)) / np.max(dens)


def solve_F_ode(a, F0, chi0, grid, step=1e-4, rising=None):
    """Integrate dF/dchi = s * 2a sqrt(F(1-F)) along ``grid`` from (chi0, F0).

    ``grid`` must be strictly ascending with grid[0] >= chi0, and ``a``,
    ``chi0``, ``step`` and the grid points must be finite.  The sign branch
    ``s`` starts at +1 (or as given by ``rising``) and is switched whenever
    F reaches 0 or 1 within ``BOUNDARY_TOL``.  The square-root right-hand
    side is not Lipschitz at the turning points, so close to a boundary the
    integrator crosses analytically: with u the distance to the boundary,
    the ODE linearizes to d(sqrt u)/dchi = -/+ a, which places the turning
    point at chi* = chi + sqrt(u)/|a| and restarts the opposite branch with
    u = a^2 (chi - chi*)^2.  The stepping loop holds only Python floats:
    NumPy scalars give the same IEEE results at several times the cost per
    step.

    Returns the array of F values on the grid points.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    if (np.diff(grid) <= 0).any():
        raise ValueError("grid must be strictly ascending")
    if grid[0] < chi0 - 1e-15:
        raise ValueError("grid must start at or after chi0")
    if not 0.0 <= F0 <= 1.0:
        raise ValueError("F0 must lie in [0, 1]")
    if step <= 0:
        raise ValueError("step must be positive")
    # else an infinite target or chi0 = -inf never ends the stepping loop,
    # and a NaN or an infinite a returns NaN, F0 or F outside [0, 1]
    for name, value in (("a", a), ("step", step), ("chi0", chi0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not np.isfinite(grid).all():
        raise ValueError("grid must be finite")

    aa = abs(a)
    # analytic-crossing trigger; well above BOUNDARY_TOL so RK4 never
    # operates where the sqrt derivative blows up
    switch = max(BOUNDARY_TOL, (10.0 * aa * step) ** 2)
    aa, step, switch = float(aa), float(step), float(switch)  # no NumPy scalar in the loop

    s = 1.0 if rising is None else (1.0 if rising else -1.0)
    if rising is None:
        # a state starting at a boundary must move into the interior
        if F0 >= 1.0 - switch:
            s = -1.0
        elif F0 <= switch:
            s = 1.0

    out = []
    chi, F = float(chi0), float(F0)
    # turning-point bookkeeping: when set, F follows the local quadratic
    # u = a^2 (chi - chi_star)^2 off the boundary at ``level``
    chi_star, level = None, None
    if F0 >= 1.0 - BOUNDARY_TOL:
        chi_star, level, s = chi, 1.0, -1.0
    elif F0 <= BOUNDARY_TOL:
        chi_star, level, s = chi, 0.0, 1.0

    # comparisons stand in for min and max, whose calls cost more than the
    # arithmetic of a step; each keeps the operand the builtin would return
    sqrt = math.sqrt
    c = s * 2.0 * aa  # the right-hand side is c sqrt(F(1-F))
    for target in grid.tolist():
        end = target - 1e-15
        while chi < end:
            h = target - chi
            if not h < step:
                h = step
            if chi_star is not None:
                # ride the local quadratic until safely interior
                u = (aa * (chi + h - chi_star)) ** 2
                F = (1.0 - u) if level == 1.0 else u
                chi += h
                if u > switch:
                    chi_star, level = None, None
                continue
            u = 1.0 - F
            if not u < F:
                u = F
            if u < switch:
                # locate the turning point analytically and hop over it
                boundary = 1.0 if F > 0.5 else 0.0
                approaching = (s > 0) == (boundary == 1.0)
                root = sqrt(0.0 if u < 0.0 else u) / aa
                level = boundary
                if approaching:
                    chi_star = chi + root
                    s = -s
                    c = s * 2.0 * aa
                    continue
                # receding from the boundary: same quadratic, no flip
                chi_star = chi - root
                continue
            # RK4 runs only where u = min(F, 1 - F) >= switch >= (10 |a| step)^2,
            # so |a| h <= sqrt(u) / 10.  A stage point is F plus h/2 or h times
            # the slope 2 |a| sqrt(G (1 - G)) at the stage before, and
            # G (1 - G) <= min(G, 1 - G); so the stages lie within 0.1 u,
            # 0.11 u and 0.22 u of F, inside (0, 1), where G (1 - G) > 0 needs
            # no clamp.  Non-finite input, which could break this, is rejected.
            hh = 0.5 * h
            k1 = c * sqrt(F * (1.0 - F))
            G = F + hh * k1
            k2 = c * sqrt(G * (1.0 - G))
            G = F + hh * k2
            k3 = c * sqrt(G * (1.0 - G))
            G = F + h * k3
            k4 = c * sqrt(G * (1.0 - G))
            F += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if F < 0.0:
                F = 0.0
            elif F > 1.0:
                F = 1.0
            chi += h
        if chi_star is not None:
            u = (aa * (chi - chi_star)) ** 2
            out.append((1.0 - u) if level == 1.0 else u)
        else:
            out.append(F)
    return np.array(out)
