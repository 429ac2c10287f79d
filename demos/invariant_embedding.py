"""Why cos^2?

An embedding F(chi) of a one-parameter family of states into outcome
probabilities induces a measure on the parameter.  Demanding that this
measure be translation invariant forces F' = +-2a sqrt(F(1-F)), whose
solutions are exactly F = cos^2(a chi + b).  We solve the ODE
numerically, compare with the closed form, and show that other smooth
embeddings fail the invariance test.
"""

import numpy as np

from qig import measure

grid = np.linspace(0.0, 2 * np.pi, 400)
sol = measure.solve_F_ode(1.0, 1.0, 0.0, grid, step=1e-4)
err = np.max(np.abs(sol - np.cos(grid) ** 2))
print(f"ODE solution vs cos^2 over one period: max error {err:.2e}")

ff = measure.cos_squared_family(1.0, 0.0)
for chi in (0.3, 0.8, 1.3):
    print(f"  induced density at chi = {chi}: {measure.induced_measure_density(ff, chi):.12f}")
print("  (constant = 2|a|, so the measure is translation invariant)")

quad = measure.EmbeddingFunction(F=lambda x: x ** 2, dF=lambda x: 2 * x,
                                 domain=(0.1, 0.9))
pts = np.linspace(0.15, 0.85, 200)
dens = measure.induced_measure_density(quad, pts)
print(f"\nquadratic embedding F = chi^2:")
print(f"  density ranges over [{dens.min():.3f}, {dens.max():.3f}]"
      f" ({measure.density_variation(quad, pts):.0%} variation; 0 means invariant)")
