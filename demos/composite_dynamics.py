"""Composite systems and stationary dynamics.

Probabilities multiply and phases add when systems combine, which is
the Kronecker product in complex form.  A definite-energy state evolves
by a uniform phase drift, and the drift rate matches the classical
Hamilton-Jacobi action through S = alpha chi.
"""

import numpy as np

from qig import composite, dynamics, qspace

s1 = qspace.PhaseRep(p=[0.25, 0.75], phi=(0.0, 1.0))
s2 = qspace.PhaseRep(p=[0.5, 0.5], phi=(0.2, 2.2))
joint = composite.compose_phase_reps(s1, s2)
print(f"composite probabilities: {np.round(joint.p, 4)}")
print(f"composite phases:        {np.round(joint.phi, 4)}")

v = composite.tensor(qspace.to_complex(qspace.from_phase_rep(s1)),
                     qspace.to_complex(qspace.from_phase_rep(s2)))
dual = qspace.to_complex(qspace.from_phase_rep(joint))
print(f"Kronecker route agrees to {np.max(np.abs(v - dual)):.2e}")

resid = composite.energy_additivity_check(s1, s2, e1=1.3, e2=-0.4, dt=0.8,
                                          alpha=1.0)
print(f"energy additivity residual (E'' = E1 + E2): {resid:.2e}")

print("\nfree-particle Hamilton-Jacobi residuals (grid halving):")
for h in (0.02, 0.01):
    n = int(round(3.6 / h)) + 1

    def provider(t, h=h, n=n):
        return dynamics.spreading_free_particle_state(1.0, h=h, x0=-1.8, n=n,
                                                      t=t, width=0.2)

    cont, hj = dynamics.hj_residual(provider, t=1.0, dt=h)
    print(f"  h = {h}: continuity {cont:.3e}, HJ {hj:.3e}")
print("  (both shrink ~4x per halving: second-order discretization)")
