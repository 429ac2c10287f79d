"""Every gauge-invariant isometry is unitary or antiunitary.

An orthogonal map on the 2N-real state space that commutes with global
phase shifts decomposes into 2x2 scaled-rotation blocks with a common
reflection parity.  classify() recovers the complex matrix and its
kind; a Monte-Carlo witness checks gauge invariance directly.  Generic
orthogonal matrices fail both.
"""

import numpy as np

from qig import transforms
from qig.sampling import haar_from_ginibre, haar_unitary

rng = np.random.default_rng(7)
v = haar_unitary(3, rng)

m_unitary = transforms.realify_unitary(v)
m_anti = transforms.realify_antiunitary(v)
m_generic = haar_from_ginibre(rng.normal(size=(6, 6)))

for label, m in (("realified unitary", m_unitary),
                 ("realified antiunitary", m_anti),
                 ("generic orthogonal", m_generic)):
    g = transforms.classify(m)
    witness_ok, dev = transforms.gauge_invariance_witness(m, rng=rng)
    print(f"{label:24s} -> classify: {g.kind:20s} witness: "
          f"{'pass' if witness_ok else 'fail'} (deviation {dev:.2e})")
    if g.is_gauge_invariant:
        print(f"{'':24s}    recovered V to {np.max(np.abs(g.v - v)):.2e}")

# composition: antiunitary x antiunitary = unitary
g1 = transforms.classify(m_anti)
g2 = transforms.GaugeMap(kind="antiunitary", v=haar_unitary(3, rng))
print(f"\nantiunitary o antiunitary = {transforms.compose(g1, g2).kind}")
