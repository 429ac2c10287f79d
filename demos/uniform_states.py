"""The uniform measure on pure states and what preserves it.

Normalizing 2N independent Gaussians samples the rotation-invariant
measure on the unit sphere of the real state space.  Unitary and
antiunitary maps push it to itself; a nonlinear map does not.
"""

import numpy as np

from qig import sampling, transforms

n = 3
states = sampling.sample_uniform(n, 100_000, np.random.default_rng(1))
print(f"sampled {states.shape[0]} uniform states of dimension {n}")
print(f"mean |v_0|^2 = {np.mean(np.abs(states[:, 0]) ** 2):.4f} (exact: 1/{n})")

rng = np.random.default_rng(2)
g = transforms.GaugeMap(kind="unitary", v=sampling.haar_unitary(n, rng))

dev = sampling.metric_invariance_check(g, pairs=2000, rng=np.random.default_rng(3))
print(f"\nmetric invariance under a random unitary: worst deviation {dev:.2e}")

print(f"chi-squared uniformity, Bonferroni-adjusted min p-value "
      f"(uniform unless at most {sampling.SIGNIFICANCE}):")
report = sampling.measure_invariance_check(g, samples=100_000, bins=50,
                                           rng=np.random.default_rng(4))
print(f"  pushed by the unitary:       {report['adjusted_p']:.3f}")
control = sampling.pushforward_uniformity(
    lambda s: s ** 2, n, samples=100_000, bins=50, rng=np.random.default_rng(5))
print(f"  componentwise squaring:      {control['adjusted_p']:.2e}")
