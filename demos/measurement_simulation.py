"""Simulating an arbitrary measurement with a fixed reference one.

Any projective measurement A' can be simulated by sandwiching the
reference measurement between unitaries: U rotates the target basis
onto the standard one, the reference measurement fires, and V prepares
the post-measurement state.  The result distribution is the Born rule,
independent of the free phases in U and V.
"""

import numpy as np

from qig import measurement
from qig.sampling import haar_unitary

rng = np.random.default_rng(11)
basis = measurement.MeasurementBasis(haar_unitary(3, rng))
v = haar_unitary(3, rng)[:, 0]

p = measurement.born_probs(v, basis)
print(f"Born probabilities: {np.round(p, 4)}")

arr = measurement.build_simulation(basis, theta=rng.uniform(0, 2 * np.pi, 3),
                                   theta_out=rng.uniform(0, 2 * np.pi, 3))
print(f"arrangement probabilities (random free phases): "
      f"{np.round(measurement.arrangement_probs(arr, v), 4)}")

trials = 50_000
u = rng.random((trials, 2))  # per trial: the first measurement's draw, then the repeat's
i, out = measurement.simulate_batch(arr, v, u[:, 0])
j, _ = measurement.simulate_batch(arr, out, u[:, 1])
counts = np.bincount(i, minlength=3)
repeats_agree = np.count_nonzero(i == j)
print(f"frequencies over {trials} trials: {np.round(counts / trials, 4)}")
print(f"repeated measurement reproduced its result {repeats_agree}/{trials} times")

obs = measurement.Observable(basis=basis, values=np.array([1.0, -1.0, -1.0]))
print(f"\ndegenerate observable with values (1, -1, -1):")
print(f"  <A> = {measurement.expected_value(v, obs):.4f}")
grouped = measurement.degenerate_probs(v, basis, obs.values)
print(f"  grouped probabilities: { {k: round(x, 4) for k, x in grouped.items()} }")
