"""Composite systems: probabilities multiply, phases add.

Two subsystems with states (p_i; phi_i) and (p'_j; phi'_j) compose to
(p_i p'_j; phi_i + phi'_j) at the flattened index l = N'(i-1) + j.  In
complex form this is exactly the Kronecker product of the state
vectors.  Leading axes hold a stack of pairs, composed pair by pair.
"""

import numpy as np

from .dynamics import evolve_stationary
from .measurement import MeasurementBasis, Observable
from .qspace import TWO_PI, PhaseRep, as_pure_state


def compose_phase_reps(s1, s2):
    """Composite phase representation: p''_l = p_i p'_j, phi''_l = phi_i + phi'_j.

    Entries with zero probability, underflowed products included, get an
    absent (NaN) phase.
    """
    p = s1.p[..., :, None] * s2.p[..., None, :]
    p = p.reshape(p.shape[:-2] + (-1,))
    p /= p.sum(axis=-1, keepdims=True)
    phi = (s1.phi[..., :, None] + s2.phi[..., None, :]).reshape(p.shape)
    if np.count_nonzero(p) < p.size:  # a product of nonzero probabilities can underflow
        phi[p == 0] = np.nan
    return PhaseRep(p=p, phi=phi)


def tensor(v1, v2):
    """Kronecker product of two complex states: entry N2 i + j is v1[i] v2[j] (0-based)."""
    v = as_pure_state(v1)[..., :, None] * as_pure_state(v2)[..., None, :]
    return v.reshape(v.shape[:-2] + (-1,))


def subsystem_observable(obs, n_other):
    """Lift an observable of the first factor to the composite: A (x) I.

    The lifted observable keeps the original values, each with
    multiplicity ``n_other`` -- a degenerate measurement on the
    composite whose expectation on product states ignores the other
    factor, of dimension ``n_other`` >= 1.
    """
    if n_other < 1:
        raise ValueError("the other factor's dimension must be at least 1")
    eye = np.eye(n_other, dtype=complex)
    rows, values = np.kron(obs.basis.vectors, eye), np.repeat(obs.values, n_other, axis=-1)
    return Observable(basis=MeasurementBasis(rows), values=values)


def energy_additivity_check(s1, s2, e1, e2, dt, alpha):
    """Max phase discrepancy between evolve-then-compose and compose-then-evolve.

    Each subsystem of definite energy evolves by phi_i -> phi_i -
    E dt / alpha; the composite must evolve identically with energy
    e1 + e2.  Returns the maximum discrepancy mod 2pi over composite
    entries (0 for full-support states, by additivity of phase shifts),
    one per pair of a stack.
    """
    first = compose_phase_reps(
        evolve_stationary(s1, e1, dt, alpha),
        evolve_stationary(s2, e2, dt, alpha),
    )
    second = evolve_stationary(compose_phase_reps(s1, s2), e1 + e2, dt, alpha)
    live = first.p > 0
    d = np.abs(np.where(live, first.phi - second.phi, 0.0)) % TWO_PI
    dev = np.minimum(d, TWO_PI - d).max(axis=-1)
    dev = np.where((live == (second.p > 0)).all(axis=-1), dev, np.pi)  # mismatch: maximal
    return dev if dev.ndim else float(dev)
