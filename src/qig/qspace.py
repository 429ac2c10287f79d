"""States as unit vectors in 2N-dimensional real Euclidean space.

A system whose measurements have N results realizes 2N underlying
outcomes; result i coarse-grains outcomes 2i-1 and 2i.  The state is a
unit vector Q with outcome probabilities P_q = Q_q^2, and carries a
binary polarity sign(Q_q) per outcome with nonzero probability.  In the
phase representation Q = (sqrt(p_1) cos(phi_1), sqrt(p_1) sin(phi_1),
..., sqrt(p_N) sin(phi_N)), and the complex form v_i = sqrt(p_i)
e^{i phi_i} packs each outcome pair into one complex amplitude.  Phases
are a float array with NaN exactly at the zero-probability results,
so composition and evolution act on whole phase vectors.  Leading axes
hold a stack of states, and every function here acts on each.
"""

from dataclasses import dataclass

import numpy as np

from .simplex import _check_total, as_prob_vec

TWO_PI = 2.0 * np.pi


def as_qvector(q):
    """Validate a 2N-real unit state vector, or a stack (..., 2N) of them."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 0 or q.shape[-1] % 2 != 0 or q.shape[-1] == 0:
        raise ValueError("state vector must have an even, positive length on the last axis")
    _check_total(np.add.reduce(q * q, axis=-1), 1, "state vector has squared norm")
    return q


def as_pure_state(v):
    """Validate an N-complex unit vector, or a stack (..., N) of them."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("state must be a nonempty complex vector")
    _check_total(np.add.reduce(np.abs(v) ** 2, axis=-1), 1, "state has squared norm")
    return v


def _states(x):
    """Uniform states (x[0] + i x[1]) / |x[0] + i x[1]|, normed over the last axis, from normals."""
    z = x[0] + 1j * x[1]
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@dataclass(frozen=True)
class PhaseRep:
    """State as result probabilities plus one phase per nonzero result.

    ``p`` is a read-only copy of the probabilities and ``phi`` a
    read-only float array, NaN exactly where ``p`` is zero --
    the phase is undefined there, not merely unknown.  ``None`` entries
    on input are read as NaN.  Present phases must be finite and are
    stored reduced to [0, 2pi), in the convention phi = a chi + b with a = 1, b = 0.
    ``p`` and ``phi`` of shape (..., N) hold a stack of states.
    """

    p: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        p = as_prob_vec(np.array(self.p, dtype=float))  # a copy: the caller keeps theirs
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != p.shape:
            raise ValueError("p and phi must have the same length")
        live = p.astype(bool)  # p > 0, since p >= 0
        if np.count_nonzero((np.isnan(phi) == live) | np.isinf(phi)):
            raise ValueError("phases must be finite where p > 0 and NaN where p == 0")
        # reduce twice: x % 2pi rounds to 2pi for tiny negative x
        phi = phi % TWO_PI % TWO_PI
        p.flags.writeable = phi.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "phi", phi)

    @property
    def dim(self):
        return self.p.shape[-1]


def from_phase_rep(rep):
    """Build the 2N-real state vector from a phase representation."""
    r = np.sqrt(rep.p)
    phi = np.fmax(rep.phi, 0.0)  # 0 where absent (NaN); present phases are >= 0
    q = np.empty(r.shape[:-1] + (2 * rep.dim,))
    q[..., 0::2] = r * np.cos(phi)
    q[..., 1::2] = r * np.sin(phi)
    return q


def to_phase_rep(q):
    """Read off result probabilities and phases from a 2N-real state vector.

    Inverse of :func:`from_phase_rep` up to reduction of phases mod 2pi.
    """
    q = as_qvector(q)
    re, im = q[..., 0::2], q[..., 1::2]
    p = re**2 + im**2
    phi = np.where(p > 0, np.arctan2(im, re), np.nan)
    # guard against rounding pushing the sum off 1
    p = p / p.sum(axis=-1, keepdims=True)
    return PhaseRep(p=p, phi=phi)


def outcome_probs(q):
    """The 2N outcome probabilities P_q = Q_q^2."""
    q = as_qvector(q)
    P = q * q
    return P / P.sum(axis=-1, keepdims=True)


def gauge_shift(v, phi0):
    """Multiply a complex state by the global phase e^{i phi0}.

    Adds phi0 to every phase; no outcome probability changes, so no
    prediction changes -- this is the global gauge freedom.
    """
    v = as_pure_state(v)
    return np.exp(1j * phi0) * v


def to_complex(q):
    """Complex form v_i = Q_{2i-1} + i Q_{2i}."""
    q = as_qvector(q)
    return q[..., 0::2] + 1j * q[..., 1::2]


def from_complex(v):
    """Real form (Re v_1, Im v_1, ..., Re v_N, Im v_N); exact inverse of to_complex."""
    v = as_pure_state(v)
    q = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    q[..., 0::2] = v.real
    q[..., 1::2] = v.imag
    return q
