"""Born-rule measurements, their simulation, and Hermitian observables.

Any measurement with orthonormal eigenstates v'_1 ... v'_N can be
simulated by a fixed reference measurement flanked by unitaries:
U maps v'_i to e_i (up to a free phase), the reference measurement is
performed, and V maps the outgoing e_i back to v'_i (up to a free
phase).  Result i then occurs with probability |<v'_i, v>|^2 and no
prediction depends on the free phases.  Leading axes hold a stack of
states, bases, observables or arrangements; :func:`simulate_batch` takes
one arrangement, and :func:`degenerate_probs` one state and one basis.
"""

from dataclasses import dataclass

import numpy as np

from .qspace import as_pure_state
from .transforms import _as_unitary


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal basis (rows of ``vectors``), one state per result, or a stack (..., N, N).

    The rows are orthonormal iff ``vectors`` is unitary: gauge maps' test validates them.
    """

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _as_unitary(self.vectors))

    @property
    def dim(self):
        return self.vectors.shape[-1]

    @classmethod
    def standard(cls, n):
        return cls(np.eye(n, dtype=complex))


@dataclass(frozen=True)
class Observable:
    """A measurement basis with one finite real value per result.

    Equivalent to the Hermitian matrix sum_i a_i v'_i v'_i^dag, whose
    eigenvalues are the values and eigenvectors the basis states.
    """

    basis: MeasurementBasis
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.shape != self.basis.vectors.shape[:-1]:
            raise ValueError("need one real value per basis state")
        if not np.isfinite(a).all():
            raise ValueError("observable values must be finite")
        object.__setattr__(self, "values", a)

    def matrix(self):
        v = self.basis.vectors
        return (np.swapaxes(v, -1, -2) * self.values[..., None, :]) @ v.conj()


@dataclass(frozen=True)
class SimulationArrangement:
    """The U / reference-measurement / V sandwich simulating a basis (see build_simulation)."""

    basis: MeasurementBasis
    U: np.ndarray
    V: np.ndarray


def born_probs(v, basis):
    """Result probabilities p_i = |<v'_i, v>|^2."""
    v = as_pure_state(v)
    if v.shape[-1] != basis.dim:
        raise ValueError("state and basis dimensions differ")
    p = np.abs((basis.vectors.conj() @ v[..., None])[..., 0]) ** 2
    return p / p.sum(axis=-1, keepdims=True)


def build_simulation(basis, theta=None, theta_out=None):
    """Construct U = sum_i e^{i theta_i} e_i v'_i^dag and V = sum_i e^{i theta'_i} v'_i e_i^dag.

    The phases default to zero; they are physically irrelevant and the
    tests quantify that.  U and V are unitary by construction.
    """
    shape = basis.vectors.shape[:-1]
    theta = np.zeros(shape) if theta is None else np.asarray(theta, dtype=float)
    theta_out = np.zeros(shape) if theta_out is None else np.asarray(theta_out, dtype=float)
    if theta.shape != shape or theta_out.shape != shape:
        raise ValueError("need one phase per result")
    # row i of U is e^{i theta_i} conj(v'_i), so that U v'_i = e^{i theta_i} e_i
    U = np.exp(1j * theta)[..., :, None] * basis.vectors.conj()
    V = np.exp(1j * theta_out)[..., None, :] * np.swapaxes(basis.vectors, -1, -2)
    return SimulationArrangement(basis=basis, U=U, V=V)


def arrangement_probs(arr, v):
    """Exact result distribution |<e_i, U v>|^2 for a state v, or a stack (..., N) of them."""
    v = as_pure_state(v)
    if v.shape[-1] != arr.U.shape[-1]:
        raise ValueError("state and arrangement dimensions differ")
    p = np.abs((arr.U @ v[..., None])[..., 0]) ** 2
    return p / p.sum(axis=-1, keepdims=True)


def simulate_measurement(arr, v, rng):
    """Run the arrangement once: returns (result index, output state).

    The result is drawn by inverse CDF on the exact distribution; the
    output state is V e_i, i.e. v'_i up to a phase.
    """
    i, out = simulate_batch(arr, v, rng.random())
    return int(i), out


def simulate_batch(arr, v, u):
    """:func:`simulate_measurement` once per uniform in ``u``: result indices and output states.

    ``v`` is one state for all runs, its distribution computed once, or one state per run.
    """
    if arr.U.ndim != 2:
        raise ValueError("simulate_batch takes one arrangement")
    p = arrangement_probs(arr, v)
    # inverse CDF: the number of CDF values below u; the last result takes
    # the rest, so that rounding below 1 cannot give an index past it
    cdf = np.cumsum(p, axis=-1)[..., :-1]
    if cdf.ndim == 1:  # one state: one search for all the uniforms
        i = cdf.searchsorted(u)
    elif p.shape[:-1] == np.shape(u):
        i = (cdf < np.asarray(u)[..., None]).sum(axis=-1)
    else:
        raise ValueError("need one state, or one state per uniform")
    return i, arr.V.T.take(i, axis=0)  # a copy, shaped (..., N) for any shape of i


def expected_value(v, obs):
    """sum_i a_i p_i, cross-checked against v^dag A v.

    Both computation routes are evaluated; a discrepancy beyond 1e-10
    indicates an internal inconsistency and raises.
    """
    v = np.asarray(v, dtype=complex)
    p = born_probs(v, obs.basis)
    direct = np.sum(obs.values * p, axis=-1)
    quad = np.real((v.conj()[..., None, :] @ obs.matrix() @ v[..., None])[..., 0, 0])
    if np.any(np.abs(direct - quad) > 1e-10):
        raise AssertionError("probability and operator routes disagree")
    return direct if direct.ndim else float(direct)


def degenerate_probs(v, basis, values):
    """Born probabilities grouped by shared result value.

    ``values`` lists one finite real value per result, duplicates allowed;
    results sharing a value are physically indistinguishable and their
    probabilities are summed.  Values are grouped by exact float equality,
    so 0.1 + 0.2 and 0.3 are two groups.  Returns {value: probability}, in
    ascending value order.
    """
    if basis.vectors.ndim != 2 or np.ndim(v) != 1:
        raise ValueError("degenerate_probs takes one state and one basis")
    keys, group = np.unique(Observable(basis=basis, values=values).values, return_inverse=True)
    return dict(zip(keys.tolist(), np.bincount(group, weights=born_probs(v, basis)).tolist()))
