"""Born-rule measurements, their simulation, and Hermitian observables.

Any measurement with orthonormal eigenstates v'_1 ... v'_N can be
simulated by a fixed reference measurement flanked by unitaries:
U maps v'_i to e_i (up to a free phase), the reference measurement is
performed, and V maps the outgoing e_i back to v'_i (up to a free
phase).  Result i then occurs with probability |<v'_i, v>|^2 and no
prediction depends on the free phases.
"""

from dataclasses import dataclass

import numpy as np

from .qspace import as_pure_state

BASIS_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal basis (rows of ``vectors``), one state per result."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("basis must be a square array of row vectors")
        gram = v.conj() @ v.T
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > BASIS_TOL:
            raise ValueError("basis rows are not orthonormal")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self):
        return self.vectors.shape[0]

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
        if a.shape != (self.basis.dim,):
            raise ValueError("need one real value per basis state")
        if not np.isfinite(a).all():
            raise ValueError("observable values must be finite")
        object.__setattr__(self, "values", a)

    def matrix(self):
        v = self.basis.vectors
        return (v.T * self.values) @ v.conj()

    @property
    def is_degenerate(self):
        return np.unique(self.values).size < self.values.size


@dataclass(frozen=True)
class SimulationArrangement:
    """The U / reference-measurement / V sandwich simulating a basis."""

    basis: MeasurementBasis
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        V = np.asarray(self.V, dtype=complex)
        n = self.basis.dim
        eye = np.eye(n)
        if np.max(np.abs(U.conj().T @ U - eye)) > BASIS_TOL:
            raise ValueError("U is not unitary")
        if np.max(np.abs(V.conj().T @ V - eye)) > BASIS_TOL:
            raise ValueError("V is not unitary")
        # U v'_i = e_i and V e_i = v'_i, each up to a free phase
        if np.max(np.abs(np.abs(np.diag(U @ self.basis.vectors.T)) - 1.0)) > BASIS_TOL:
            raise ValueError("U does not map the basis to the standard basis")
        if np.max(np.abs(np.abs(np.diag(self.basis.vectors.conj() @ V)) - 1.0)) > BASIS_TOL:
            raise ValueError("V does not map the standard basis to the basis")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)


def born_probs(v, basis):
    """Result probabilities p_i = |<v'_i, v>|^2."""
    v = as_pure_state(v)
    if v.size != basis.dim:
        raise ValueError("state and basis dimensions differ")
    amps = basis.vectors.conj() @ v
    p = np.abs(amps) ** 2
    return p / p.sum()


def build_simulation(basis, theta=None, theta_out=None):
    """Construct U = sum_i e^{i theta_i} e_i v'_i^dag and V = sum_i e^{i theta'_i} v'_i e_i^dag.

    The phases default to zero; they are physically irrelevant and the
    tests quantify that.
    """
    n = basis.dim
    theta = np.zeros(n) if theta is None else np.asarray(theta, dtype=float)
    theta_out = np.zeros(n) if theta_out is None else np.asarray(theta_out, dtype=float)
    if theta.shape != (n,) or theta_out.shape != (n,):
        raise ValueError("need one phase per result")
    # row i of U is e^{i theta_i} conj(v'_i), so that U v'_i = e^{i theta_i} e_i
    U = np.exp(1j * theta)[:, None] * basis.vectors.conj()
    V = (np.exp(1j * theta_out)[None, :] * basis.vectors.T)
    return SimulationArrangement(basis=basis, U=U, V=V)


def arrangement_probs(arr, v):
    """Exact result distribution |<e_i, U v>|^2 for a state v, or a stack (..., N) of them."""
    v = as_pure_state(v, stacked=True)
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
    p = born_probs(v, obs.basis)
    direct = float(np.sum(obs.values * p))
    quad = float(np.real(v.conj() @ obs.matrix() @ v))
    if abs(direct - quad) > 1e-10:
        raise AssertionError("probability and operator routes disagree")
    return direct


def degenerate_probs(v, basis, values):
    """Born probabilities grouped by shared result value.

    ``values`` lists one finite real value per result, duplicates allowed;
    results sharing a value are physically indistinguishable and their
    probabilities are summed.  Values are grouped by exact float equality,
    as :attr:`Observable.is_degenerate` counts them, so 0.1 + 0.2 and 0.3
    are two groups.  Returns {value: probability}, in ascending value order.
    """
    keys, group = np.unique(Observable(basis=basis, values=values).values, return_inverse=True)
    return dict(zip(keys.tolist(), np.bincount(group, weights=born_probs(v, basis)).tolist()))
