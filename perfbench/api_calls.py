"""The ``api-calls`` workload: single scalar calls into the qig library.

One caller makes one call at a time (a closed loop) on inputs made with
plain numpy from the seed, at n in {2, 3, 5}, for unitary, antiunitary
and generic orthogonal maps.  Every result is checked against an
independent plain-numpy reference.  The loop avoids ``StateSampler``,
``sample_uniform``, ``realify_antiunitary``, ``measure_invariance_check``
and tuple-built ``PhaseRep``, whose signatures are planned to change.
"""

import time
from dataclasses import dataclass

import numpy as np

import hostspeed

DIMS = (2, 3, 5)
KINDS = ("unitary", "antiunitary", "orthogonal")
CASES_PER_KIND = 16
WITNESS_TRIALS = 8
ODE_GRID = np.linspace(0.0, 0.1, 4)
ODE_STEP = 2e-3
TOL = 1e-9
# near a turning point the solver follows a local quadratic whose error
# grows with the step; at this step it stays below 1e-5 for a <= 2
ODE_TOL = 1e-4

# call labels, as "<module>.<function>", in the order a case makes them
CALLS = (
    "simplex.info_metric_ds2", "simplex.geodesic_distance",
    "qspace.to_phase_rep", "qspace.from_phase_rep",
    "transforms.classify", "transforms.realify", "transforms.gauge_invariance_witness",
    "measurement.born_probs", "measurement.simulate_measurement",
    "composite.tensor", "composite.compose_phase_reps",
    "dynamics.evolve_stationary", "sampling.haar_unitary", "measure.solve_F_ode",
)


@dataclass
class Case:
    """Inputs of one case; ``m`` realizes ``u`` (or is generic when kind is orthogonal)."""

    n: int
    kind: str
    u: np.ndarray
    m: np.ndarray
    v: np.ndarray
    v2: np.ndarray
    p: np.ndarray       # |v|^2
    p2: np.ndarray      # |v2|^2
    q: np.ndarray       # real form of v
    dp: np.ndarray      # tangent displacement at p
    ode: tuple          # (a, b): the solution is cos^2(a chi + b)
    evolve: tuple       # (energy, dt, alpha)
    basis: object = None
    arrangement: object = None
    rep: object = None
    rep2: object = None


def _haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _state(n, rng):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def _real_form(v):
    q = np.empty(2 * v.size)
    q[0::2], q[1::2] = v.real, v.imag
    return q


def _realify(u, anti):
    """2N x 2N real matrix of v -> u v, or of v -> u conj(v) when ``anti``."""
    n = u.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[0::2, 0::2] = u.real
    m[1::2, 0::2] = u.imag
    m[0::2, 1::2] = u.imag if anti else -u.imag
    m[1::2, 1::2] = -u.real if anti else u.real
    return m


def make_cases(seed, qig):
    """The case pool for ``seed``, built with numpy; qig only wraps inputs in its types."""
    rng = np.random.default_rng(seed)
    cases = []
    for n in DIMS:
        for kind in KINDS:
            for _ in range(CASES_PER_KIND):
                u = _haar_unitary(n, rng)
                if kind == "orthogonal":
                    q, r = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
                    m = q * np.sign(np.diagonal(r))
                else:
                    m = _realify(u, kind == "antiunitary")
                v, v2, dp = _state(n, rng), _state(n, rng), rng.normal(size=n)
                case = Case(n=n, kind=kind, u=u, m=m, v=v, v2=v2,
                            p=np.abs(v) ** 2, p2=np.abs(v2) ** 2, q=_real_form(v),
                            dp=(dp - dp.mean()) * 1e-3,
                            ode=(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi)),
                            evolve=(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0),
                                    rng.uniform(0.5, 2.0)))
                case.basis = qig.measurement.MeasurementBasis(u)
                case.arrangement = qig.measurement.build_simulation(case.basis)
                case.rep = qig.qspace.to_phase_rep(case.q)
                case.rep2 = qig.qspace.to_phase_rep(_real_form(case.v2))
                cases.append(case)
    return cases


class Loop:
    """Runs rounds of calls over a case pool, timing each call."""

    def __init__(self, cases, qig, seed):
        self.cases = cases
        self.qig = qig
        self.rng = np.random.default_rng([seed, 1])
        self.labels = None       # label of each call position in a round
        self.durations = []      # per round, the duration of each call in order
        self.round_walls = []
        self.round_cpus = []
        self.probes = []         # host speed before the first round and after each
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def _call(results, case, label, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
            out = exc
        results.append((label, case, out, time.perf_counter() - start))
        return out

    def round(self):
        """One pass over every case; results are checked after the round's clock stops."""
        q, rng, results, call = self.qig, self.rng, [], self._call
        if not self.probes:
            self.probes.append(hostspeed.probe())
        wall, cpu = time.perf_counter(), time.process_time()
        for c in self.cases:
            call(results, c, "simplex.info_metric_ds2", q.simplex.info_metric_ds2, c.p, c.dp)
            call(results, c, "simplex.geodesic_distance", q.simplex.geodesic_distance, c.p, c.p2)
            call(results, c, "qspace.to_phase_rep", q.qspace.to_phase_rep, c.q)
            call(results, c, "qspace.from_phase_rep", q.qspace.from_phase_rep, c.rep)
            g = call(results, c, "transforms.classify", q.transforms.classify, c.m)
            if c.kind != "orthogonal":
                call(results, c, "transforms.realify", q.transforms.realify, g)
            call(results, c, "transforms.gauge_invariance_witness",
                 q.transforms.gauge_invariance_witness, c.m, trials=WITNESS_TRIALS, rng=rng)
            call(results, c, "measurement.born_probs", q.measurement.born_probs, c.v, c.basis)
            call(results, c, "measurement.simulate_measurement",
                 q.measurement.simulate_measurement, c.arrangement, c.v, rng)
            call(results, c, "composite.tensor", q.composite.tensor, c.v, c.v2)
            call(results, c, "composite.compose_phase_reps",
                 q.composite.compose_phase_reps, c.rep, c.rep2)
            call(results, c, "dynamics.evolve_stationary", q.dynamics.evolve_stationary,
                 c.rep, *c.evolve)
            call(results, c, "sampling.haar_unitary", q.sampling.haar_unitary, c.n, rng)
            a, b = c.ode
            call(results, c, "measure.solve_F_ode", q.measure.solve_F_ode, a,
                 np.cos(b) ** 2, 0.0, ODE_GRID, step=ODE_STEP, rising=bool(np.sin(2 * b) < 0))
        self.round_walls.append(time.perf_counter() - wall)
        self.round_cpus.append(time.process_time() - cpu)
        self.probes.append(hostspeed.probe())
        self.labels = [r[0] for r in results]
        self.durations.append([r[3] for r in results])
        self.attempted += len(results)
        self.failed += sum(not check(label, case, out) for label, case, out, _ in results)

    def unit_times(self):
        """Call durations per round at nominal host speed, and the time each
        round spent between calls; a round's host speed is the mean of the
        probes on either side of it."""
        rows, between = [], []
        for i, (wall, durations) in enumerate(zip(self.round_walls, self.durations)):
            scale = hostspeed.NOMINAL_PROBE_S / ((self.probes[i] + self.probes[i + 1]) / 2)
            rows.append([d * scale for d in durations])
            between.append((wall - sum(durations)) * scale)
        return rows, between


def _close(a, b, tol=TOL):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _amplitudes(rep):
    """Complex amplitudes sqrt(p) e^{i phi} of a full-support phase representation."""
    return np.sqrt(np.asarray(rep.p)) * np.exp(1j * np.asarray(rep.phi, dtype=float))


def check(label, c, out):
    """True iff ``out`` of call ``label`` on case ``c`` matches the numpy reference."""
    if isinstance(out, Exception):
        return False
    gauge = c.kind != "orthogonal"
    if label == "simplex.info_metric_ds2":
        return _close(out, 0.25 * np.sum(c.dp ** 2 / c.p), 1e-12)
    if label == "simplex.geodesic_distance":
        return _close(out, np.arccos(min(np.sum(np.sqrt(c.p * c.p2)), 1.0)))
    if label == "qspace.to_phase_rep":
        return _close(out.p, c.p) and _close(_amplitudes(out), c.v)
    if label == "qspace.from_phase_rep":
        return _close(out, c.q)
    if label == "transforms.classify":
        if not gauge:
            return out.kind == "not_gauge_invariant"
        return out.kind == c.kind and _close(out.v, c.u)
    if label == "transforms.realify":
        return _close(out, c.m)
    if label == "transforms.gauge_invariance_witness":
        return bool(out[0]) == gauge
    if label == "measurement.born_probs":
        return _close(out, np.abs(c.u.conj() @ c.v) ** 2)
    if label == "measurement.simulate_measurement":
        i, state = out
        return 0 <= i < c.n and abs(abs(np.vdot(c.u[i], state)) - 1.0) <= TOL
    if label == "composite.tensor":
        return _close(out, np.kron(c.v, c.v2))
    if label == "composite.compose_phase_reps":
        return _close(_amplitudes(out), np.kron(c.v, c.v2))
    if label == "dynamics.evolve_stationary":
        energy, dt, alpha = c.evolve
        return _close(_amplitudes(out), c.v * np.exp(-1j * energy * dt / alpha))
    if label == "sampling.haar_unitary":
        return out.shape == (c.n, c.n) and _close(out.conj().T @ out, np.eye(c.n))
    if label == "measure.solve_F_ode":
        a, b = c.ode
        return _close(out, np.cos(a * ODE_GRID + b) ** 2, ODE_TOL)
    raise KeyError(label)
