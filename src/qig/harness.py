"""Deterministic verification checks behind the ``verify`` command.

Each check is declared once, with :func:`check`, as one record of the
registry :data:`CHECKS`: its name, suite, function, default trial count
where it has one, and exactly one bound.  The CLI, the config file and the
tests all read that registry.  :func:`run_check` hands each check its
generator, derived from the master seed and the check's name, so checks
can run in any order (or concurrently) without changing results.  A check
returns ``(residual, trials, details)`` and never its verdict:
:func:`run_check` is the one place that compares a residual with its
bound.  A check that samples per dimension walks its samples with
:func:`_groups`: dimension by dimension (or row by row of dimensions) in
ascending order, each in draw order, in batches of at most :data:`BATCH`.
It runs every sample, and a ``first_failure`` names the first failing
sample the walk reaches.  A batch draws each kind of random value as one
array call, so a check's stream depends on :data:`BATCH`.  Statistical
checks keep fixed sample sizes and bounds; their false-alarm rate depends
on them.
"""

import numbers
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import composite, dynamics, measure, measurement, qspace, sampling, simplex, transforms

DEFAULT_DIMENSIONS = (2, 3, 4, 5)
# Fixed parameters of single checks, not overridable.
ODE_STEP = 1e-4
COIN_N = 100
COIN_TOSSES = 200
HAAR_PAIRS_PER_MAP = 50
WITNESS_TRIALS = 8  # witness draws per classified matrix
BATCH = 64  # samples per kernel call, which bounds the arrays a check holds at once

# check name -> its record, in declaration order: a plain dict of "name", "suite", "fn",
# "trials" (None where the check takes none), "side" ("tol", "below" or "above") and
# "bound".  The name also names the check's random stream.
CHECKS = {}


def check(suite, name, trials=None, **bound):
    """Register a check of ``suite`` with its default trial count and one bound.

    The bound is ``tol``, an upper bound that ``--tol SUITE=`` overrides, or a fixed
    ``below`` (upper) or ``above`` (lower) bound, because a statistical check's false-alarm
    rate depends on its bound; no bound, two or another keyword raise TypeError, and so
    does a ``name`` already registered, since the name seeds the check's random stream.
    :func:`run_check` calls the function as ``fn(settings, settings.rng(name))``, adding
    the keyword ``trials`` where one is declared.
    """
    if len(bound) != 1 or not bound.keys() <= {"tol", "below", "above"}:
        raise TypeError(f"{name} must declare one of tol, below or above, not {sorted(bound)}")
    if name in CHECKS:
        raise TypeError(f"{name} is already registered")
    (side, value), = bound.items()

    def register(fn):
        CHECKS[name] = {"name": name, "suite": suite, "fn": fn, "trials": trials,
                        "side": side, "bound": value}
        return fn
    return register


def suites():
    """Sorted names of the suites in the registry."""
    return sorted({record["suite"] for record in CHECKS.values()})


def overridable(knob):
    """Sorted suites in which some check declares ``knob``, "trials" or "tolerances"."""
    return sorted({r["suite"] for r in CHECKS.values()
                   if (r["trials"] is not None if knob == "trials" else r["side"] == "tol")})


@dataclass(frozen=True)
class Settings:
    """Master seed, dimensions, and overrides keyed by suite name.

    ``trials`` and ``tolerances`` map a suite to the value that replaces the default of
    every check in it declaring that knob.  Dimensions that are not a list or tuple, trials
    or tolerances that are not a dict, any other key, a seed, trial count or dimension not
    an integer >= 0, 1 or 2, no dimension, or a tolerance not in (0, inf) raise ValueError.
    """

    seed: int = 12345
    dimensions: tuple = DEFAULT_DIMENSIONS
    trials: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, kind, name in (("dimensions", (list, tuple), "array"),
                                ("trials", dict, "object"), ("tolerances", dict, "object")):
            if not isinstance(getattr(self, key), kind):
                raise ValueError(f"config {key} must be a JSON {name}, not {getattr(self, key)!r}")
        if not _above(self.seed, -1):
            raise ValueError(f"seed must be an integer >= 0, not {self.seed!r}")
        for knob in ("trials", "tolerances"):
            reject_unknown(knob, getattr(self, knob), overridable(knob))
        few = sorted(suite for suite, count in self.trials.items() if not _above(count, 0))
        if few:  # a check that ran nothing shows nothing
            raise ValueError(f"trial count below 1 or not an integer for {', '.join(few)}")
        bad = sorted(s for s, t in self.tolerances.items() if not _above(t, 0, numbers.Real))
        if bad:
            raise ValueError(f"tolerance not a finite number > 0 for {', '.join(bad)}")
        if not self.dimensions or not all(_above(n, 1) for n in self.dimensions):
            raise ValueError(f"need integer dimensions, each >= 2; got {self.dimensions}")

    def rng(self, name):
        """Generator of check ``name``'s stream: seeded by the master seed and the name's CRC-32."""
        return np.random.default_rng([int(self.seed), zlib.crc32(name.encode())])


def reject_unknown(label, given, valid):
    """Raise ValueError naming the keys of ``given`` not in ``valid``, and listing ``valid``."""
    unknown = ", ".join(sorted(set(given) - set(valid)))
    if unknown:
        raise ValueError(f"unknown {label} key(s) {unknown}; valid keys: {', '.join(valid)}")


def _above(value, low, kind=numbers.Integral):
    """Whether ``value`` is a ``kind`` number (a bool is not one) in (low, inf)."""
    return isinstance(value, kind) and not isinstance(value, bool) and low < value < np.inf


def run_check(record, settings):
    """Execute the check of one :data:`CHECKS` record; return its report dict.

    The check gets ``settings.rng(record["name"])`` as its generator.  A
    declared trial count or ``tol`` resolves to the suite's override or
    else the check's default.  The check passes iff its residual is strictly
    inside the bound (``residual < bound`` for ``tol`` or ``below``,
    ``residual > bound`` for ``above``; NaN never is); details only report.
    The report's ``tolerance`` is the bound applied; ``margin`` is residual /
    bound for an upper bound and bound / residual for a lower one, so it is
    below 1 iff the bound is met.  After the verdict, each value that is not
    a finite number is reported as null (strict JSON).
    """
    suite, bound = record["suite"], record["bound"]
    start = time.perf_counter()
    try:
        knobs = {}
        if record["trials"] is not None:
            knobs["trials"] = settings.trials.get(suite, record["trials"])
        if record["side"] == "tol":
            bound = float(settings.tolerances.get(suite, bound))
        residual, trials, details = record["fn"](settings, settings.rng(record["name"]), **knobs)
        residual = float(residual)
        num, den = (bound, residual) if record["side"] == "above" else (residual, bound)
        status = "pass" if num < den else "fail"
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = float(np.divide(num, den))
    except Exception as exc:  # noqa: BLE001 - harness must report, not crash
        status, residual, margin, trials = "error", None, None, 0
        details = {"exception": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    return _finite({"check": record["name"], "status": status, "max_residual": residual,
                    "tolerance": bound, "margin": margin, "trials": trials,
                    "seed": int(settings.seed), "elapsed": round(elapsed, 6),
                    "details": details, "suite": suite})


def _finite(value):
    """``value`` with each float that is not finite, in any dict or list in it, made None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def run_suite(names, settings):
    """Run the named suites in order, yielding one report dict per check."""
    for suite in names:
        for record in CHECKS.values():
            if record["suite"] == suite:
                yield run_check(record, settings)


# ---------------------------------------------------------------- metric


@check("metric", "metric.pullback", trials=500, tol=1e-12)
def check_metric_pullback(settings, rng, trials):
    """Information metric equals the Euclidean metric of the sqrt embedding."""
    devs = []
    for m, at in _groups(rng.integers(2, 7, trials)):
        p = simplex.renormalized(rng.random((at.size, m)) + 0.05)
        dp = rng.normal(size=(at.size, m))
        dp = (dp - dp.mean(axis=-1, keepdims=True)) * 1e-3
        # the embedding's derivative, 1 / (2 sqrt(p)), carries dp into the sphere
        dq = dp / (2.0 * simplex.sqrt_embedding(p))
        devs.append(np.max(np.abs(simplex.info_metric_ds2(p, dp) - np.sum(dq**2, axis=-1))))
    return np.max(devs, initial=0.0), trials, {}


@check("metric", "metric.qspace_euclidean", trials=500, tol=1e-8)
def check_metric_qspace(settings, rng, trials):
    """sum dQ^2 matches (1/4) sum dP^2/P on outcome probabilities."""
    h = 1e-5
    devs = []
    for n, at in _groups(rng.integers(2, 6, trials)):
        # keep all outcome probabilities bounded away from zero
        q = rng.uniform(0.2, 1.0, (at.size, 2 * n)) * rng.choice([-1.0, 1.0], (at.size, 2 * n))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        d = rng.normal(size=(at.size, 2 * n))
        d -= np.sum(d * q, axis=-1, keepdims=True) * q
        d *= h / np.linalg.norm(d, axis=-1, keepdims=True)
        ends = q + np.array([1.0, -1.0])[:, None, None] * d  # q + d and q - d, renormalized
        ends /= np.linalg.norm(ends, axis=-1, keepdims=True)
        dq2 = np.sum((ends[0] - ends[1]) ** 2, axis=-1)
        P, P_ends = qspace.outcome_probs(q), qspace.outcome_probs(ends)
        ds2 = simplex.info_metric_ds2(P, P_ends[0] - P_ends[1])
        devs.append(np.max(np.abs(ds2 - dq2) / dq2))
    return np.max(devs, initial=0.0), trials, {"displacement": h}


@check("metric", "metric.geodesic", trials=200, below=1)
def check_metric_geodesic(settings, rng, trials):
    """distance^2 / ds^2 matches the metric's expansion to third order; triangle inequality."""
    fits, excess = [], []
    for m, at in _groups(rng.integers(2, 6, trials)):
        p = simplex.renormalized(rng.random((at.size, m)) + 0.1)
        dp = rng.normal(size=(at.size, m))
        dp -= dp.mean(axis=-1, keepdims=True)
        # y = dp / p scaled to max|y| = 1e-2, which keeps p + dp > 0; the expansion's
        # remainder stayed below 0.22 max|y|^3 over seeds 0..1999
        dp *= 1e-2 / np.max(np.abs(dp) / p, axis=-1, keepdims=True)
        y, ds2 = dp / p, simplex.info_metric_ds2(p, dp)
        w = 4.0 * ds2  # sum p y^2
        y3, y4 = (np.sum(p * y**k, axis=-1) / w for k in (3, 4))
        d = simplex.geodesic_distance(p, simplex.renormalized(p + dp))
        fits.append(np.max(np.abs(d**2 / ds2 - (1.0 - y3 / 2 + 5 / 16 * y4 + w / 48))))
        a, b, c = simplex.renormalized(rng.random((3, at.size, m)) + 1e-3)
        sides = simplex.geodesic_distance(np.stack([a, a, b]), np.stack([c, b, c]))
        excess.append(np.max(sides[0] - sides[1] - sides[2]))
    return _folded(trials, {}, expansion=(fits, 1e-6), triangle_excess=(excess, 1e-12))


def _folded(trials, details, **parts):
    """``(residual, trials, details)`` of a check gating ``name=(num, den)`` parts, met below 1.

    The residual is the largest num / den of any part (NaN if one is; a zero den gives inf or
    NaN, which fail), so the check declares ``below=1``; ``details["worst"]`` has each part's.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = {name: float(np.max(np.divide(num, den))) for name, (num, den) in parts.items()}
    return np.max(list(worst.values())), trials, {**details, "worst": worst}


# ------------------------------------------------------------------ coin


@check("coin", "coin.expansion", below=1)
def check_coin_expansion(settings, rng):
    """log Bayes factor ~ 2n ds^2 for nearby coins, converging with |dp|."""
    n = COIN_N
    p = np.array([0.5, 0.5])
    deltas = [1e-2, 1e-3, 1e-4]
    deviations = []
    for delta in deltas:
        dp = np.array([delta, -delta])
        lbf = simplex.log_bayes_factor(p, p + dp, n)
        ds2 = simplex.info_metric_ds2(p, dp)
        deviations.append(abs(lbf / (2.0 * n * ds2) - 1.0))
    # at least first-order convergence per decade of |dp|
    return _folded(3, {"deviations": deviations, "dp": deltas}, deviation=(deviations[1], 0.02),
                   convergence=(deviations[1:], np.divide(deviations[:-1], 5.0)))


@check("coin", "coin.monte_carlo", below=3.0)
def check_coin_monte_carlo(settings, rng):
    """Monte-Carlo mean of ln(P_A/P_B) matches the analytic value within 3 SE."""
    datasets = 100_000  # fixed sample size
    n = COIN_TOSSES
    p = np.array([0.5, 0.5])
    p2 = np.array([0.55, 0.45])
    analytic = simplex.log_bayes_factor(p, p2, n)
    values = simplex.simulate_log_evidence(p, p2, n, datasets, rng)
    se = values.std(ddof=1) / np.sqrt(datasets)
    z = abs(values.mean() - analytic) / se
    details = {"analytic": analytic, "empirical_mean": float(values.mean()),
               "standard_error": float(se), "z": float(z)}
    return z, datasets, details


# --------------------------------------------------------- measure-solver


@check("measure-solver", "measure.ode_vs_closed_form", tol=1e-6)
def check_measure_ode(settings, rng):
    """RK4 solution of F' = +/- 2a sqrt(F(1-F)) matches cos^2(a chi + b)."""
    a, b = 1.0, 0.0
    grid = np.linspace(0.0, 2.0 * np.pi, 629)
    sol = measure.solve_F_ode(a, 1.0, 0.0, grid, step=ODE_STEP)
    exact = np.cos(a * grid + b) ** 2
    return np.max(np.abs(sol - exact)), grid.size, {"step": ODE_STEP}


@check("measure-solver", "measure.invariant_density", trials=1000, tol=1e-9)
def check_measure_invariant_density(settings, rng, trials):
    """Induced density of the cos^2 family is constant (= 2|a|) on ``trials`` points.

    The residual is the largest deviation from 2|a| or relative variation
    (max - min) / max of the density over three members of the family.
    """
    devs = []
    for a, b in ((1.0, 0.3), (3.0, 0.0), (0.5, 1.1)):
        ff = measure.cos_squared_family(a, b)
        period = np.pi / abs(a)
        eps = 0.02 * period
        # avoid the zeros of sin*cos where the density is singular
        half = np.linspace(eps, period / 2 - eps, -(-trials // 2))  # half of trials, rounded up
        grid = np.concatenate([half, half + period / 2]) - b / a + period
        dens = measure.induced_measure_density(ff, grid)
        devs += [np.max(np.abs(dens - 2.0 * abs(a))), measure.density_variation(ff, grid)]
    return np.max(devs), grid.size, {}


@check("measure-solver", "measure.counterexamples", trials=1000, above=0.10)
def check_measure_counterexamples(settings, rng, trials):
    """Non-sinusoidal embeddings are rejected: density varies by > 10% on ``trials`` points."""
    quad = measure.EmbeddingFunction(
        F=lambda x: x**2, dF=lambda x: 2.0 * x, domain=(0.1, 0.9))
    logi = measure.EmbeddingFunction(
        F=lambda x: 0.05 + 0.9 * (1.0 + np.tanh(x)) / 2.0,
        dF=lambda x: 0.45 / np.cosh(x) ** 2,
        domain=(-2.0, 2.0))
    variations = {}
    for name, ff in (("quadratic", quad), ("logistic", logi)):
        lo, hi = ff.domain
        grid = np.linspace(lo + 1e-3, hi - 1e-3, trials)
        variations[name] = float(measure.density_variation(ff, grid))
    return np.min(list(variations.values())), trials, {"density_variation": variations}


@check("measure-solver", "measure.ode_convergence", above=8.0)
def check_measure_convergence(settings, rng):
    """Halving the RK4 step reduces the error at least 8x away from turning points."""
    a = 1.0
    grid = np.linspace(0.3, np.pi / 2 - 0.3, 50)
    exact = np.cos(a * grid) ** 2
    errors = []
    for step in (2e-2, 1e-2):
        sol = measure.solve_F_ode(a, float(np.cos(0.3) ** 2), 0.3, grid,
                                  step=step, rising=False)
        errors.append(float(np.max(np.abs(sol - exact))))
    ratio = errors[0] / errors[1]
    return ratio, grid.size, {"errors": errors, "ratio": ratio}


# -------------------------------------------------------------- classify


@check("classify", "classify.roundtrip", trials=1000, tol=1e-9)
def check_classify_roundtrip(settings, rng, trials):
    """Haar unitaries and antiunitaries survive realify -> classify (``trials`` per dimension)."""
    devs, first = [], {}
    dims = np.repeat(settings.dimensions, trials)
    for n, at in _groups(dims):
        v = sampling.haar_unitary(n, rng, count=at.size)
        # per sample: the unitary, then the antiunitary realification
        g = transforms.classify(np.stack(
            [transforms.realify_unitary(v), transforms.realify_antiunitary(v)], axis=1))
        first = first or _kind_failure(at, n, transforms.KINDS[1:], g.kind)
        devs.append(np.max(np.abs(g.v - v[:, None])))
    residual = np.inf if first else np.max(devs)
    return residual, 2 * dims.size, {"dimensions": list(settings.dimensions), **first}


@check("classify", "classify.rejects_generic", trials=1000, above=1e-2)
def check_classify_rejects_generic(settings, rng, trials):
    """Generic orthogonal matrices are rejected and fail the witness (``trials`` per dimension)."""
    devs, first = [], {}
    dims = np.repeat(settings.dimensions, trials)
    for n, at in _groups(dims):
        m = sampling.haar_from_ginibre(rng.normal(size=(at.size, 2 * n, 2 * n)))
        devs.append(transforms.gauge_invariance_witness(m, WITNESS_TRIALS, rng=rng)[1].min())
        first = first or _kind_failure(at, n, transforms.REJECTED, transforms.classify(m).kind)
    min_dev = float(np.min(devs))
    return 0.0 if first else min_dev, dims.size, {"min_witness_deviation": min_dev, **first}


@check("classify", "classify.witness_agreement", trials=250, below=1)
def check_classify_witness_agreement(settings, rng, trials):
    """classify and the gauge-invariance witness agree on the whole corpus; counts disagreements."""
    disagreements, first = 0, {}
    dims = np.repeat(settings.dimensions, trials)
    for n, at in _groups(dims):
        # per sample: a unitary's two realifications and a generic matrix
        v = sampling.haar_unitary(n, rng, count=at.size)
        m = np.stack([transforms.realify_unitary(v), transforms.realify_antiunitary(v),
                      sampling.haar_from_ginibre(rng.normal(size=(at.size, 2 * n, 2 * n)))],
                     axis=1)
        passed, dev = transforms.gauge_invariance_witness(m, WITNESS_TRIALS, rng=rng)
        g = transforms.classify(m)
        wrong = g.is_gauge_invariant != passed
        first = first or _first_failure(wrong, at, n=n, found=g.kind, witness_deviation=dev)
        disagreements += int(np.count_nonzero(wrong))
    return disagreements, 3 * dims.size, {"disagreements": disagreements, **first}


@check("classify", "classify.composition", trials=200, tol=1e-9)
def check_classify_composition(settings, rng, trials):
    """classify of a realified product agrees with compose: the composition table."""
    dims = rng.integers(2, 6, trials)
    k1, k2 = rng.integers(0, 2, (2, trials))  # 1 = antiunitary
    devs, first = [], {}
    for n, at in _groups(dims):
        v1, v2 = sampling.haar_unitary(n, rng, count=2 * at.size).reshape(
            at.size, 2, n, n).swapaxes(0, 1)
        g1, g2 = (transforms.GaugeMap(kind=transforms.KINDS[1 + k[at]], v=v)
                  for k, v in ((k1, v1), (k2, v2)))
        g = transforms.classify(transforms.realify(g1) @ transforms.realify(g2))
        composed = transforms.compose(g1, g2)
        first = first or _kind_failure(at, n, composed.kind, g.kind)
        devs.append(np.max(np.abs(g.v - composed.v)))
    return np.inf if first else np.max(devs), trials, first


def _groups(dims):
    """(*row, at) per batch of at most BATCH samples sharing a dimension or row of ``dims``.

    ``dims`` holds one dimension, or one row of dimensions, per sample.  Rows come in
    ascending order; ``at`` holds sample indices in draw order (the sort is stable).
    """
    dims = np.asarray(dims).reshape(len(dims), -1)
    order = np.lexsort(dims.T[::-1])
    rows = dims[order]
    cuts = [0, *np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1, len(rows)]
    for start, stop in zip(cuts, cuts[1:]):
        for s in range(start, stop, BATCH):
            yield (*rows[start].tolist(), order[s:min(s + BATCH, stop)])


def _kind_failure(at, n, expected, found):
    """``first_failure`` of the first wrong kind in ``found`` (a row per ``at`` sample), or {}."""
    return _first_failure(found != expected, at, n=n, expected=expected, found=found)


def _first_failure(wrong, at, **fields):
    """``first_failure``: ``at[row]`` and each field, broadcast, at ``wrong``'s first true entry."""
    hits = np.argwhere(wrong)
    if not hits.size:
        return {}
    t = tuple(hits[0])
    return {"first_failure": {"sample": int(at[t[0]]), **{
        name: np.broadcast_to(value, wrong.shape)[t].item() for name, value in fields.items()}}}


# ------------------------------------------------------------------ born


@check("born", "born.exact", trials=1000, tol=1e-12)
def check_born_exact(settings, rng, trials):
    """Arrangement distribution equals Born probabilities, phases irrelevant."""
    devs = []
    for n, at in _groups(np.repeat((2, 3, 5), trials)):
        basis = measurement.MeasurementBasis(sampling.haar_unitary(n, rng, count=at.size))
        v = sampling.sample_uniform(n, at.size, rng)
        theta, theta_out = rng.uniform(0, 2 * np.pi, (2, at.size, n))
        arr = measurement.build_simulation(basis, theta=theta, theta_out=theta_out)
        exact = measurement.arrangement_probs(arr, v)
        devs.append(np.max(np.abs(exact - measurement.born_probs(v, basis))))
    return np.max(devs, initial=0.0), 3 * trials, {"dimensions": [2, 3, 5]}


@check("simulate", "simulate.frequencies", below=3.0)
def check_born_sampled(settings, rng):
    """Sampled result frequencies match Born probabilities within 3 sigma."""
    trials = 100_000  # fixed sample size
    n = 3
    basis = measurement.MeasurementBasis(sampling.haar_unitary(n, rng))
    v = sampling.sample_uniform(n, 1, rng)[0]
    arr = measurement.build_simulation(basis)
    p = measurement.born_probs(v, basis)
    i, _ = measurement.simulate_batch(arr, v, rng.random(trials))
    counts = np.bincount(i, minlength=n)
    sigma = np.sqrt(trials * p * (1.0 - p))
    z = np.abs(counts - trials * p) / sigma
    return np.max(z), trials, {"born": p.tolist(), "counts": counts.tolist()}


@check("simulate", "simulate.reproducibility", trials=100_000, below=1)
def check_born_reproducible(settings, rng, trials):
    """Immediately repeating a measurement reproduces its result, always."""
    n = 3
    basis = measurement.MeasurementBasis(sampling.haar_unitary(n, rng))
    arr = measurement.build_simulation(
        basis, theta=rng.uniform(0, 2 * np.pi, n), theta_out=rng.uniform(0, 2 * np.pi, n))
    v = sampling.sample_uniform(n, 1, rng)[0]
    mismatches, first = 0, {}
    for start in range(0, trials, sampling.BLOCK):
        # per trial: the first measurement's draw, the repeat's
        u = rng.random((min(sampling.BLOCK, trials - start), 2))
        i, out = measurement.simulate_batch(arr, v, u[:, 0])
        j, _ = measurement.simulate_batch(arr, out, u[:, 1])
        first = first or _first_failure(i != j, range(start, start + i.size), result=i, repeat=j)
        mismatches += int(np.count_nonzero(i != j))
    return mismatches, trials, {"mismatches": mismatches, **first}


# --------------------------------------------------------------- compose


@check("compose", "compose.dual_route", trials=1000, tol=1e-12)
def check_compose_dual_route(settings, rng, trials):
    """Kronecker product agrees with the probabilities-multiply/phases-add rule."""
    devs = []
    half = -(-trials // 2)  # half of trials, rounded up
    for n1, n2, at in _groups(np.repeat([(2, 2), (2, 3), (3, 2), (3, 3)], half, axis=0)):
        s1, s2 = _random_phase_reps(n1, at.size, rng), _random_phase_reps(n2, at.size, rng)
        via_reps = qspace.to_complex(qspace.from_phase_rep(composite.compose_phase_reps(s1, s2)))
        direct = composite.tensor(qspace.to_complex(qspace.from_phase_rep(s1)),
                                  qspace.to_complex(qspace.from_phase_rep(s2)))
        devs.append(np.max(np.abs(via_reps - direct)))
    return np.max(devs, initial=0.0), 4 * half, {}


@check("compose", "compose.born_factorization", trials=300, tol=1e-12)
def check_compose_born_factorization(settings, rng, trials):
    """Born distribution of a product state in a product basis factorizes."""
    devs = []
    for n1, n2, at in _groups(rng.integers(2, 4, (trials, 2))):
        u1, u2 = (sampling.haar_unitary(n, rng, count=at.size) for n in (n1, n2))
        v1, v2 = (sampling.sample_uniform(n, at.size, rng) for n in (n1, n2))
        # the product basis, np.kron(u1, u2) per sample: row N2 i + j is u1_i (x) u2_j
        basis = measurement.MeasurementBasis(
            (u1[:, :, None, :, None] * u2[:, None, :, None, :]).reshape(at.size, n1 * n2, -1))
        joint = measurement.born_probs(composite.tensor(v1, v2), basis)
        p1 = measurement.born_probs(v1, measurement.MeasurementBasis(u1))
        p2 = measurement.born_probs(v2, measurement.MeasurementBasis(u2))
        devs.append(np.max(np.abs(joint - (p1[:, :, None] * p2[:, None, :]).reshape(at.size, -1))))
    return np.max(devs, initial=0.0), trials, {}


@check("compose", "compose.energy_additivity", trials=1000, tol=1e-12)
def check_compose_energy_additivity(settings, rng, trials):
    """Evolve-then-compose equals compose-then-evolve with E1 + E2."""
    devs = []
    for n1, n2, at in _groups(rng.integers(2, 4, (trials, 2))):
        s1, s2 = _random_phase_reps(n1, at.size, rng), _random_phase_reps(n2, at.size, rng)
        e1, e2 = rng.normal(scale=3.0, size=(2, at.size))
        dt = rng.uniform(0.0, 2.0, at.size)
        devs.append(np.max(composite.energy_additivity_check(s1, s2, e1, e2, dt, alpha=1.0)))
    return np.max(devs, initial=0.0), trials, {}


@check("compose", "compose.subsystem_observable", trials=200, tol=1e-12)
def check_compose_subsystem(settings, rng, trials):
    """<A (x) I> on product states equals the single-system expectation."""
    devs = []
    for n1, n2, at in _groups(rng.integers(2, 4, (trials, 2))):
        obs = measurement.Observable(
            basis=measurement.MeasurementBasis(sampling.haar_unitary(n1, rng, count=at.size)),
            values=rng.normal(size=(at.size, n1)))
        v1, v2 = (sampling.sample_uniform(n, at.size, rng) for n in (n1, n2))
        lifted = composite.subsystem_observable(obs, n2)
        a = measurement.expected_value(composite.tensor(v1, v2), lifted)
        devs.append(np.max(np.abs(a - measurement.expected_value(v1, obs))))
    return np.max(devs, initial=0.0), trials, {}


@check("compose", "compose.degenerate_grouping", below=1e-12)
def check_compose_degenerate_example(settings, rng):
    """Three results, two shared values: probabilities group as (p1, p2 + p3)."""
    basis = measurement.MeasurementBasis.standard(3)
    p = np.array([0.2, 0.3, 0.5])
    v = np.sqrt(p).astype(complex)
    grouped = measurement.degenerate_probs(v, basis, values=[1.0, 2.0, 2.0])
    return np.max(np.abs([grouped[1.0] - 0.2, grouped[2.0] - 0.8])), 1, {"grouped": grouped}


def _random_phase_reps(n, count, rng):
    """``count`` full-support phase representations of dimension ``n``, as one stack."""
    p = simplex.renormalized(rng.random((count, n)) + 0.05)
    return qspace.PhaseRep(p=p, phi=rng.uniform(0.0, 2.0 * np.pi, (count, n)))


# -------------------------------------------------------------- dynamics


@check("dynamics", "dynamics.correspondence", trials=200, tol=1e-12)
def check_dynamics_correspondence(settings, rng, trials):
    """Stationary phase evolution matches the classical action shift."""
    alpha = 1.0
    devs = []
    for n, at in _groups(rng.integers(3, 8, trials)):
        p = simplex.renormalized(rng.random((at.size, n)) + 0.05)
        state = dynamics.HJGridState(h=0.1, x0=0.0, P=p, S=rng.normal(size=(at.size, n)), m=1.0)
        e, dt = rng.normal(scale=2.0, size=at.size), rng.uniform(0.0, 3.0, at.size)
        via_hj = dynamics.phase_rep_from_hj(
            dynamics.hj_stationary_step(state, e, dt), alpha)
        via_phase = dynamics.evolve_stationary(
            dynamics.phase_rep_from_hj(state, alpha), e, dt, alpha)
        d = np.abs(via_hj.phi - via_phase.phi) % (2.0 * np.pi)
        devs.append(np.max(np.minimum(d, 2.0 * np.pi - d)))
    return np.max(devs, initial=0.0), trials, {}


@check("dynamics", "dynamics.unitary_evolution", trials=50, below=1)
def check_dynamics_unitary(settings, rng, trials):
    """Stationary evolution realifies to a map classified as unitary; counts other verdicts."""
    dims, shift = rng.integers(2, 6, trials), rng.normal(size=trials)
    wrong, first = 0, {}
    for n, at in _groups(dims):
        m = transforms.realify_unitary(np.exp(-1j * shift[at])[:, None, None] * np.eye(n))
        kind = transforms.classify(m).kind
        first = first or _kind_failure(at, n, "unitary", kind)
        wrong += np.count_nonzero(kind != "unitary")
    return wrong, trials, first


@check("dynamics", "dynamics.hj_residuals", below=1)
def check_dynamics_residuals(settings, rng):
    """Plane wave: residual 0; spreading family: second-order convergence."""
    m_mass, momentum = 1.0, 0.7

    def plane(t):
        return dynamics.free_particle_state(momentum, m_mass, h=0.01,
                                            x0=-1.0, n=201, t=t)

    plane_resid = dynamics.hj_residual(plane, t=1.0, dt=0.01)

    def spreading(h, dt):
        n = int(round(3.6 / h)) + 1

        def provider(t):
            return dynamics.spreading_free_particle_state(
                m_mass, h=h, x0=-1.8, n=n, t=t, width=0.2)

        return dynamics.hj_residual(provider, t=1.0, dt=dt)

    coarse, fine = spreading(0.02, 0.02), spreading(0.01, 0.01)
    # second order: halving h and dt cuts each residual (continuity, HJ) about 4x, not under 3.5x
    return _folded(2, {"coarse": coarse, "fine": fine}, plane_wave=(plane_resid, 1e-9),
                   convergence=(3.5 * np.array(fine), coarse))


# ------------------------------------------------------------------ haar


@check("haar", "haar.metric_invariance", trials=100, tol=1e-10)
def check_haar_metric_invariance(settings, rng, trials):
    """|dv|^2 between nearby states is preserved by ``trials`` gauge maps per kind."""
    pairs = HAAR_PAIRS_PER_MAP
    n = 3
    devs = []
    for k, at in _groups(np.repeat((1, 2), trials)):  # kind indices: unitary, antiunitary
        g = transforms.GaugeMap(kind=str(transforms.KINDS[k]),
                                v=sampling.haar_unitary(n, rng, count=at.size))
        devs.append(np.max(sampling.metric_invariance_check(g, pairs, rng)))
    return np.max(devs, initial=0.0), pairs * 2 * trials, {"pairs_per_map": pairs}


@check("haar", "haar.uniformity", above=sampling.SIGNIFICANCE)
def check_haar_uniformity(settings, rng):
    """Pushforward of the uniform measure through a gauge map stays uniform.

    The residual is the lesser Bonferroni-adjusted minimum p-value of the two maps.
    """
    samples = 100_000  # fixed sample size
    n = 3
    results, adjusted = {}, []
    for kind in ("unitary", "antiunitary"):
        g = transforms.GaugeMap(kind=kind, v=sampling.haar_unitary(n, rng))
        rep = sampling.measure_invariance_check(g, samples, bins=50, rng=rng)
        results[kind] = min(rep["p_values"].values())
        adjusted.append(rep["adjusted_p"])
    return np.min(adjusted), samples, {"min_p_values": results}


@check("haar", "haar.negative_control", below=sampling.SIGNIFICANCE)
def check_haar_negative_control(settings, rng):
    """A non-norm-preserving map visibly distorts the uniform measure (adjusted min p)."""
    samples = 100_000  # fixed sample size
    n = 3

    def squarer(states):
        return states**2

    rep = sampling.pushforward_uniformity(squarer, n, samples, bins=50, rng=rng)
    return rep["adjusted_p"], samples, {"min_p_value": float(min(rep["p_values"].values()))}


@check("haar", "haar.rotation_invariance", above=sampling.SIGNIFICANCE)
def check_haar_rotation_invariance(settings, rng):
    """Disjoint halves of a uniform sample, each projected on a fixed direction, agree (KS p)."""
    samples = 20_000  # fixed sample size
    n = 3
    states = sampling.sample_uniform(n, samples, rng)
    qs = np.hstack([states.real, states.imag])
    u1, u2 = rng.normal(size=(2, 2 * n))
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    half = samples // 2
    p = sampling._ks_pvalue(qs[:half] @ u1, qs[half:] @ u2)
    return p, samples, {"p_value": p}
