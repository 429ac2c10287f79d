"""Stacked calls against their scalar calls, planted defects, and validate-once.

The library functions that take leading axes in place (gauge maps and
their classification, the gauge-invariance witness, states, phase
representations, bases, observables, composition, evolution,
Hamilton-Jacobi ensembles, ``metric_invariance_check``), ``simulate_batch``
and stacked Haar draws must give what the scalar calls or the loops they
replaced give element by element, and the functions of one state must
reject a stack; each rewritten check must fail on a planted defect, with
its margin on the failing side of 1, ``coin.expansion`` and
``dynamics.hj_residuals``, which fold a second quantity into their
residual, must give the verdicts of their former, verbatim versions, and
``metric.geodesic`` must pass at every seed 0..199; a kernel that returns
NaN must fail the checks that call it; and no check may validate its
inputs once per trial.  No public function takes a ``stacked`` flag.
"""

import collections
import inspect
import json
import re
import sys
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import qig
from qig import (cli, composite, dynamics, harness, measure, measurement, qspace, sampling,
                 simplex, transforms)

FLIP = np.diag([1.0, -1.0])
SHAPES = ("unitary", "antiunitary", "generic", "mixed", "zero_block", "unequal_norms",
          "overlapping_columns")
# orthogonal (Hadamard rows), but block (0, 0) has equal column norms and overlap 1/2
OVERLAP = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


def reference_classify(m, tol=transforms.BLOCK_TOL):
    """The per-block loop that classify used before it was batched: (kind, v, diagnostic)."""
    n = m.shape[0] // 2
    blocks = m.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    alpha, phi, sigma = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n), dtype=int)
    for k in range(n):
        for i in range(n):
            B = blocks[k, i]
            a_col = B[0, 0] ** 2 + B[1, 0] ** 2
            b_col = B[0, 1] ** 2 + B[1, 1] ** 2
            g_col = B[0, 0] * B[0, 1] + B[1, 0] * B[1, 1]
            if np.sqrt(0.5 * (a_col + b_col)) <= tol:
                continue
            if abs(a_col - b_col) > tol:
                return ("not_gauge_invariant", None, f"block ({k}, {i}): column norms differ "
                        f"(alpha={a_col:g}, beta={b_col:g})")
            if abs(g_col) > tol:
                return ("not_gauge_invariant", None,
                        f"block ({k}, {i}): columns not orthogonal (gamma={g_col:g})")
            alpha[k, i] = np.sqrt(0.5 * (a_col + b_col))
            sigma[k, i] = 1 if np.linalg.det(B) > 0 else -1
            phi[k, i] = np.arctan2(B[1, 0], B[0, 0]) % (2.0 * np.pi)
    kinds = np.unique(sigma[sigma != 0])
    if kinds.size == 0:
        return "not_gauge_invariant", None, "zero matrix"
    if kinds.size > 1:
        return ("not_gauge_invariant", None,
                "mixed block kinds: rotation and reflection blocks coexist")
    return ("unitary" if kinds[0] == 1 else "antiunitary"), alpha * np.exp(1j * phi), None


def make_matrix(shape, n, rng):
    """A 2n x 2n orthogonal matrix of the given shape (n >= 2)."""
    u = sampling.haar_unitary(n, rng)
    if shape == "unitary":
        return transforms.realify_unitary(u)
    if shape == "antiunitary":
        return transforms.realify_antiunitary(u)
    if shape == "generic":
        return sampling.haar_from_ginibre(rng.normal(size=(2 * n, 2 * n)))
    if shape == "mixed":  # rotation blocks, one of them followed by a reflection
        m = transforms.realify_unitary(np.diag(np.exp(1j * rng.uniform(0, 6, n))))
        k = int(rng.integers(n))
        m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = m[2 * k:2 * k + 2, 2 * k:2 * k + 2] @ FLIP
        return m
    if shape == "zero_block":  # a permutation of phases: most blocks are zero
        perm = np.eye(n)[rng.permutation(n)] * np.exp(1j * rng.uniform(0, 6, n))
        maker = transforms.realify_antiunitary if rng.integers(2) else transforms.realify_unitary
        return maker(perm)
    if shape == "overlapping_columns":
        m = transforms.realify_unitary(np.diag(np.exp(1j * rng.uniform(0, 6, n))))
        m[:4, :4] = OVERLAP
        return m
    # moving the real coordinates of the results around splits their blocks
    swap = np.eye(2 * n)[np.r_[0, 2, 1, 3:2 * n]]
    return swap @ transforms.realify_unitary(u)


@st.composite
def stacks(draw):
    n = draw(st.integers(2, 4))
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([make_matrix(shape, n, rng) for shape in shapes]), shapes


@settings(deadline=None, database=None, max_examples=150)
@given(stacks())
def test_classify_batch_matches_scalar_and_reference(stack):
    ms, shapes = stack
    whole = transforms.classify(ms)
    kind, v = whole.kind, whole.v
    assert whole.diagnostic is None
    assert kind.shape == ms.shape[:1] and v.shape == (len(ms), ms.shape[1] // 2, ms.shape[1] // 2)
    for k, (m, shape) in enumerate(zip(ms, shapes)):
        g = transforms.classify(m)
        ref_kind, ref_v, ref_diagnostic = reference_classify(m)
        assert (g.kind, g.diagnostic) == (ref_kind, ref_diagnostic)
        assert kind[k] == g.kind
        if ref_v is None:
            assert g.v is None and not v[k].any()
        else:
            # the loop squared NumPy scalars through libm pow, which can differ
            # from the exactly rounded x * x in the last bit
            assert_allclose(g.v, ref_v, rtol=4e-16, atol=0)
            assert_array_equal(v[k], g.v)
        if shape in ("unitary", "antiunitary"):
            assert g.kind == shape
        elif shape in ("mixed", "generic"):
            assert g.kind == "not_gauge_invariant"


def test_each_diagnostic_is_reachable():
    rng = np.random.default_rng(0)
    diagnostics = {shape: transforms.classify(make_matrix(shape, 3, rng)).diagnostic
                   for shape in ("mixed", "unequal_norms", "overlapping_columns")}
    assert diagnostics["mixed"].startswith("mixed block kinds")
    assert "column norms differ" in diagnostics["unequal_norms"]
    assert diagnostics["overlapping_columns"] == (
        "block (0, 0): columns not orthogonal (gamma=0.5)")
    with pytest.raises(ValueError, match=r"block \(0, 0\): .* \(alpha=1, beta=0\)"):
        transforms.block_decomposition(np.eye(4)[[0, 2, 1, 3]])
    # a stack names the first faulty block of its first faulty matrix
    stacked = np.stack([np.eye(4), np.eye(4), OVERLAP, np.eye(4)[[0, 2, 1, 3]]]).reshape(2, 2, 4, 4)
    with pytest.raises(ValueError, match=r"^matrix \(1, 0\), block \(0, 0\): columns not orth"):
        transforms.block_decomposition(stacked)


@pytest.mark.parametrize("m", [np.eye(3), np.ones((4, 2)), np.ones((2, 4, 2)), np.ones(4)])
def test_block_decomposition_rejects_bad_shapes(m):
    with pytest.raises(ValueError, match="square|even"):
        transforms.block_decomposition(m)


def test_validators_reject_nan_and_check_stacks():
    with pytest.raises(ValueError, match="not orthogonal"):
        transforms.classify(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="residual 4.24264"):
        transforms.classify(np.stack([np.eye(2), 2.0 * np.eye(2)]))
    # a validator takes a stack (..., N) of states; a scalar has no state axis
    with pytest.raises(ValueError, match="nonempty"):
        qspace.as_pure_state(1.0)
    assert_array_equal(qspace.as_pure_state(np.eye(2)), np.eye(2))
    with pytest.raises(ValueError, match=r"squared norm (np\.float64\()?0\.5\b"):
        qspace.as_pure_state([[1.0, 0.0], [0.5, 0.5]])
    assert qspace.as_pure_state(np.zeros((0, 3))).shape == (0, 3)
    with pytest.raises(ValueError, match="matrix is not unitary: residual nan"):
        measurement.MeasurementBasis(np.full((2, 2), np.nan))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stacked_haar_draws_equal_single_draws(n):
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    assert_array_equal(sampling.haar_unitary(n, a, count=7),
                       np.array([sampling.haar_unitary(n, b) for _ in range(7)]))
    assert a.random() == b.random()  # both generators are left in the same state


def test_witness_stack_equals_single_calls():
    rng = np.random.default_rng(1)
    ms = np.array([make_matrix(shape, 3, rng) for shape in SHAPES])
    for k, m in enumerate(ms):
        passed, single = transforms.gauge_invariance_witness(
            m, trials=8, rng=np.random.default_rng(k))
        # a stack of one row draws what the scalar call draws
        row_passed, row = transforms.gauge_invariance_witness(
            m[None], trials=8, rng=np.random.default_rng(k))
        assert row.shape == row_passed.shape == (1,)
        assert row[0] == single and row_passed[0] == passed
    passed, dev = transforms.gauge_invariance_witness(ms, trials=8, rng=rng)
    assert dev.shape == (len(SHAPES),)
    assert_array_equal(passed, dev < transforms.WITNESS_TOL)


def reference_witness(m, trials=20, *, rng):
    """``gauge_invariance_witness`` with 2 * trials products per matrix, kept verbatim."""
    TWO_PI, WITNESS_TOL = transforms.TWO_PI, transforms.WITNESS_TOL

    def _dot(x, y):  # x . y over the last axis, one BLAS dot per row
        return (x[..., None, :] @ y[..., :, None])[..., 0, 0]

    m = transforms.as_orthogonal(m)
    shape = (*m.shape[:-2], trials)
    x = rng.normal(size=(2, *shape, m.shape[-1] // 2))
    z, phi0 = x[0] + 1j * x[1], rng.uniform(0.0, TWO_PI, shape)
    v = z / np.sqrt(_dot(z.real, z.real) + _dot(z.imag, z.imag))[..., None]
    w = np.stack([v, np.exp(1j * phi0)[..., None] * v])  # each state, then its shift
    q = np.stack([w.real, w.imag], axis=-1).reshape(*w.shape[:-1], m.shape[-1])  # real forms
    mq = (m[..., None, :, :] @ q[..., None])[..., 0]
    P = (mq / np.sqrt(_dot(mq, mq))[..., None]) ** 2
    p = (P / P.sum(axis=-1, keepdims=True)).reshape(*P.shape[:-1], z.shape[-1], 2).sum(axis=-1)
    worst = np.abs(p[0] - p[1]).max(axis=(-2, -1), initial=0.0)
    worst = worst if worst.ndim else float(worst)
    return worst < WITNESS_TOL, worst


# deviations are differences of probabilities in [0, 1], so they differ from
# the reference's in absolute terms: at most 2 eps over 2,000 seeds of SHAPES
# stacks and scalars at n = 2..5
WITNESS_GAP = 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_matches_reference(n):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        ms = np.array([make_matrix(shape, n, rng) for shape in SHAPES])
        for m in (ms, ms.reshape(7, 1, 2 * n, 2 * n), *ms):  # stacks and each scalar
            got = transforms.gauge_invariance_witness(m, 8, rng=np.random.default_rng(seed))
            ref = reference_witness(m, 8, rng=np.random.default_rng(seed))
            assert_array_equal(got[0], ref[0])  # the verdicts
            assert type(got[1]) is type(ref[1])
            assert_allclose(got[1], ref[1], rtol=0, atol=WITNESS_GAP)


class ReplayRng:
    """Stands in for a generator in the witness: hands out given normals and uniforms."""

    def __init__(self, x, phi0):
        self.x, self.phi0 = x, phi0

    def normal(self, size):
        assert size == self.x.shape
        return self.x

    def uniform(self, low, high, size):
        assert size == self.phi0.shape
        return self.phi0


def test_witness_draws_take_a_count_or_a_batch_shape():
    rng = np.random.default_rng(4)
    ms = np.array([make_matrix(shape, 3, rng) for shape in SHAPES[:6]]).reshape(2, 3, 6, 6)
    passed, dev = transforms.gauge_invariance_witness(ms, trials=5, rng=rng)
    assert dev.shape == passed.shape == (2, 3)
    # one array of real parts, then one of imaginary parts, then one of phases
    ref = np.random.default_rng(4)
    for shape in SHAPES[:6]:  # the matrices' draws
        make_matrix(shape, 3, ref)
    x = ref.normal(size=(2, 2, 3, 5, 3))
    phi0 = ref.uniform(0.0, 2 * np.pi, (2, 3, 5))
    assert rng.random() == ref.random()  # both generators are left in the same state
    for i in range(2):
        for j in range(3):
            replay = ReplayRng(x[:, i, j], phi0[i, j])
            assert transforms.gauge_invariance_witness(ms[i, j], 5, rng=replay) == (
                passed[i, j], dev[i, j])


@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
def test_apply_to_rows_equals_single_calls(kind):
    # one map on a block of rows, as the 100k-sample checks apply it
    rng = np.random.default_rng(5)
    g = transforms.GaugeMap(kind=kind, v=sampling.haar_unitary(3, rng))
    states = sampling.sample_uniform(3, sampling.BLOCK, rng)
    rows = transforms.apply(g, states)
    assert rows.shape == (sampling.BLOCK, 3)
    assert_allclose(rows[:6], [transforms.apply(g, v) for v in states[:6]], rtol=0, atol=1e-15)
    act = states.conj() if kind == "antiunitary" else states
    assert_allclose(rows, [g.v @ v for v in act], rtol=0, atol=1e-15)


def test_apply_stack_broadcasts_against_states():
    # a (64, 3, 3) stack of both kinds on (50, 64, 3) states: row (i, j) takes map j
    rng = np.random.default_rng(6)
    kind = rng.choice(["unitary", "antiunitary"], size=64)
    g = transforms.GaugeMap(kind=kind, v=sampling.haar_unitary(3, rng, count=64))
    states = sampling.sample_uniform(3, 50 * 64, rng).reshape(50, 64, 3)
    rows = transforms.apply(g, states)
    assert rows.shape == (50, 64, 3)
    act = np.where((kind == "antiunitary")[:, None], states.conj(), states)
    ref = [[g.v[j] @ act[i, j] for j in range(64)] for i in range(50)]
    assert_allclose(rows, ref, rtol=0, atol=1e-15)


def reference_metric_invariance(g, pairs, seed, displacement=1e-4):
    """The per-pair loop that metric_invariance_check replaced."""
    n = g.v.shape[0]
    rng = np.random.default_rng(seed)
    act = lambda v: g.v @ (v.conj() if g.kind == "antiunitary" else v)
    worst = 0.0
    for v in sampling.sample_uniform(n, pairs, rng):
        dv = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = v + displacement * dv / np.linalg.norm(dv)
        w = w / np.linalg.norm(w)
        before = np.sum(np.abs(w - v) ** 2)
        after = np.sum(np.abs(act(w) - act(v)) ** 2)
        worst = max(worst, abs(after - before) / before)
    return worst


@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
def test_metric_invariance_matches_per_pair_loop(kind):
    # a map that stretches |dv|^2, so the result is O(1) and not rounding noise
    g = transforms.GaugeMap(kind=kind, v=np.diag([1.0, 1.5, 0.5]).astype(complex))
    for seed in range(3):
        batched = sampling.metric_invariance_check(g, pairs=40, rng=np.random.default_rng(seed))
        assert batched > 0.1
        assert batched == pytest.approx(reference_metric_invariance(g, 40, seed), rel=1e-12)


class ScriptedRng:
    """Stands in for a generator in simulate_measurement: hands out given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)


@settings(deadline=None, database=None, max_examples=60)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_simulate_batch_matches_scalar_calls(n, seed):
    rng = np.random.default_rng(seed)
    basis = measurement.MeasurementBasis(sampling.haar_unitary(n, rng))
    arr = measurement.build_simulation(basis, theta=rng.uniform(0, 6, n),
                                       theta_out=rng.uniform(0, 6, n))
    v = sampling.sample_uniform(n, 1, rng)[0]
    # uniforms exactly on the CDF values hit the side of each search
    u = np.concatenate([rng.random(20), np.cumsum(measurement.arrangement_probs(arr, v)),
                        [0.0, np.nextafter(1.0, 0.0)]])
    states = np.concatenate([sampling.sample_uniform(n, u.size - n, rng), basis.vectors])
    for state in (v, states):
        i, out = measurement.simulate_batch(arr, state, u)
        scripted = ScriptedRng(u)
        for t in range(u.size):
            j, single = measurement.simulate_measurement(
                arr, state if state.ndim == 1 else state[t], scripted)
            assert j == i[t]
            assert_array_equal(single, out[t])
    # a batch with two axes: out[x, y] belongs to the uniform u[x, y]
    grid = u[:12].reshape(3, 4)
    for state in (v, states[:12].reshape(3, 4, n)):
        i, out = measurement.simulate_batch(arr, state, grid)
        flat = state.reshape(-1, n) if state.ndim > 1 else state
        flat_i, flat_out = measurement.simulate_batch(arr, flat, grid.ravel())
        assert_array_equal(i, flat_i.reshape(3, 4))
        assert_array_equal(out, flat_out.reshape(3, 4, n))
    with pytest.raises(ValueError, match="one state per uniform"):
        measurement.simulate_batch(arr, states[:3], u)
    with pytest.raises(ValueError, match="one state per uniform"):
        measurement.simulate_measurement(arr, states, rng)


def test_simulate_measurement_returns_a_copy():
    basis = measurement.MeasurementBasis(np.eye(2, dtype=complex))
    arr = measurement.build_simulation(basis)
    _, out = measurement.simulate_measurement(arr, np.array([1.0, 0.0]), np.random.default_rng(0))
    out[:] = 7.0
    assert_array_equal(arr.V, np.eye(2))


# ------------------------------------------------------------ planted defects


def mutant(monkeypatch, module, old, new):
    """A fresh copy of ``module`` with the source text ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    copy = types.ModuleType(module.__name__ + "_mutant")
    copy.__package__, copy.__file__ = "qig", module.__file__
    monkeypatch.setitem(sys.modules, copy.__name__, copy)
    exec(compile(source.replace(old, new), module.__file__, "exec"), copy.__dict__)
    return copy


CHECKS = harness.CHECKS
SMALL = harness.Settings(trials={"classify": 60, "simulate": 2000})

DET_FLIP = ("sigma = np.where(b00 * b11 - b01 * b10 > 0, 1, -1) * live",
            "sigma = np.where(b00 * b11 - b01 * b10 > 0, -1, 1) * live")
MUTANTS = {
    "det sign flip": (
        transforms, *DET_FLIP, ["classify.roundtrip", "dynamics.unitary_evolution"]),
    "witness ignores phi0": (
        transforms, "w = np.concatenate([v, np.exp(1j * phi0)[..., None] * v], axis=-2)",
        "w = np.concatenate([v, v], axis=-2)",
        ["classify.rejects_generic", "classify.witness_agreement"]),
    "swapped composition conjugation": (
        transforms, "v2 = _where(anti1, g2.v.conj(), g2.v, 2)",
        "v2 = _where(anti2, g2.v.conj(), g2.v, 2)", ["classify.composition"]),
    "non-unitary apply": (
        transforms, '"...ij,...j->...i", g.v, v', '"...ij,...j->...i", g.v.real, v',
        ["haar.metric_invariance", "haar.uniformity"]),
    "S = -alpha chi": (
        dynamics, "state.S / alpha", "-state.S / alpha", ["dynamics.correspondence"]),
    "|amp| as the Born probability": (
        measurement, "p = np.abs((arr.U @ v[..., None])[..., 0]) ** 2",
        "p = np.abs((arr.U @ v[..., None])[..., 0])", ["simulate.frequencies"]),
    "output state V e_(i+1)": (
        measurement, "return i, arr.V.T.take(i, axis=0)",
        "return i, arr.V.T.take((i + 1) % p.shape[-1], axis=0)", ["simulate.reproducibility"]),
    "born_probs without conj": (
        measurement, "p = np.abs((basis.vectors.conj() @ v[..., None])[..., 0]) ** 2",
        "p = np.abs((basis.vectors @ v[..., None])[..., 0]) ** 2", ["born.exact"]),
    "subtracted phases in composition": (
        composite, "phi = (s1.phi[..., :, None] + s2.phi[..., None, :])",
        "phi = (s1.phi[..., :, None] - s2.phi[..., None, :])", ["compose.dual_route"]),
    "swapped tensor operands": (
        composite, "v = as_pure_state(v1)[..., :, None] * as_pure_state(v2)[..., None, :]",
        "v = as_pure_state(v2)[..., :, None] * as_pure_state(v1)[..., None, :]",
        ["compose.born_factorization"]),
    "tiled values of A (x) I": (
        composite, "np.repeat(obs.values, n_other, axis=-1)", "np.tile(obs.values, n_other)",
        ["compose.subsystem_observable"]),
    "energy shift nonlinear in energy": (
        dynamics, "np.asarray(energy * dt / alpha)", "np.asarray(energy * energy * dt / alpha)",
        ["compose.energy_additivity"]),
    "metric without its 1/4": (
        simplex, "return 0.25 * np.sum(", "return np.sum(", ["metric.pullback"]),
    "|Q_q| as the outcome probability": (
        qspace, "P = q * q", "P = np.abs(q)", ["metric.qspace_euclidean"]),
    "uniform draw with a doubled real part": (
        qspace, "z = x[0] + 1j * x[1]", "z = 2 * x[0] + 1j * x[1]", ["haar.uniformity"]),
    "Beta CDF with exponent n": (sampling, "u **= n - 1", "u **= n", ["haar.uniformity"]),
    "KS statistic of an unsorted x": (
        sampling, "x, y = np.sort(x), np.sort(y)", "y = np.sort(y)",
        ["haar.rotation_invariance"]),
    "no branch flip at a turning point": (
        measure, "s = -s", "s = s", ["measure.ode_vs_closed_form"]),
    "second-order RK4 weights (1, 3, 1, 1) / 6": (
        measure, "k1 + 2 * k2 + 2 * k3 + k4", "k1 + 3 * k2 + k3 + k4",
        ["measure.ode_convergence"]),
    "geodesic distance 1% long": (
        simplex, "d = 2.0 * np.arcsin(", "d = 2.02 * np.arcsin(", ["metric.geodesic"]),
    "geodesic distance 1e-6 long": (
        simplex, "d = 2.0 * np.arcsin(", "d = 2.000002 * np.arcsin(", ["metric.geodesic"]),
    # each of the next two is caught only by the quantity folded into its residual
    "log Bayes factor of n + 1 tosses": (
        simplex, "return n * np.sum(", "return (n + 1) * np.sum(", ["coin.expansion"]),
    "forward time difference of S": (
        dynamics, "dS_dt = (nxt.S[2:-2] - prev.S[2:-2]) / (2.0 * dt)",
        "dS_dt = (nxt.S[2:-2] - cur.S[2:-2]) / dt", ["dynamics.hj_residuals"]),
    "coin data drawn from the other coin": (
        simplex, "counts = rng.multinomial(n, p, size=datasets)",
        "counts = rng.multinomial(n, p2, size=datasets)", ["coin.monte_carlo"]),
    "signed density": (
        measure, "return np.abs(ff.dF(chi)) / np.sqrt(F * (1.0 - F))",
        "return ff.dF(chi) / np.sqrt(F * (1.0 - F))", ["measure.invariant_density"]),
    "grouping counts results, not probabilities": (
        measurement, "np.bincount(group, weights=born_probs(v, basis))", "np.bincount(group)",
        ["compose.degenerate_grouping"]),
}
# checks that fail on unmutated code by design, each a control of its own
CONTROLS = {"haar.negative_control", "measure.counterexamples"}


def test_every_check_has_a_planted_defect():
    covered = {name for *_, names in MUTANTS.values() for name in names}
    assert set(CHECKS) - covered == CONTROLS and not covered & CONTROLS


def install(monkeypatch, module, old, new):
    """Put a mutated copy of ``module`` wherever the checks reach ``module``; return the copy."""
    copy = mutant(monkeypatch, module, old, new)
    monkeypatch.setattr(harness, module.__name__.rsplit(".", 1)[1], copy)
    # and for imports made at call time, such as composite's of dynamics
    monkeypatch.setitem(sys.modules, module.__name__, copy)
    # and for functions imported by name, such as sampling's apply
    for other in set(MODULES) - {module}:
        for attr, obj in list(vars(other).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                monkeypatch.setattr(other, attr, getattr(copy, obj.__name__))
    return copy


def run_with(monkeypatch, module, old, new, names):
    """Run the named checks at ``SMALL`` settings against a mutated copy of ``module``."""
    install(monkeypatch, module, old, new)
    return {name: harness.run_check(CHECKS[name], SMALL) for name in names}


@pytest.mark.parametrize("defect", MUTANTS)
def test_planted_defect_fails_its_check(defect, monkeypatch):
    module, old, new, names = MUTANTS[defect]
    for name in names:
        assert harness.run_check(CHECKS[name], SMALL)["status"] == "pass", name
    for name, report in run_with(monkeypatch, module, old, new, names).items():
        # an infinite margin is written as null: a residual of 0 under a lower
        # bound, or an infinite residual (also null), which only a wrong kind
        # sets; a NaN residual is null too, and has no kind finding
        margin, failure = report["margin"], report["details"].get("first_failure", {})
        if margin is None:
            infinite = report["max_residual"] == 0.0 or (
                report["max_residual"] is None and {"expected", "found"} <= set(failure))
            margin = np.inf if infinite else np.nan
        assert report["status"] == "fail" and margin >= 1, (name, report)


# kernel -> a stand-in returning NaN in its result's shape, and the checks that call it
NAN_KERNELS = {
    (measurement, "born_probs"): (lambda v, basis: np.full(np.shape(v), np.nan),
                                  ["born.exact", "compose.born_factorization"]),
    (simplex, "info_metric_ds2"): (lambda p, dp: np.nan, ["metric.pullback", "metric.geodesic"]),
    (transforms, "gauge_invariance_witness"): (
        lambda m, trials, *, rng: (np.zeros(np.shape(m)[:-2], bool),
                                   np.full(np.shape(m)[:-2], np.nan)),
        ["classify.rejects_generic", "classify.witness_agreement"]),
    (sampling, "metric_invariance_check"): (lambda *args, **kwargs: np.nan,
                                            ["haar.metric_invariance"]),
    (composite, "energy_additivity_check"): (lambda *args, **kwargs: np.nan,
                                             ["compose.energy_additivity"]),
    (measure, "induced_measure_density"): (lambda ff, chi: np.nan, ["measure.counterexamples"]),
}


@pytest.mark.parametrize("kernel", NAN_KERNELS, ids=lambda kernel: kernel[1])
def test_nan_from_a_kernel_fails_its_checks(kernel, monkeypatch):
    stand_in, names = NAN_KERNELS[kernel]
    monkeypatch.setattr(*kernel, stand_in)
    few = harness.Settings(trials=dict.fromkeys(harness.overridable("trials"), 20))
    for name in names:
        report = harness.run_check(CHECKS[name], few)
        assert report["status"] == "fail", (name, report)


def test_nan_residual_is_written_as_strict_json(monkeypatch, capsys):
    kernel = (measure, "induced_measure_density")
    monkeypatch.setattr(*kernel, NAN_KERNELS[kernel][0])
    assert cli.main(["measure-solver", "--trials", "20"]) == 1

    def reject(token):
        raise ValueError(f"{token} is not RFC 8259 JSON")

    lines = [json.loads(line, parse_constant=reject)
             for line in capsys.readouterr().out.splitlines()]
    report = next(r for r in lines if r.get("check") == "measure.counterexamples")
    assert report["status"] == "fail" and report["max_residual"] is None
    assert report["margin"] is None


def test_wrong_kind_reports_first_failure(monkeypatch):
    reports = run_with(monkeypatch, transforms, *DET_FLIP,
                       ["classify.roundtrip", "classify.composition"])
    roundtrip = reports["classify.roundtrip"]
    # a wrong kind sets an infinite residual, written as null, which no --tol can pass;
    # the check still runs all of its trials: two maps per sample, 60 samples per dimension
    assert roundtrip["max_residual"] is None and roundtrip["trials"] == 2 * 60 * 4
    assert roundtrip["details"]["first_failure"] == {
        "sample": 0, "n": 2, "expected": "unitary", "found": "antiunitary"}
    # the walk takes n = 2 first, so the first failure it reaches is an n = 2 sample,
    # whatever its place in the check's draw of dimensions
    failure = reports["classify.composition"]["details"]["first_failure"]
    dims = SMALL.rng("classify.composition").integers(2, 6, 60)
    assert failure["n"] == 2 and dims[failure["sample"]] == 2
    assert failure["sample"] == np.flatnonzero(dims == 2)[0] == 2
    assert reports["classify.composition"]["trials"] == 60
    assert {failure["expected"], failure["found"]} == {"unitary", "antiunitary"}
    assert reports["classify.composition"]["tolerance"] == 1e-9
    assert reports["classify.composition"]["max_residual"] is None
    loose = harness.Settings(trials={"classify": 60}, tolerances={"classify": 1e300})
    for name in ("classify.roundtrip", "classify.composition"):
        assert harness.run_check(CHECKS[name], loose)["status"] == "fail", name


@pytest.mark.parametrize("shape", [(1000,), (1000, 2)])
def test_groups_walk_each_sample_once(shape):
    dims = np.random.default_rng(1).integers(2, 5, shape)
    rows, walked = [], []
    for *row, at in harness._groups(dims):
        assert 0 < at.size <= harness.BATCH and (dims.reshape(len(dims), -1)[at] == row).all()
        if rows and rows[-1] == row:  # a row's next batch goes on where the last stopped
            assert at[0] > walked[-1]
        assert np.all(np.diff(at) > 0)
        rows.append(row)
        walked += at.tolist()
    assert sorted(walked) == list(range(len(dims)))  # each index once
    assert rows == sorted(rows) and len(rows) > len(set(map(tuple, rows)))


def test_first_failure_only_reports(monkeypatch):
    # the verdict compares the residual with the bound and reads nothing from details
    for residual, status in ((0.5, "pass"), (1.0, "fail")):
        monkeypatch.setattr(harness, "CHECKS", {})

        @harness.check("stub", "stub.check", below=1)
        def stub(settings, rng, residual=residual):
            return residual, 1, {"first_failure": {"sample": 0}}

        report = harness.run_check(harness.CHECKS["stub.check"], harness.Settings())
        assert report["status"] == status and report["margin"] == residual


def test_geodesic_passes_at_every_seed():
    record = CHECKS["metric.geodesic"]
    failing = [seed for seed in range(200)
               if harness.run_check(record, harness.Settings(seed=seed))["status"] != "pass"]
    assert failing == []


# The parent versions of the two checks that gated a second quantity through
# details["first_failure"], kept verbatim: a check passed iff its residual was
# below the bound and its details carried no first_failure.
COIN_N = harness.COIN_N


def reference_check_coin_expansion(settings):
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
    details = {"deviations": deviations, "dp": deltas}
    # at least first-order convergence per decade of |dp|
    slow = [k for k in (1, 2) if not deviations[k] < deviations[k - 1] / 5.0]
    if slow:
        details["first_failure"] = {"dp": deltas[slow[0]]}
    return deviations[1], 3, details


def reference_check_dynamics_residuals(settings):
    """Plane wave: residual 0; spreading family: second-order convergence."""
    m_mass, momentum = 1.0, 0.7

    def plane(t):
        return dynamics.free_particle_state(momentum, m_mass, h=0.01,
                                            x0=-1.0, n=201, t=t)

    c0, h0 = dynamics.hj_residual(plane, t=1.0, dt=0.01)
    plane_resid = np.max([c0, h0])

    def spreading(h, dt):
        n = int(round(3.6 / h)) + 1

        def provider(t):
            return dynamics.spreading_free_particle_state(
                m_mass, h=h, x0=-1.8, n=n, t=t, width=0.2)

        return dynamics.hj_residual(provider, t=1.0, dt=dt)

    coarse = spreading(0.02, 0.02)
    fine = spreading(0.01, 0.01)
    ratios = [c / f for c, f in zip(coarse, fine)]
    details = {"plane_wave_residual": plane_resid,
               "coarse": list(coarse), "fine": list(fine), "ratios": ratios}
    # second-order convergence: halving h and dt cuts each residual about 4x
    slow = [k for k, r in enumerate(ratios) if not r >= 3.5]
    if slow:
        details["first_failure"] = {"equation": ("continuity", "hamilton_jacobi")[slow[0]]}
    return plane_resid, 2, details


# check -> its reference and the reference's bound
FOLDED = {"coin.expansion": (reference_check_coin_expansion, 0.02),
          "dynamics.hj_residuals": (reference_check_dynamics_residuals, 1e-9)}


def verdicts(name, settings):
    """Whether the folded check passes, and whether its reference passes."""
    reference, bound = FOLDED[name]
    residual, _, details = reference(settings)
    report = harness.run_check(CHECKS[name], settings)
    assert report["tolerance"] == 1 and "first_failure" not in report["details"], report
    return report["status"] == "pass", bool(residual < bound and "first_failure" not in details)


def test_folded_checks_keep_the_reference_verdicts_under_their_mutants(monkeypatch):
    seen = collections.defaultdict(set)
    settings = harness.Settings()
    folded = [defect for defect, (*_, names) in MUTANTS.items() if set(names) & set(FOLDED)]
    for defect in [None, *folded]:
        with monkeypatch.context() as patch:
            if defect is not None:
                module, old, new, _ = MUTANTS[defect]
                # the references read the module through this file's globals
                patch.setitem(globals(), module.__name__.rsplit(".", 1)[1],
                              install(patch, module, old, new))
            for name in FOLDED:
                new, old = verdicts(name, settings)
                assert new == old, (name, defect)
                seen[name].add(new)
    assert len(folded) == 2 and all(seen[name] == {True, False} for name in FOLDED), seen


@pytest.mark.parametrize("bounds", [{}, {"tol": 1e-9, "below": 1}, {"above": 1, "below": 2},
                                    {"upper": 1}, {"tol": 1e-9, "upper": 1}])
def test_check_declares_exactly_one_bound(bounds, monkeypatch):
    # every check declares exactly one bound: a tol, a fixed below or a fixed above
    monkeypatch.setattr(harness, "CHECKS", {})
    with pytest.raises(TypeError, match="stub.check must declare one of tol, below or above"):
        harness.check("stub", "stub.check", trials=10, **bounds)
    assert harness.CHECKS == {}


def test_check_name_registers_once(monkeypatch):
    # the name seeds the check's stream, so a second check of one name would share it
    monkeypatch.setattr(harness, "CHECKS", dict(CHECKS))
    with pytest.raises(TypeError, match="metric.pullback is already registered"):
        harness.check("metric", "metric.pullback", trials=10, tol=1e-6)
    assert harness.CHECKS == CHECKS and len(CHECKS) == 28


def readme_table(header):
    """The rows of the README table under ``header``, each a list of its cells."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split(header + "\n")[1].split("\n\n")[0]
    return [row.strip("| ").split(" | ") for row in table.splitlines()[1:]]


def test_readme_tables_match_the_registry():
    documented = {}
    for names, _, bound in readme_table("| check | residual | bound |"):
        side, value = bound.split(" ", 1)
        for name in re.findall(r"`([\w.-]+)`", names):
            documented[name] = side
            if value[0].isdigit():
                assert float(value) == CHECKS[name]["bound"], (name, bound)
    declared = {name: r["side"] for name, r in CHECKS.items() if r["side"] != "tol"}
    assert documented == declared and len(declared) == 15
    # the paper map names every check, and only checks and kernels that exist
    mapped, module = [], None
    for _, checks, kernels in readme_table("| claim of the abstract | checks | kernels |"):
        mapped += re.findall(r"`([\w.-]+)`", checks)
        for name in re.findall(r"`([\w.]+)`", kernels):
            module, attr = name.split(".") if "." in name else (module, name)
            assert hasattr(getattr(qig, module), attr), name  # unqualified: the module before
    assert set(mapped) <= set(CHECKS) and len(set(mapped)) == len(CHECKS) == 28


def test_composition_tolerance_is_declared():
    report = harness.run_check(CHECKS["classify.composition"], harness.Settings())
    assert report["status"] == "pass" and report["tolerance"] == 1e-9
    strict = harness.Settings(tolerances={"classify": 1e-300})
    assert harness.run_check(CHECKS["classify.composition"], strict)["status"] == "fail"


# --------------------------------------------------------------- validate once


VALIDATORS = (qspace.as_pure_state, qspace.as_qvector, transforms.as_orthogonal,
              simplex.as_prob_vec)
MODULES = [getattr(qig, name) for name in qig.__all__] + [harness]


def validation_counts(monkeypatch, names, config):
    """Calls to the validators, at every name they are bound to, per check run."""
    counts = collections.Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if any(obj is fn for fn in VALIDATORS):
                    patch.setattr(module, attr, counted(obj, attr))
        per_check = {}
        for name in names:
            counts.clear()
            assert harness.run_check(CHECKS[name], config)["status"] == "pass", name
            per_check[name] = dict(counts)
    return per_check


def test_checks_validate_once_per_batch(monkeypatch):
    suites = ("classify", "simulate", "born", "compose")
    names = [name for name in CHECKS if name.split(".")[0] in suites
             and name != "compose.degenerate_grouping"]
    assert len(names) == 11
    runs = [validation_counts(monkeypatch, names, harness.Settings(
        trials=dict.fromkeys(suites, trials))) for trials in (20, 40)]
    assert runs[0] == runs[1]
    for name, counts in runs[0].items():
        # classify and simulate: at most 2 per dimension (4 of them); born and
        # compose: at most 8 per dimension group (3 for born.exact, 4 for compose)
        groups = 3 if name == "born.exact" else 4
        bound = 2 * groups if name.split(".")[0] in suites[:2] else 8 * groups
        assert sum(counts.values()) <= bound, (name, counts)


# ------------------------------------------------------------- leading axes


def draw_state(rng, n=3):
    return sampling.sample_uniform(n, 1, rng)[0]


def draw_basis(rng, n=3):
    return measurement.MeasurementBasis(sampling.haar_unitary(n, rng))


def draw_observable(rng, n=3):
    # values from a few integers, so that some observables are degenerate
    return measurement.Observable(basis=draw_basis(rng, n), values=rng.integers(0, 3, n) * 0.5)


def draw_raw_rep(rng, n=3):
    """Probabilities, about one in three of them 0, and unreduced phases, NaN where p is 0."""
    w = rng.random(n) * (rng.random(n) > 1 / 3)
    w[rng.integers(n)] = 1.0  # never all zero
    p = simplex.renormalized(w)
    return p, np.where(p > 0, rng.uniform(-7.0, 7.0, n), np.nan)


def draw_rep(rng, n=3):
    p, phi = draw_raw_rep(rng, n)
    return qspace.PhaseRep(p=p, phi=phi)


def draw_prob(rng, n=4):
    return draw_raw_rep(rng, n)[0]


def draw_tangent(rng, p):
    dp = np.where(p > 0, rng.normal(size=p.size), 0.0)
    return dp - np.where(p > 0, dp.sum() / np.count_nonzero(p), 0.0)


def draw_gauge_map(rng, n=3):
    return transforms.GaugeMap(kind=str(rng.choice(["unitary", "antiunitary"])),
                               v=sampling.haar_unitary(n, rng))


def draw_ensemble(rng, n=5):
    return dynamics.HJGridState(h=0.1, x0=-0.2, P=draw_prob(rng, n), S=rng.normal(size=n),
                                m=1.0, V=rng.normal(size=n))


# function -> (the function, a draw of one row of its arguments); leading axes
# on every argument must give the row-by-row results
STACKABLE = {
    "simplex.as_prob_vec": (simplex.as_prob_vec, lambda rng: (draw_prob(rng),)),
    "simplex.renormalized": (simplex.renormalized, lambda rng: (rng.random(4),)),
    "simplex.as_tangent_vec": (
        simplex.as_tangent_vec, lambda rng: (draw_tangent(rng, draw_prob(rng)),)),
    "simplex.info_metric_ds2": (
        simplex.info_metric_ds2, lambda rng: (p := draw_prob(rng), draw_tangent(rng, p))),
    "simplex.sqrt_embedding": (simplex.sqrt_embedding, lambda rng: (draw_prob(rng),)),
    "simplex.geodesic_distance": (
        simplex.geodesic_distance, lambda rng: (draw_prob(rng), draw_prob(rng))),
    "qspace.as_pure_state": (qspace.as_pure_state, lambda rng: (draw_state(rng),)),
    "qspace.as_qvector": (
        qspace.as_qvector, lambda rng: (qspace.from_complex(draw_state(rng)),)),
    "qspace.PhaseRep": (lambda p, phi: qspace.PhaseRep(p=p, phi=phi), draw_raw_rep),
    "qspace.from_phase_rep": (qspace.from_phase_rep, lambda rng: (draw_rep(rng),)),
    "qspace.to_phase_rep": (
        qspace.to_phase_rep, lambda rng: (qspace.from_phase_rep(draw_rep(rng)),)),
    "qspace.outcome_probs": (
        qspace.outcome_probs, lambda rng: (qspace.from_phase_rep(draw_rep(rng)),)),
    "qspace.to_complex": (
        qspace.to_complex, lambda rng: (qspace.from_phase_rep(draw_rep(rng)),)),
    "qspace.from_complex": (qspace.from_complex, lambda rng: (draw_state(rng),)),
    "qspace.gauge_shift": (lambda v: qspace.gauge_shift(v, 0.7), lambda rng: (draw_state(rng),)),
    "measurement.MeasurementBasis": (
        measurement.MeasurementBasis, lambda rng: (sampling.haar_unitary(3, rng),)),
    "measurement.Observable": (
        lambda basis, values: measurement.Observable(basis=basis, values=values),
        lambda rng: (draw_basis(rng), rng.normal(size=3))),
    "measurement.Observable.matrix": (
        lambda obs: obs.matrix(), lambda rng: (draw_observable(rng),)),
    "measurement.build_simulation": (
        measurement.build_simulation,
        lambda rng: (draw_basis(rng), rng.uniform(0, 6, 3), rng.uniform(0, 6, 3))),
    "measurement.arrangement_probs": (
        lambda basis, theta, v: measurement.arrangement_probs(
            measurement.build_simulation(basis, theta=theta), v),
        lambda rng: (draw_basis(rng), rng.uniform(0, 6, 3), draw_state(rng))),
    "measurement.born_probs": (
        measurement.born_probs, lambda rng: (draw_state(rng), draw_basis(rng))),
    "measurement.expected_value": (
        measurement.expected_value, lambda rng: (draw_state(rng), draw_observable(rng))),
    "composite.tensor": (
        composite.tensor, lambda rng: (draw_state(rng, 2), draw_state(rng, 3))),
    "composite.compose_phase_reps": (
        composite.compose_phase_reps, lambda rng: (draw_rep(rng, 2), draw_rep(rng, 3))),
    "composite.subsystem_observable first": (
        lambda obs: composite.subsystem_observable(obs, 2),
        lambda rng: (draw_observable(rng),)),
    "composite.energy_additivity_check": (
        lambda s1, s2, e1, e2, dt: composite.energy_additivity_check(s1, s2, e1, e2, dt, 1.5),
        lambda rng: (draw_rep(rng, 2), draw_rep(rng, 3), *rng.normal(scale=3.0, size=2),
                     rng.uniform(0, 2))),
    "dynamics.evolve_stationary": (
        lambda rep, energy, dt: dynamics.evolve_stationary(rep, energy, dt, 1.5),
        lambda rng: (draw_rep(rng), rng.normal(scale=3.0), rng.uniform(0, 2))),
    "dynamics.HJGridState": (
        lambda P, S, V: dynamics.HJGridState(h=0.1, x0=-0.2, P=P, S=S, m=1.0, V=V),
        lambda rng: (draw_prob(rng, 5), rng.normal(size=5), rng.normal(size=5))),
    "dynamics.hj_stationary_step": (
        dynamics.hj_stationary_step,
        lambda rng: (draw_ensemble(rng), rng.normal(scale=2.0), rng.uniform(0, 3))),
    "dynamics.phase_rep_from_hj": (
        lambda state: dynamics.phase_rep_from_hj(state, 1.5), lambda rng: (draw_ensemble(rng),)),
    # accepted maps only: a rejected map has v None alone but zeros in a stack
    "transforms.classify": (
        transforms.classify, lambda rng: (transforms.realify(draw_gauge_map(rng)),)),
    "transforms.block_decomposition": (
        transforms.block_decomposition,
        lambda rng: (transforms.realify(draw_gauge_map(rng)),)),
    "transforms.realify": (transforms.realify, lambda rng: (draw_gauge_map(rng),)),
    "transforms.apply": (transforms.apply, lambda rng: (draw_gauge_map(rng), draw_state(rng))),
    "transforms.compose": (
        transforms.compose, lambda rng: (draw_gauge_map(rng), draw_gauge_map(rng))),
}


def stack(items):
    """One argument stacked from its per-row values."""
    first = items[0]
    if isinstance(first, qspace.PhaseRep):
        return qspace.PhaseRep(p=np.stack([x.p for x in items]),
                               phi=np.stack([x.phi for x in items]))
    if isinstance(first, measurement.MeasurementBasis):
        return measurement.MeasurementBasis(np.stack([x.vectors for x in items]))
    if isinstance(first, measurement.Observable):
        return measurement.Observable(basis=stack([x.basis for x in items]),
                                      values=np.stack([x.values for x in items]))
    if isinstance(first, transforms.GaugeMap):
        return transforms.GaugeMap(kind=np.stack([x.kind for x in items]),
                                   v=np.stack([x.v for x in items]))
    if isinstance(first, dynamics.HJGridState):
        return dynamics.HJGridState(h=first.h, x0=first.x0, P=stack([x.P for x in items]),
                                    S=stack([x.S for x in items]), m=first.m,
                                    V=stack([x.V for x in items]))
    return np.stack(items)


def fields(out):
    """The arrays a result holds."""
    if isinstance(out, qspace.PhaseRep):
        return out.p, out.phi
    if isinstance(out, measurement.MeasurementBasis):
        return (out.vectors,)
    if isinstance(out, measurement.Observable):
        return out.basis.vectors, out.values
    if isinstance(out, measurement.SimulationArrangement):
        return out.basis.vectors, out.U, out.V
    if isinstance(out, transforms.GaugeMap):
        return np.asarray(out.kind), out.v
    if isinstance(out, dynamics.HJGridState):
        return out.P, out.S, out.V
    if isinstance(out, tuple):
        return out
    return (np.asarray(out),)


@pytest.mark.parametrize("name", STACKABLE)
def test_stack_equals_row_calls(name):
    fn, draw = STACKABLE[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    rows = [draw(rng) for _ in range(6)]
    stacked = fields(fn(*[stack(column) for column in zip(*rows)]))
    # two leading axes: the same values, shaped (2, 3, ...)
    grid = fields(fn(*[stack([stack(column[:3]), stack(column[3:])])
                       for column in zip(*rows)]))
    for k, args in enumerate(rows):
        for whole, by_grid, row in zip(stacked, grid, fields(fn(*args))):
            assert_array_equal(whole[k], row)
            assert_array_equal(by_grid[k // 3, k % 3], row)


def test_scalar_calls_keep_their_types():
    rng = np.random.default_rng(8)
    p, p2 = draw_prob(rng), draw_prob(rng)
    s1, s2 = draw_rep(rng, 2), draw_rep(rng, 3)
    obs = draw_observable(rng)
    assert type(simplex.geodesic_distance(p, p2)) is float
    assert type(measurement.expected_value(draw_state(rng), obs)) is float
    assert type(composite.energy_additivity_check(s1, s2, 1.0, 2.0, 0.5, 1.0)) is float
    g = transforms.classify(transforms.realify(draw_gauge_map(rng)))
    rejected = transforms.classify(sampling.haar_from_ginibre(rng.normal(size=(6, 6))))
    assert type(g.kind) is str and type(rejected.kind) is str and rejected.v is None
    assert type(g.is_gauge_invariant) is bool and type(rejected.is_gauge_invariant) is bool
    for m in (transforms.realify(g), sampling.haar_from_ginibre(rng.normal(size=(6, 6)))):
        passed, deviation = transforms.gauge_invariance_witness(m, 8, rng=rng)
        assert type(passed) is bool and type(deviation) is float


def test_functions_of_one_state_reject_stacks():
    rng = np.random.default_rng(9)
    p = np.stack([draw_prob(rng, 3), draw_prob(rng, 3)])
    v = sampling.sample_uniform(3, 2, rng)
    bases = measurement.MeasurementBasis(sampling.haar_unitary(3, rng, count=2))
    arr = measurement.build_simulation(bases)
    standard = measurement.MeasurementBasis.standard(3)
    with pytest.raises(ValueError, match="1-D"):
        simplex.log_bayes_factor(p, p, 10)
    with pytest.raises(ValueError, match="1-D"):
        simplex.simulate_log_evidence(p, p, 10, 5, rng)
    with pytest.raises(ValueError, match="one state and one basis"):
        measurement.degenerate_probs(v, standard, [1.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="one state and one basis"):
        measurement.degenerate_probs(v[0], bases, [1.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="one arrangement"):
        measurement.simulate_batch(arr, v[0], rng.random(4))
    with pytest.raises(ValueError, match="one arrangement"):
        measurement.simulate_measurement(arr, v[0], rng)
    ensembles = dynamics.HJGridState(h=0.1, x0=0.0, P=np.full((2, 6), 1 / 6),
                                     S=np.zeros((2, 6)), m=1.0)
    with pytest.raises(ValueError, match="one ensemble per time"):
        dynamics.hj_residual(lambda t: ensembles, 1.0, 0.1)
    maps = transforms.GaugeMap(kind="unitary", v=sampling.haar_unitary(3, rng, count=2))
    with pytest.raises(ValueError, match="one map"):
        sampling.measure_invariance_check(maps, 100, bins=5, rng=rng)


# -------------------------------------------------------- phase representation


def test_compose_phase_reps_underflow_gets_nan_phase():
    rep = qspace.PhaseRep(p=[1.0, 1e-200], phi=(0.1, 0.2))
    out = composite.compose_phase_reps(rep, rep)
    assert_array_equal(out.p == 0, [False, False, False, True])
    assert np.isnan(out.phi[3]) and not np.isnan(out.phi[:3]).any()


def test_phase_rep_copies_p():
    p = np.array([0.5, 0.5])
    rep = qspace.PhaseRep(p=p, phi=(0.1, 0.2))
    p[0] = 0.0
    assert_array_equal(rep.p, [0.5, 0.5])
    with pytest.raises(ValueError):
        rep.p[0] = 0.0


def test_empty_stacks():
    g = transforms.classify(np.zeros((0, 4, 4)))
    assert g.kind.shape == (0,) and g.v.shape == (0, 2, 2)
    assert transforms.gauge_invariance_witness(np.eye(4), 0, rng=np.random.default_rng(0)) == (
        True, 0.0)
    passed, empty = transforms.gauge_invariance_witness(
        np.zeros((0, 4, 4)), 8, rng=np.random.default_rng(0))
    assert passed.shape == empty.shape == (0,)
    arr = measurement.build_simulation(measurement.MeasurementBasis.standard(2))
    i, out = measurement.simulate_batch(arr, np.zeros((0, 2)), np.zeros(0))
    assert i.shape == (0,) and out.shape == (0, 2)


def test_no_public_function_takes_a_stacked_flag():
    # leading axes are taken in place: a flag would bring back a second implementation
    found = []
    for module in (getattr(qig, name) for name in qig.__all__):
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                    or isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            members = [(name, obj)]
            if isinstance(obj, type):
                members += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                            if callable(member) and not attr.startswith("_")]
            for label, fn in members:
                if callable(fn) and "stacked" in inspect.signature(fn).parameters:
                    found.append(f"{module.__name__}.{label}")
    assert found == []
