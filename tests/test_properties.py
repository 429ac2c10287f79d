"""Property tests of the phase representation (round trip, composition, NaN mask), of the
complex and real forms of a state, and of realify -> classify."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from qig import composite, dynamics, qspace, sampling, transforms

TWO_PI = 2.0 * np.pi

# phases at and around the ends of [0, 2pi), where reduction can misfire
EDGE_PHASES = [0.0, 1e-300, -1e-300, -1e-20, 1e-15, np.nextafter(TWO_PI, 0.0),
               TWO_PI, TWO_PI - 1e-12, TWO_PI + 1e-12, -np.pi]
phases = st.one_of(st.sampled_from(EDGE_PHASES), st.floats(-20.0, 20.0))
weights = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def phase_reps(draw, max_dim=4):
    """A PhaseRep with some zero-probability results, built from tuples with None."""
    n = draw(st.integers(1, max_dim))
    w = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    if w.sum() == 0:
        w[draw(st.integers(0, n - 1))] = 1.0
    p = w / w.sum()
    phi = tuple(draw(phases) if pi > 0 else None for pi in p)
    return qspace.PhaseRep(p=p, phi=phi)


def amplitudes(rep):
    return qspace.to_complex(qspace.from_phase_rep(rep))


def assert_phase_invariant(rep):
    """NaN exactly at p == 0, every present phase in [0, 2pi)."""
    assert_array_equal(np.isnan(rep.phi), rep.p == 0)
    live = rep.phi[rep.p > 0]
    assert np.all((live >= 0.0) & (live < TWO_PI))


def circular_distance(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


@settings(deadline=None, database=None)
@given(phase_reps())
def test_phase_rep_round_trip(rep):
    back = qspace.to_phase_rep(qspace.from_phase_rep(rep))
    assert_allclose(back.p, rep.p, rtol=0, atol=1e-12)
    assert_array_equal(np.isnan(back.phi), np.isnan(rep.phi))
    live = rep.p > 0
    assert np.max(circular_distance(back.phi[live], rep.phi[live])) < 1e-12


@settings(deadline=None, database=None)
@given(phase_reps(), phase_reps())
def test_composition_is_kronecker_product(s1, s2):
    joint = composite.compose_phase_reps(s1, s2)
    assert_allclose(amplitudes(joint), np.kron(amplitudes(s1), amplitudes(s2)),
                    rtol=0, atol=1e-12)


@settings(deadline=None, database=None)
@given(phase_reps(), phase_reps(), st.floats(-5.0, 5.0), st.floats(0.0, 3.0))
def test_nan_marks_zero_probability_on_every_path(s1, s2, energy, dt):
    assert_phase_invariant(s1)
    assert_phase_invariant(qspace.to_phase_rep(qspace.from_phase_rep(s1)))
    assert_phase_invariant(composite.compose_phase_reps(s1, s2))
    assert_phase_invariant(dynamics.evolve_stationary(s1, energy, dt, alpha=1.0))
    S = np.where(s1.p > 0, s1.phi, 0.0) + energy
    state = dynamics.HJGridState(h=0.1, x0=0.0, P=s1.p, S=S, m=1.0)
    assert_phase_invariant(dynamics.phase_rep_from_hj(state, alpha=1.0))


STACKS = st.sampled_from([(), (1,), (3,)])  # one item, or a stack of one or three


@st.composite
def unit_states(draw, max_dim=4):
    """Unit complex states (..., N): one, or a stack."""
    shape = draw(STACKS) + (draw(st.integers(1, max_dim)), 2)
    x = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    v = x[..., 0] + 1j * x[..., 1]
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    assume(np.all(norm > 1e-3))
    return v / norm


@settings(deadline=None, database=None)
@given(unit_states())
def test_complex_and_real_forms_are_exact_inverses(v):
    q = qspace.from_complex(v)
    assert q.shape == v.shape[:-1] + (2 * v.shape[-1],)
    assert_array_equal(qspace.to_complex(q), v)
    assert_array_equal(qspace.from_complex(qspace.to_complex(q)), q)


@st.composite
def gauge_maps(draw, max_dim=4):
    """A unitary or antiunitary map, or a stack of maps of mixed kinds.

    Each matrix is Haar, or a permutation of phases, whose zero blocks and phases near
    0 and 2pi test the block decomposition at its edges.
    """
    stack, n = draw(STACKS), draw(st.integers(1, max_dim))
    count = int(np.prod(stack))
    kinds = draw(st.lists(st.sampled_from(["unitary", "antiunitary"]),
                          min_size=count, max_size=count))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        v = sampling.haar_unitary(n, np.random.default_rng(seed), count=count)
    else:
        theta = draw(arrays(float, (count, n), elements=phases))
        v = np.exp(1j * theta)[..., None] * np.eye(n)[draw(st.permutations(range(n)))]
    kind = np.array(kinds).reshape(stack) if stack else kinds[0]
    return transforms.GaugeMap(kind=kind, v=v.reshape(stack + (n, n)))


@settings(deadline=None, database=None)
@given(gauge_maps())
def test_classify_recovers_the_realified_map(g):
    back = transforms.classify(transforms.realify(g))
    assert_array_equal(back.kind, g.kind)
    assert_allclose(back.v, g.v, rtol=0, atol=1e-12)
