import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qig import dynamics, qspace, simplex


def random_phase_rep(n, rng, full_support=True):
    p = rng.random(n) + (0.05 if full_support else 0.0)
    if not full_support and n > 1:
        p[rng.integers(0, n)] = 0.0
    p = p / p.sum()
    phi = tuple(rng.uniform(0, 2 * np.pi) if pi > 0 else None for pi in p)
    return qspace.PhaseRep(p=p, phi=phi)


def test_phase_rep_validation():
    with pytest.raises(ValueError):
        qspace.PhaseRep(p=[0.5, 0.5], phi=(0.0, None))  # missing phase
    with pytest.raises(ValueError):
        qspace.PhaseRep(p=[1.0, 0.0], phi=(0.0, 0.0))  # phase at p=0
    rep = qspace.PhaseRep(p=[1.0, 0.0], phi=(-np.pi, None))
    assert rep.phi[0] == pytest.approx(np.pi)  # stored in [0, 2pi)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: simplex.as_prob_vec([np.nan, 0.5]), id="as_prob_vec"),
    pytest.param(lambda: simplex.renormalized([np.nan, 1.0]), id="renormalized-nan"),
    pytest.param(lambda: simplex.renormalized([np.inf, 1.0]), id="renormalized-inf"),
    pytest.param(lambda: simplex.as_tangent_vec([np.nan, 0.0]), id="as_tangent_vec"),
    pytest.param(lambda: qspace.as_qvector([np.nan, 0.0]), id="as_qvector"),
    pytest.param(lambda: qspace.as_pure_state([np.nan]), id="as_pure_state"),
    pytest.param(lambda: qspace.to_phase_rep([np.nan, 0.0]), id="to_phase_rep"),
    pytest.param(lambda: qspace.PhaseRep(p=[1.0], phi=(np.inf,)), id="phase-inf"),
    pytest.param(lambda: qspace.PhaseRep(p=[1.0], phi=(np.nan,)), id="phase-nan"),
    pytest.param(lambda: qspace.PhaseRep(p=[1.0, 0.0], phi=(0.0, -np.inf)),
                 id="phase-inf-at-p0"),
    pytest.param(lambda: dynamics.HJGridState(h=0.1, x0=0.0, P=[np.nan, 1.0],
                                              S=[0.0, 0.0], m=1.0), id="HJGridState"),
])
def test_validators_reject_non_finite(build):
    with pytest.raises(ValueError):
        build()


def test_phases_stay_below_two_pi():
    assert qspace.PhaseRep(p=[1.0], phi=(-1e-20,)).phi[0] == 0.0
    assert qspace.to_phase_rep([1.0, -1e-300]).phi[0] == 0.0


def test_phases_are_read_only():
    rep = qspace.PhaseRep(p=[0.5, 0.5], phi=(0.1, 0.2))
    with pytest.raises(ValueError):
        rep.phi[0] = 0.3


def test_from_phase_rep_vertex():
    rep = qspace.PhaseRep(p=[1.0, 0.0], phi=(0.0, None))
    assert_allclose(qspace.from_phase_rep(rep), [1, 0, 0, 0], atol=1e-15)


def test_from_phase_rep_half_half():
    rep = qspace.PhaseRep(p=[0.5, 0.5], phi=(0.0, np.pi / 2))
    r = np.sqrt(0.5)
    assert_allclose(qspace.from_phase_rep(rep), [r, 0, 0, r], atol=1e-15)


def test_from_phase_rep_always_unit():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rep = random_phase_rep(int(rng.integers(1, 6)), rng,
                               full_support=bool(rng.integers(0, 2)))
        q = qspace.from_phase_rep(rep)
        qspace.as_qvector(q)


def test_to_phase_rep_examples():
    rep = qspace.to_phase_rep(np.array([1.0, 0, 0, 0]))
    assert_allclose(rep.p, [1, 0], atol=1e-15)
    assert_array_equal(rep.phi, [0.0, np.nan])

    rep = qspace.to_phase_rep(np.array([0.6, 0, 0, 0.8]))
    assert_allclose(rep.p, [0.36, 0.64], rtol=1e-15)
    assert rep.phi[0] == 0.0
    assert rep.phi[1] == pytest.approx(np.pi / 2)


def test_phase_rep_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        rep = random_phase_rep(int(rng.integers(1, 6)), rng)
        back = qspace.to_phase_rep(qspace.from_phase_rep(rep))
        assert_allclose(back.p, rep.p, atol=1e-12)
        for f1, f2 in zip(back.phi, rep.phi):
            d = abs(f1 - f2) % (2 * np.pi)
            assert min(d, 2 * np.pi - d) < 1e-12


def test_qvector_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        q = rng.normal(size=2 * n)
        q /= np.linalg.norm(q)
        back = qspace.from_complex(qspace.to_complex(q))
        assert_allclose(back, q, rtol=0, atol=0)  # exact


def test_gauge_shift():
    rng = np.random.default_rng(5)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    assert_allclose(qspace.gauge_shift(v, 0.0), v, rtol=0, atol=0)
    assert_allclose(qspace.gauge_shift(v, 2 * np.pi), v, atol=1e-12)
    shifted = qspace.gauge_shift(v, 1.3)
    assert_allclose(np.abs(shifted) ** 2, np.abs(v) ** 2, rtol=1e-14)
    # group property
    a = qspace.gauge_shift(qspace.gauge_shift(v, 0.7), 0.9)
    b = qspace.gauge_shift(v, 1.6)
    assert_allclose(a, b, atol=1e-12)


def test_to_complex_examples():
    assert_allclose(qspace.to_complex(np.array([1.0, 0, 0, 0])), [1, 0])
    assert_allclose(qspace.to_complex(np.array([0.0, 1, 0, 0])), [1j, 0])
    assert_allclose(qspace.from_complex(np.array([1j, 0])), [0, 1, 0, 0])


def test_euclidean_metric_pullback():
    # sum dQ^2 equals (1/4) sum dP^2/P via central differences
    rng = np.random.default_rng(6)
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q = rng.uniform(0.2, 1.0, 2 * n) * rng.choice([-1.0, 1.0], 2 * n)
        q /= np.linalg.norm(q)
        d = rng.normal(size=2 * n)
        d -= (d @ q) * q
        d *= h / np.linalg.norm(d)
        qp = (q + d) / np.linalg.norm(q + d)
        qm = (q - d) / np.linalg.norm(q - d)
        dq2 = np.sum((qp - qm) ** 2)
        ds2 = 0.25 * np.sum((qp**2 - qm**2) ** 2 / q**2)
        assert abs(ds2 - dq2) / dq2 < 1e-8

