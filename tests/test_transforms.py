import numpy as np
import pytest
from numpy.testing import assert_allclose

from qig import qspace, transforms
from qig.sampling import haar_from_ginibre, haar_unitary


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


FLIP = np.diag([1.0, -1.0])


def block_diag(*blocks):
    n = 2 * len(blocks)
    m = np.zeros((n, n))
    for i, b in enumerate(blocks):
        m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = b
    return m


def test_classify_identity():
    g = transforms.classify(np.eye(6))
    assert g.kind == "unitary"
    assert_allclose(g.v, np.eye(3), atol=1e-14)


def test_classify_block_rotations():
    g = transforms.classify(block_diag(rot(0.4), rot(1.9)))
    assert g.kind == "unitary"
    assert_allclose(g.v, np.diag(np.exp(1j * np.array([0.4, 1.9]))), atol=1e-14)


def test_classify_pure_conjugation():
    g = transforms.classify(block_diag(FLIP, FLIP))
    assert g.kind == "antiunitary"
    assert_allclose(g.v, np.eye(2), atol=1e-14)


def test_classify_rejects_mixed_sigma():
    g = transforms.classify(block_diag(rot(0.3), rot(0.5) @ FLIP))
    assert g.kind == "not_gauge_invariant"
    assert "mixed" in g.diagnostic


def test_classify_rejects_generic_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = transforms.classify(haar_from_ginibre(rng.normal(size=(4, 4))))
        assert g.kind == "not_gauge_invariant"


def test_classify_requires_orthogonal_input():
    with pytest.raises(ValueError):
        transforms.classify(np.ones((4, 4)))


def test_realify_unitary_examples():
    assert_allclose(transforms.realify_unitary(np.eye(3)), np.eye(6), atol=0)
    theta = 0.8
    m = transforms.realify_unitary(np.diag([np.exp(1j * theta)]))
    assert_allclose(m, rot(theta), atol=1e-15)


def test_realify_antiunitary_examples():
    assert_allclose(transforms.realify_antiunitary(np.eye(2)),
                    block_diag(FLIP, FLIP), atol=0)


def test_realify_rejects_non_unitary():
    with pytest.raises(ValueError):
        transforms.realify_unitary(1.1 * np.eye(2))


def test_roundtrip_haar_unitaries():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            v = haar_unitary(n, rng)
            gu = transforms.classify(transforms.realify_unitary(v))
            assert gu.kind == "unitary"
            assert np.max(np.abs(gu.v - v)) < 1e-9
            ga = transforms.classify(transforms.realify_antiunitary(v))
            assert ga.kind == "antiunitary"
            assert np.max(np.abs(ga.v - v)) < 1e-9


def test_apply_identity_and_conjugation():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    ident = transforms.GaugeMap(kind="unitary", v=np.eye(2, dtype=complex))
    assert_allclose(transforms.apply(ident, v), v, atol=0)
    conj = transforms.GaugeMap(kind="antiunitary", v=np.eye(2, dtype=complex))
    assert_allclose(transforms.apply(conj, v), np.array([1.0, -1j]) / np.sqrt(2))


def test_apply_rejects_invalid():
    bad = transforms.GaugeMap(kind="not_gauge_invariant", diagnostic="x")
    with pytest.raises(ValueError):
        transforms.apply(bad, np.array([1.0, 0.0]))
    u = haar_unitary(3, np.random.default_rng(0))
    for kind in ("unitary", "antiunitary"):
        g = transforms.GaugeMap(kind=kind, v=u)
        for v in ([1.0, 0.0], np.eye(4)[:2], 1.0):
            with pytest.raises(ValueError, match="state and map dimensions differ"):
                transforms.apply(g, v)
    stacked = transforms.GaugeMap(kind=np.array(["unitary", "antiunitary"]), v=np.stack([u, u]))
    with pytest.raises(ValueError, match="state and map dimensions differ"):
        transforms.apply(stacked, np.eye(2))


def test_apply_matches_real_action():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        v = haar_unitary(n, rng)
        state = rng.normal(size=n) + 1j * rng.normal(size=n)
        state /= np.linalg.norm(state)
        for maker, kind in ((transforms.realify_unitary, "unitary"),
                            (transforms.realify_antiunitary, "antiunitary")):
            g = transforms.GaugeMap(kind=kind, v=v)
            via_complex = transforms.apply(g, state)
            via_real = qspace.to_complex(maker(v) @ qspace.from_complex(state))
            assert np.max(np.abs(via_complex - via_real)) < 1e-10
            assert abs(np.linalg.norm(via_complex) - 1.0) < 1e-12


def test_witness_accepts_realified_maps():
    rng = np.random.default_rng(3)
    v = haar_unitary(3, rng)
    for m in (transforms.realify_unitary(v), transforms.realify_antiunitary(v)):
        passed, dev = transforms.gauge_invariance_witness(m, trials=50, rng=rng)
        assert passed
        assert dev < 1e-12


def test_witness_rejects_generic_maps():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = haar_from_ginibre(rng.normal(size=(6, 6)))
        passed, dev = transforms.gauge_invariance_witness(m, trials=10, rng=rng)
        assert not passed
        assert dev > 1e-2


def test_witness_agrees_with_classify():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        if rng.integers(0, 2):
            v = haar_unitary(n, rng)
            maker = (transforms.realify_unitary if rng.integers(0, 2)
                     else transforms.realify_antiunitary)
            m = maker(v)
        else:
            m = haar_from_ginibre(rng.normal(size=(2 * n, 2 * n)))
        verdict = transforms.classify(m).is_gauge_invariant
        passed, _ = transforms.gauge_invariance_witness(m, trials=10, rng=rng)
        assert verdict == passed


def test_composition_table():
    rng = np.random.default_rng(6)
    makers = {"unitary": transforms.realify_unitary,
              "antiunitary": transforms.realify_antiunitary}
    for k1 in makers:
        for k2 in makers:
            v1, v2 = haar_unitary(3, rng), haar_unitary(3, rng)
            g1 = transforms.GaugeMap(kind=k1, v=v1)
            g2 = transforms.GaugeMap(kind=k2, v=v2)
            composed = transforms.compose(g1, g2)
            # matrix product of realifications must classify to the same map
            m = makers[k1](v1) @ makers[k2](v2)
            direct = transforms.classify(m)
            assert direct.kind == composed.kind
            assert np.max(np.abs(direct.v - composed.v)) < 1e-9
            # and the action on states must agree
            state = haar_unitary(3, rng)[:, 0]
            a = transforms.apply(composed, state)
            b = transforms.apply(g1, transforms.apply(g2, state))
            assert np.max(np.abs(a - b)) < 1e-12


def test_inverse_closure():
    rng = np.random.default_rng(7)
    for kind, maker in (("unitary", transforms.realify_unitary),
                        ("antiunitary", transforms.realify_antiunitary)):
        v = haar_unitary(4, rng)
        m = maker(v)
        g_inv = transforms.classify(m.T)
        assert g_inv.kind == kind
        expected = v.conj().T if kind == "unitary" else v.T
        assert np.max(np.abs(g_inv.v - expected)) < 1e-9


def test_antiunitary_maps_are_far_from_identity():
    # tr(realify_antiunitary(V)) = 0, so ||M - I||_F = 2 sqrt(N)
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        for _ in range(20):
            m = transforms.realify_antiunitary(haar_unitary(n, rng))
            dist = np.linalg.norm(m - np.eye(2 * n))
            assert dist >= 2.0 * np.sqrt(2.0) - 1e-9


def test_unitary_family_connected_to_identity():
    # shrink the generator: the realified map converges to the identity
    # while remaining classified unitary along the whole path
    rng = np.random.default_rng(9)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (z - z.conj().T) / 2.0
    from scipy.linalg import expm
    dists = []
    for t in (1.0, 0.5, 0.1, 0.01):
        v = expm(t * h)
        m = transforms.realify_unitary(v)
        assert transforms.classify(m).kind == "unitary"
        dists.append(np.linalg.norm(m - np.eye(6)))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 0.1

