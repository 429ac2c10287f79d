import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qig import simplex


def test_prob_vec_validation():
    simplex.as_prob_vec([0.25, 0.75])
    with pytest.raises(ValueError):
        simplex.as_prob_vec([0.5, 0.6])
    with pytest.raises(ValueError):
        simplex.as_prob_vec([-0.1, 1.1])
    assert_allclose(simplex.renormalized([2.0, 6.0]), [0.25, 0.75])


def test_tangent_vec_must_sum_to_zero():
    simplex.as_tangent_vec([0.1, -0.1])
    with pytest.raises(ValueError):
        simplex.as_tangent_vec([0.1, 0.1])


def test_info_metric_symmetric_case():
    eps = 1e-3
    ds2 = simplex.info_metric_ds2([0.5, 0.5], [eps, -eps])
    assert_allclose(ds2, eps**2, rtol=1e-14)


def test_info_metric_zero_displacement():
    assert simplex.info_metric_ds2([0.3, 0.7], [0.0, 0.0]) == 0.0


def test_info_metric_quarter_three_quarter():
    # oracle: finite difference of the geodesic distance, Richardson step.
    # the one-sided difference has a first-order error term, so halving
    # the step and extrapolating uses 2 f(h/2) - f(h)
    p = np.array([0.25, 0.75])
    vals = []
    for eps in (1e-3, 5e-4):
        d = simplex.geodesic_distance(p, p + [eps, -eps])
        vals.append(d**2 / eps**2)
    limit = 2.0 * vals[1] - vals[0]
    assert_allclose(limit, 4.0 / 3.0, rtol=1e-4)
    ds2 = simplex.info_metric_ds2(p, [1e-3, -1e-3])
    assert_allclose(ds2, (4.0 / 3.0) * 1e-6, rtol=1e-12)


def test_info_metric_boundary_entry():
    # zero probability with zero displacement is skipped
    assert simplex.info_metric_ds2([1.0, 0.0], [0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        simplex.info_metric_ds2([1.0, 0.0], [-1e-3, 1e-3])


def test_info_metric_dimension_mismatch():
    with pytest.raises(ValueError):
        simplex.info_metric_ds2([0.5, 0.5], [0.1, -0.05, -0.05])


def test_sqrt_embedding():
    assert_allclose(simplex.sqrt_embedding([1.0, 0.0]), [1.0, 0.0])
    assert_allclose(simplex.sqrt_embedding([0.25, 0.75]),
                    [0.5, np.sqrt(0.75)], rtol=1e-15)
    m = 7
    uniform = simplex.sqrt_embedding(np.full(m, 1.0 / m))
    assert_allclose(uniform, np.full(m, 1.0 / np.sqrt(m)), rtol=1e-15)
    assert_allclose(np.linalg.norm(uniform), 1.0, rtol=1e-15)


def test_metric_is_pullback_of_euclidean():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(2, 8))
        p = simplex.renormalized(rng.random(m) + 0.02)
        dp = rng.normal(size=m)
        dp -= dp.mean()
        ds2 = simplex.info_metric_ds2(p, dp)
        dq2 = np.sum((dp / (2.0 * np.sqrt(p))) ** 2)
        assert abs(ds2 - dq2) < 1e-12 * max(1.0, ds2)


def test_geodesic_distance_basics():
    p = simplex.renormalized([1.0, 2.0, 3.0])
    assert simplex.geodesic_distance(p, p) == 0.0
    assert_allclose(simplex.geodesic_distance([1.0, 0.0], [0.0, 1.0]),
                    np.pi / 2, rtol=1e-15)
    q = simplex.renormalized([3.0, 1.0, 1.0])
    assert simplex.geodesic_distance(p, q) == simplex.geodesic_distance(q, p)


SCALES = [10.0**-k for k in range(2, 9)]


def short_pairs(count, seed):
    """``count`` points ``p`` (m = 2..5 outcomes) with unit tangent displacements ``dp``."""
    rng = np.random.default_rng(seed)
    for m in rng.integers(2, 6, count):
        dp = rng.normal(size=m)
        yield simplex.renormalized(rng.random(m) + 0.1), (dp - dp.mean()) / np.linalg.norm(dp)


def test_short_distances_match_an_extended_precision_reference():
    # The doubles given are taken as exact; the reference works at 60 digits and, for the
    # geodesic, normalizes them.  The chord of the square roots carries their rounding,
    # about eps sqrt(p), so the geodesic's relative error grows as 1/s; over 300 draws it
    # was at most 2e-15 / s (8.3e-14 at s = 1e-2, 2.0e-7 at 1e-8), so the bound is ten
    # times that.  The arccos(sum sqrt(p p2)) form cancels instead: 3e-10 at 1e-2 and 18
    # at 1e-8 on these draws.  The log Bayes factor sums terms of size s to a total of size
    # s^2, so its relative error grows as 1/s too: at most 8.6e-15 / s over these 700
    # points, bound 1e-13 / s.  Its n sum p ln(p / p2) form cancels in the logarithm: up
    # to 3.0e-7 / s, failing from s = 1e-4 down.  info_metric_ds2 is a control, at most
    # 2.7e-16 at every scale.
    mpmath = pytest.importorskip("mpmath")
    mp = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workdps(60):
        for (p, dp), s in itertools.product(short_pairs(100, seed=2), SCALES):
            p2 = simplex.renormalized(p + s * dp)
            a, b = (np.vectorize(mpmath.sqrt)(mp(x) / mpmath.fsum(mp(x))) for x in (p, p2))
            exact = 2 * mpmath.asin(mpmath.sqrt(mpmath.fsum((a - b) ** 2)) / 2)
            rel = float(abs(simplex.geodesic_distance(p, p2) / exact - 1))
            assert rel <= 2e-14 / s, (p, dp, s, rel)
            exact = 7 * mpmath.fsum(mp(p) * np.vectorize(mpmath.log)(mp(p) / mp(p2)))
            rel = float(abs(simplex.log_bayes_factor(p, p2, 7) / exact - 1))
            assert rel <= 1e-13 / s, (p, dp, s, rel)
            exact = mpmath.fsum(mp(s * dp) ** 2 / mp(p)) / 4
            assert float(abs(simplex.info_metric_ds2(p, s * dp) / exact - 1)) <= 1e-15, (p, s)


@pytest.mark.parametrize("q", [1e-17, 5e-11, 0.3, 0.5 - 1e-9])
def test_log_evidence_matches_an_extended_precision_reference_at_any_separation(q):
    # p = (1/2, 1/2) against p2 = (1 - q, q), the doubles taken as exact: ratios p2_i / p_i
    # from 2e-17 to 1 - 2e-9.  Each value is a sum of terms c_i ln(p_i / p2_i), held to
    # 1e-15 of the sum of their magnitudes (measured at most 1.2e-16).  A log1p((p2 - p) / p)
    # ratio returns inf at q = 1e-17 and is 5e-8 off at 5e-11; ln(p / p2) is 5e-8 off at
    # 0.5 - 1e-9, where the ratio of two doubles rounds.
    mpmath = pytest.importorskip("mpmath")
    p, p2, n = np.array([0.5, 0.5]), np.array([1 - q, q]), 10
    counts = np.vstack([p * n, np.random.default_rng(0).multinomial(n, p, size=20)])
    got = np.append(simplex.log_bayes_factor(p, p2, n),
                    simplex.simulate_log_evidence(p, p2, n, 20, np.random.default_rng(0)))
    with mpmath.workdps(60):
        ratio = [mpmath.log(mpmath.mpf(a) / mpmath.mpf(b)) for a, b in zip(p, p2)]
        for c, value in zip(counts, got):
            exact = mpmath.fsum(mpmath.mpf(k) * r for k, r in zip(c, ratio))
            size = mpmath.fsum(k * abs(r) for k, r in zip(c, ratio))
            assert float(abs(value - exact) / size) <= 1e-15, (c, value, exact)


def test_geodesic_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        a, b, c = (simplex.renormalized(rng.random(m) + 1e-3) for _ in range(3))
        ab = simplex.geodesic_distance(a, b)
        bc = simplex.geodesic_distance(b, c)
        ac = simplex.geodesic_distance(a, c)
        assert ac <= ab + bc + 1e-12


def test_log_bayes_factor_identical_coins():
    assert simplex.log_bayes_factor([0.5, 0.5], [0.5, 0.5], 100) == 0.0


def test_log_bayes_factor_direct_sum():
    # direct summation oracle n * (p1 ln(p1/q1) + p2 ln(p2/q2)), summed by mpmath at 50
    # digits with q = (0.6, 0.4) as doubles; the same sum in doubles is 1.6e-15 off it
    expected = 2.0410997260127555
    got = simplex.log_bayes_factor([0.5, 0.5], [0.6, 0.4], 100)
    assert_allclose(got, expected, rtol=1e-15)
    assert_allclose(got, 2.0411, atol=5e-5)


def test_log_bayes_factor_support_mismatch():
    with pytest.raises(simplex.SupportMismatchError):
        simplex.log_bayes_factor([0.5, 0.5], [1.0, 0.0], 10)


def test_log_bayes_factor_metric_expansion():
    # lbf(p, p+dp, n) ~ 2n ds^2, converging at least first order in |dp|
    p = np.array([0.5, 0.5])
    n = 100
    devs = []
    for delta in (1e-2, 1e-3, 1e-4):
        dp = np.array([delta, -delta])
        ratio = simplex.log_bayes_factor(p, p + dp, n) / (
            2.0 * n * simplex.info_metric_ds2(p, dp))
        devs.append(abs(ratio - 1.0))
    assert devs[1] < devs[0] / 10.0
    assert devs[2] < devs[1] / 10.0


def test_monte_carlo_log_evidence_matches_analytic():
    rng = np.random.default_rng(3)
    p = np.array([0.5, 0.5])
    q = np.array([0.55, 0.45])
    n, datasets = 200, 100_000
    values = simplex.simulate_log_evidence(p, q, n, datasets, rng)
    analytic = simplex.log_bayes_factor(p, q, n)
    se = values.std(ddof=1) / np.sqrt(datasets)
    assert abs(values.mean() - analytic) < 3.0 * se
