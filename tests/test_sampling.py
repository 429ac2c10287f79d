import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from qig import sampling, transforms


def test_sampler_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sampling.sample_uniform(0, 1, rng)
    with pytest.raises(ValueError):
        sampling.sample_uniform(2, 0, rng)


def test_samples_are_normalized_and_deterministic():
    a = sampling.sample_uniform(4, 100, np.random.default_rng(99))
    b = sampling.sample_uniform(4, 100, np.random.default_rng(99))
    assert np.array_equal(a, b)
    norms = np.linalg.norm(a, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_haar_matrices_are_unitary():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        u = sampling.haar_unitary(n, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
        o = sampling.haar_orthogonal(n, rng)
        assert np.max(np.abs(o.T @ o - np.eye(n))) < 1e-12
        assert np.isrealobj(o)


def test_haar_unitary_eigenangles_uniform():
    # eigenvalue arguments of a Haar unitary are uniform marginally
    rng = np.random.default_rng(1)
    angles = []
    for _ in range(2000):
        u = sampling.haar_unitary(3, rng)
        angles.extend(np.angle(np.linalg.eigvals(u)))
    u01 = (np.array(angles) % (2 * np.pi)) / (2 * np.pi)
    assert stats.kstest(u01, "uniform").pvalue > 1e-4


def test_component_probability_beta_law():
    # |v_0|^2 of a uniform state in dimension N is Beta(1, N-1)
    for n in (2, 3, 5):
        states = sampling.sample_uniform(n, 20000, np.random.default_rng(7))
        probs = np.abs(states[:, 0]) ** 2
        assert stats.kstest(probs, stats.beta(1, n - 1).cdf).pvalue > 1e-4


def test_metric_invariance_of_gauge_maps():
    rng = np.random.default_rng(2)
    for kind in ("unitary", "antiunitary"):
        g = transforms.GaugeMap(kind=kind, v=sampling.haar_unitary(3, rng))
        worst = sampling.metric_invariance_check(g, pairs=200, rng=np.random.default_rng(5))
        assert worst < 1e-10


def test_metric_invariance_rejects_invalid_map():
    bad = transforms.GaugeMap(kind="not_gauge_invariant", diagnostic="x")
    with pytest.raises(ValueError):
        sampling.metric_invariance_check(bad, 10, np.random.default_rng(0))


def test_measure_invariance_accepts_gauge_maps():
    rng = np.random.default_rng(3)
    for kind in ("unitary", "antiunitary"):
        g = transforms.GaugeMap(kind=kind, v=sampling.haar_unitary(3, rng))
        result = sampling.measure_invariance_check(g, samples=20000, bins=40,
                                                   rng=np.random.default_rng(11))
        assert result["adjusted_p"] > sampling.SIGNIFICANCE
        threshold = sampling.SIGNIFICANCE / len(result["p_values"])
        assert all(p >= threshold for p in result["p_values"].values())


def test_measure_invariance_negative_control():
    # componentwise squaring then renormalizing is not measure preserving
    def squarer(states):
        return states ** 2

    result = sampling.pushforward_uniformity(squarer, 3, samples=20000, bins=40,
                                             rng=np.random.default_rng(13))
    assert not result["adjusted_p"] > sampling.SIGNIFICANCE


def test_measure_invariance_deterministic():
    rng = np.random.default_rng(4)
    g = transforms.GaugeMap(kind="unitary", v=sampling.haar_unitary(2, rng))
    r1 = sampling.measure_invariance_check(g, samples=5000, bins=25,
                                           rng=np.random.default_rng(17))
    r2 = sampling.measure_invariance_check(g, samples=5000, bins=25,
                                           rng=np.random.default_rng(17))
    assert r1 == r2


def test_chi2_pvalue_equals_scipy_stats():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for bins, power in ((25, 1.0), (40, 1.05), (50, 1.2)):
            u = rng.random(5000) ** power
            counts, _ = np.histogram(u, bins=bins, range=(0.0, 1.0))
            ref = stats.chisquare(counts).pvalue  # the chi2.sf of the statistic, bins - 1 dof
            assert ref > 0
            assert_allclose(sampling._chi2_uniform(u, bins), ref, rtol=1e-12, atol=0)


def reference_uniformity_pvalues(states, bins):
    """``sampling._uniformity_pvalues`` with one ``np.angle`` per phase pair, kept verbatim."""
    count, n = states.shape
    pvals = {}
    probs = np.abs(states) ** 2
    for i in range(n if n > 1 else 0):  # |v_0|^2 = 1 identically when n = 1
        u = 1.0 - (1.0 - probs[:, i]) ** (n - 1)
        pvals[f"|v_{i}|^2"] = reference_chi2_uniform(u, bins)
    for i in range(n):
        for j in range(i + 1, n):
            rel = np.angle(states[:, i] * states[:, j].conj()) % (2.0 * np.pi)
            pvals[f"arg(v_{i}/v_{j})"] = reference_chi2_uniform(rel / (2.0 * np.pi), bins)
    return pvals


def reference_chi2_uniform(u, bins):
    """``sampling._chi2_uniform`` counting with ``np.histogram``, kept verbatim."""
    from scipy.special import chdtrc

    counts, _ = np.histogram(u, bins=bins, range=(0.0, 1.0))
    expected = u.size / bins
    stat = np.sum((counts - expected) ** 2 / expected)
    return float(chdtrc(bins - 1, stat))


@pytest.mark.parametrize("bins", [25, 40, 50])
def test_uniformity_pvalues_equal_the_histogram_reference(bins):
    # the phases differ from the reference's in the last bits, so a value could
    # change bins only within an ulp or so of an edge: never, in this sweep
    for seed in range(8):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 5):
            states = sampling.sample_uniform(n, 5000, rng)
            squared = states**2 / np.linalg.norm(states**2, axis=1, keepdims=True)
            for sample in (states, squared):
                assert sampling._uniformity_pvalues(sample, bins) == (
                    reference_uniformity_pvalues(sample, bins))


@pytest.mark.parametrize("bins", [25, 40, 50])
def test_chi2_counts_edges_as_the_histogram_reference(bins):
    # within an ulp of an edge floor(u * bins) can miss np.histogram's bin (3/40
    # lies below linspace's edge 3 * 0.025); NaN, -0.0 and values outside [0, 1]
    # must be counted as np.histogram counts them, and 1.0 falls in the last bin
    edges = np.concatenate([np.arange(bins + 1) / bins, np.linspace(0.0, 1.0, bins + 1)])
    below, above = np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)
    near = [edges, below, above, np.nextafter(below, -1.0), np.nextafter(above, 2.0)]
    odd = [np.nan, -0.0, 1.0, 1.0, -1e-300, 1.5, np.inf, -np.inf]
    rng = np.random.default_rng(bins)
    for fill in (0, 2000):
        u = rng.permutation(np.concatenate(near + [odd, rng.random(fill)]))
        assert sampling._chi2_uniform(u, bins) == reference_chi2_uniform(u, bins)
    outside = np.array(odd[-4:] + [np.nan])  # nothing counted
    assert sampling._chi2_uniform(outside, bins) == reference_chi2_uniform(outside, bins)


@pytest.mark.parametrize("n, m", [(20000, 20000), (20000, 12000)])
def test_ks_pvalue_matches_scipy_stats(n, m):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=m)
        ref = stats.ks_2samp(x, y, method="asymp")
        p = sampling._ks_pvalue(x, y)
        # the same statistic: its Kolmogorov tail is the helper's p-value, bit for bit
        assert p == special.kolmogorov(np.sqrt(n * m / (n + m)) * ref.statistic)
        # scipy's asymptotic two-sided p-value is the finite-n Kolmogorov law at
        # n m / (n + m) points; over seeds 0..999 of these draws the two differed
        # by at most 1.5 % relative, and the bound allows twice that
        assert_allclose(p, ref.pvalue, rtol=0.03, atol=0)
