import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from qig import harness, sampling, transforms


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
        o = sampling.haar_from_ginibre(rng.normal(size=(n, n)))
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
            p = sampling._chi2_pvalue(sampling._bin_counts(u, bins), u.size)
            assert_allclose(p, ref, rtol=1e-12, atol=0)


# largest relative error of the stdlib tails against scipy.special allowed by the
# tests below; over their sweeps the errors were at most 4.6e-14 (chi-squared,
# where erfc(sqrt(x / 2)) alone amplifies rounding by about x) and 9.4e-15 (Kolmogorov)
TAIL_RTOL = 1e-13


@pytest.mark.parametrize("df", [1, 2, 9, 24, 49])
def test_chi2_tail_matches_scipy(df):
    x = np.concatenate([np.geomspace(1e-10, 1.0, 200), np.linspace(1.0, 400.0, 4000)])
    got = [sampling._chi2_sf(df, float(v)) for v in x]
    assert_allclose(got, special.chdtrc(df, x), rtol=TAIL_RTOL, atol=0)


def test_kolmogorov_tail_matches_scipy():
    x = np.concatenate([np.geomspace(1e-3, 0.1, 50), np.linspace(0.1, 6.0, 6000)])
    got = [sampling._kolmogorov_sf(float(v)) for v in x]
    assert_allclose(got, special.kolmogorov(x), rtol=TAIL_RTOL, atol=0)


@pytest.mark.parametrize("df", [1, 2, 3, 48, 49])
def test_chi2_tail_edges(df):
    for x in (0.0, -0.0, -1.0, -np.inf):
        assert sampling._chi2_sf(df, x) == 1.0
    for x in (1e4, 1e20, 1e300, np.inf):  # e^-y underflows: 0, never NaN or negative
        assert sampling._chi2_sf(df, x) == 0.0
    # in [0, 1] and non-increasing, up to rounding where the sum of its terms is near 1
    tails = [sampling._chi2_sf(df, x) for x in np.linspace(0.0, 3000.0, 30001)]
    assert all(0.0 <= b <= a * (1.0 + 1e-15) and b <= 1.0 for a, b in zip(tails, tails[1:]))


def test_kolmogorov_tail_edges():
    for x in (0.0, -0.0, -1.0, -np.inf, 1e-300, 0.05, 0.1):
        assert sampling._kolmogorov_sf(x) == 1.0
    for x in (40.0, 1e10, 1e300, np.inf):
        assert sampling._kolmogorov_sf(x) == 0.0
    # continuous where the theta series hands over to the alternating one (0.8),
    # and where it gives way to 1.0 (0.1)
    for cut in (0.1, 0.8):
        below, above = np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)
        values = [sampling._kolmogorov_sf(x) for x in (below, cut, above)]
        assert_allclose(values, special.kolmogorov([below, cut, above]), rtol=TAIL_RTOL)
        assert np.ptp(values) <= 4e-16
    tails = [sampling._kolmogorov_sf(x) for x in np.linspace(0.0, 7.0, 7001)]
    assert all(0.0 <= b <= a <= 1.0 for a, b in zip(tails, tails[1:]))


def reference_uniformity_counts(states, bins):
    """Bin counts of ``sampling._uniformity_counts``, with ``np.histogram`` and one
    ``np.angle`` per phase pair, as ``_uniformity_pvalues`` once counted them."""
    count, n = states.shape
    counts = {}
    probs = np.abs(states) ** 2
    for i in range(n if n > 1 else 0):  # |v_0|^2 = 1 identically when n = 1
        u = 1.0 - (1.0 - probs[:, i]) ** (n - 1)
        counts[f"|v_{i}|^2"] = np.histogram(u, bins=bins, range=(0.0, 1.0))[0]
    for i in range(n):
        for j in range(i + 1, n):
            rel = np.angle(states[:, i] * states[:, j].conj()) % (2.0 * np.pi)
            counts[f"arg(v_{i}/v_{j})"] = np.histogram(
                rel / (2.0 * np.pi), bins=bins, range=(0.0, 1.0))[0]
    return counts


def reference_chi2_pvalue(counts, size):
    """The chi-squared p-value of bin counts, by ``scipy.special.chdtrc``."""
    expected = size / counts.size
    return float(special.chdtrc(counts.size - 1, np.sum((counts - expected) ** 2 / expected)))


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
                counts = sampling._uniformity_counts(sample, bins)
                ref = reference_uniformity_counts(sample, bins)
                assert counts.keys() == ref.keys()
                assert all(np.array_equal(counts[k], ref[k]) for k in ref)
                pvals = sampling._uniformity_pvalues([sample], bins)
                assert pvals.keys() == ref.keys()
                for k, c in ref.items():
                    assert_allclose(pvals[k], reference_chi2_pvalue(c, 5000), rtol=TAIL_RTOL)


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
    outside = np.array(odd[-4:] + [np.nan])  # nothing counted
    for fill in (0, 2000):
        u = rng.permutation(np.concatenate(near + [odd, rng.random(fill)]))
        for sample in (u, outside):
            counts = sampling._bin_counts(sample, bins)
            ref, _ = np.histogram(sample, bins=bins, range=(0.0, 1.0))
            assert np.array_equal(counts, ref)
            # values not counted still count in the expected counts
            assert_allclose(sampling._chi2_pvalue(counts, sample.size),
                            reference_chi2_pvalue(ref, sample.size), rtol=TAIL_RTOL)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_block_pvalues_equal_the_whole_sample(n):
    # bin counts add over blocks, so any split gives the whole sample's p-values exactly
    states = sampling.sample_uniform(n, 7001, np.random.default_rng(n))
    whole = sampling._uniformity_pvalues([states], 30)
    for pieces in (2, 3, 7, 50):
        assert sampling._uniformity_pvalues(np.array_split(states, pieces), 30) == whole


def test_pushforward_blocks_equal_the_whole_sample():
    # pushforward_uniformity draws as sample_uniform does and bins BLOCK rows at a
    # time; a row-wise map gives exactly the p-values of the whole pushed sample
    samples = 2 * sampling.BLOCK + 1000
    for transform in (np.conj, np.square):
        rep = sampling.pushforward_uniformity(transform, 3, samples, 40, np.random.default_rng(5))
        pushed = transform(sampling.sample_uniform(3, samples, np.random.default_rng(5)))
        pushed = pushed / np.linalg.norm(pushed, axis=1, keepdims=True)
        assert rep["p_values"] == sampling._uniformity_pvalues([pushed], 40)


def reference_pushed_counts(pushed, bins):
    """Bin counts of pushed rows as ``pushforward_uniformity`` once took them: each row
    renormalized, then ``np.abs(states) ** 2`` and the parts' ``arctan2``, verbatim."""
    states = pushed / np.linalg.norm(pushed, axis=1, keepdims=True)
    n = states.shape[1]
    counts = {}
    probs = np.abs(states) ** 2
    for i in range(n if n > 1 else 0):  # |v_0|^2 = 1 identically when n = 1
        u = 1.0 - probs[:, i]
        u **= n - 1
        counts[f"|v_{i}|^2"] = sampling._bin_counts(np.subtract(1.0, u, out=u), bins)
    turns = np.arctan2(states.imag, states.real)
    turns /= sampling.TWO_PI
    for i in range(n):
        for j in range(i + 1, n):
            rel = turns[:, i] - turns[:, j]
            rel += rel < 0.0
            counts[f"arg(v_{i}/v_{j})"] = sampling._bin_counts(rel, bins)
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unnormalized_counts_equal_the_renormalized_reference(seed):
    # the counts of pushed rows, taken without renormalizing them, are those of
    # the renormalized rows, for a gauge map and for the squarer control
    rng = np.random.default_rng(seed)
    g = transforms.GaugeMap(kind="antiunitary", v=sampling.haar_unitary(3, rng))
    for transform in (lambda s: transforms.apply(g, s), np.square):
        rep = sampling.pushforward_uniformity(transform, 3, 100_000, 50,
                                              np.random.default_rng(seed))
        pushed = transform(sampling.sample_uniform(3, 100_000, np.random.default_rng(seed)))
        counts = sampling._uniformity_counts(pushed, 50)
        ref = reference_pushed_counts(pushed, 50)
        assert counts.keys() == ref.keys() == rep["p_values"].keys()
        for k, c in ref.items():
            assert np.array_equal(counts[k], c)
            assert rep["p_values"][k] == sampling._chi2_pvalue(c, 100_000)


def test_zero_pushed_row_is_not_counted():
    pushed = sampling.sample_uniform(3, 1000, np.random.default_rng(8))
    pushed[[0, 7]] = 0.0
    with np.errstate(invalid="ignore"):  # 0 / 0 in the row's normalization
        counts = sampling._uniformity_counts(pushed, 20)
        ref = reference_pushed_counts(pushed, 20)
    assert counts.keys() == ref.keys()
    for k, c in ref.items():
        assert np.array_equal(counts[k], c) and c.sum() == 998


# Peak traced allocation of a 100k-sample check.  pushforward_uniformity keeps its
# draw, 2 * samples * n floats (4.8 MB at n = 3), for the whole test; each block
# of BLOCK rows makes arrays of BLOCK * n complex numbers (BLOCK * n * 16 bytes,
# 0.39 MB at n = 3), of which at most four or five are live at once (peaks of
# 1.6 MB above the draw here, and 1.9 MB in simulate.reproducibility, whose draws
# are per block).  The bound allows eight such arrays above the draw.  Unblocked,
# the peaks were 14.4 MB and 17.6 MB.
def block_peak_bound(draw_floats, n):
    float_bytes, complex_bytes = 8, 16
    return draw_floats * float_bytes + 8 * sampling.BLOCK * n * complex_bytes


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
def test_measure_invariance_check_peak_is_bounded_by_the_block(kind):
    samples, n = 100_000, 3
    g = transforms.GaugeMap(kind=kind, v=sampling.haar_unitary(n, np.random.default_rng(0)))
    peak = traced_peak(sampling.measure_invariance_check, g, samples, 50,
                       np.random.default_rng(1))
    assert peak <= block_peak_bound(2 * samples * n, n)


def test_reproducibility_check_peak_is_bounded_by_the_block():
    record = harness.CHECKS["simulate.reproducibility"]
    assert record["trials"] == 100_000
    peak = traced_peak(harness.run_check, record, harness.Settings())
    assert peak <= block_peak_bound(0, 3)


@pytest.mark.parametrize("n, m", [(20000, 20000), (20000, 12000)])
def test_ks_pvalue_matches_scipy_stats(n, m):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=m)
        ref = stats.ks_2samp(x, y, method="asymp")
        assert sampling._ks_statistic(x, y) == ref.statistic
        # the same statistic: its Kolmogorov tail is the helper's p-value
        p = sampling._ks_pvalue(x, y)
        assert_allclose(p, special.kolmogorov(np.sqrt(n * m / (n + m)) * ref.statistic),
                        rtol=TAIL_RTOL, atol=0)
        # scipy's asymptotic two-sided p-value is the finite-n Kolmogorov law at
        # n m / (n + m) points; over seeds 0..999 of these draws the two differed
        # by at most 1.5 % relative, and the bound allows twice that
        assert_allclose(p, ref.pvalue, rtol=0.03, atol=0)
