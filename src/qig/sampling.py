"""Uniform measure over pure states, and invariance tests.

The Euclidean metric on the 2N-real state space induces the uniform
measure on the unit hypersphere.  In complex form the metric is
ds^2 = |dv|^2, invariant under unitary and antiunitary maps, and the
uniform measure inherits that invariance.  Sampling normalizes 2N
standard normals from a caller's generator, ``sample_uniform(n, count,
rng)``; a batch draws each kind of value as one array call, not sample by
sample.  ``measure_invariance_check`` tests a gauge map;
``pushforward_uniformity`` tests any callable, as negative controls do.
It draws the whole sample, then pushes and bins it, not renormalized, in
blocks of ``BLOCK`` rows, so its working set does not grow with the sample
size beyond the draw itself.  Its chi-squared p-values and the two-sample
Kolmogorov-Smirnov p-value of ``_ks_pvalue`` use two tails written with
stdlib ``math``, so the module needs numpy alone: the chi-squared survival
function by its finite sums for integer degrees of freedom (Abramowitz and
Stegun 26.4.4-26.4.5), and the Kolmogorov tail by its two theta-function
series (Marsaglia, Tsang and Wang, J. Stat. Softw. 8(18), 2003).
"""

import math

import numpy as np

from .qspace import TWO_PI, _states
from .transforms import apply


# family-wise false-alarm rate of the Bonferroni uniformity verdict
SIGNIFICANCE = 0.001
DISPLACEMENT = 1e-4  # |dv| within a metric_invariance_check pair
BLOCK = 8192  # rows of a 100k-sample test handled at once, which bounds its working set


def sample_uniform(n, count, rng):
    """``count`` independent uniform pure states of dimension ``n``.

    Rows of a (count, n) complex array, drawn from the generator ``rng``.
    """
    return _states(_normal_parts(n, count, rng))


def _normal_parts(n, count, rng):
    """(2, count, n) standard normals: real parts of ``count`` states, then imaginary parts."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    return rng.normal(size=(2, count, n))


def haar_unitary(n, rng, count=None):
    """Haar-distributed n x n unitary, or a (count, n, n) stack drawn as ``count`` calls."""
    x = rng.normal(size=(2, n, n) if count is None else (count, 2, n, n))
    return haar_from_ginibre((x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0))


def haar_from_ginibre(z):
    """Haar matrices from a stack (..., n, n) of Ginibre matrices.

    QR of each, with the phases (signs, if real) of diag(R) moved into Q
    (Mezzadri, arXiv:math-ph/0609050).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def metric_invariance_check(g, pairs, rng):
    """Max relative change of |dv|^2 between nearby states under ``g``.

    Samples ``pairs`` pairs (v, v + dv renormalized, |dv| = ``DISPLACEMENT``)
    from the generator ``rng`` and compares the squared chord length
    before and after applying the map.  For an
    antiunitary map both endpoints are conjugated, so the displacement
    is the pushforward of the pair, not an independently conjugated
    tangent vector.  A stack of maps gets ``pairs`` pairs per map, drawn
    as (pairs, ..., N) arrays, and returns an array of the stack shape.
    """
    if not np.all(g.is_gauge_invariant):
        raise ValueError("map must be unitary or antiunitary")
    *stack, n = g.v.shape[:-1]
    v = sample_uniform(n, pairs * int(np.prod(stack)), rng).reshape(pairs, *stack, n)
    x = rng.normal(size=(pairs, *stack, 2, n))  # per pair: Re dv, then Im dv
    dv = x[..., 0, :] + 1j * x[..., 1, :]
    w = v + DISPLACEMENT * dv / np.linalg.norm(dv, axis=-1, keepdims=True)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    before = np.sum(np.abs(w - v) ** 2, axis=-1)
    after = np.sum(np.abs(apply(g, w) - apply(g, v)) ** 2, axis=-1)
    worst = np.max(np.abs(after - before) / before, axis=0, initial=0.0)
    return worst if stack else float(worst)


def _uniformity_pvalues(blocks, bins):
    """Chi-squared p-values of uniformity statistics of a state sample, given in row blocks.

    For uniform states the per-component probability |v_i|^2 is
    Beta(1, N-1) distributed and pairwise relative phases are uniform
    on [0, 2pi); each statistic is transformed to [0, 1) by its CDF and
    binned against equal expected counts.  The bin counts of the blocks
    add up, so the p-values depend only on the whole sample, not on how
    it is split.
    """
    totals, size = {}, 0
    for states in blocks:
        size += states.shape[0]
        for name, counts in _uniformity_counts(states, bins).items():
            totals[name] = totals.get(name, 0) + counts
    return {name: _chi2_pvalue(counts, size) for name, counts in totals.items()}


def _uniformity_counts(states, bins):
    """Bin counts of each uniformity statistic of the (count, N) ``states``, of any norm.

    Both are scale-free per row, and come from one float view: |v_i|^2 as
    (re^2 + im^2) over the row sum, and the phases from one ``arctan2``, in
    turns, so a relative phase is a difference of turns wrapped into [0, 1).
    """
    n = states.shape[1]
    counts = {}
    f = np.ascontiguousarray(states, dtype=complex).view(float)
    probs = np.square(f[:, 0::2]) + np.square(f[:, 1::2])
    total = sum(probs.T)  # column by column: sum(axis=1) over so short a row is far slower
    probs /= total[:, None]
    for i in range(n if n > 1 else 0):  # |v_0|^2 = 1 identically when n = 1
        u = 1.0 - probs[:, i]
        u **= n - 1
        counts[f"|v_{i}|^2"] = _bin_counts(np.subtract(1.0, u, out=u), bins)
    turns = np.arctan2(f[:, 1::2], f[:, 0::2])
    turns /= TWO_PI
    turns[total == 0.0] = np.nan  # a zero row has no phases: not counted
    for i in range(n):
        for j in range(i + 1, n):
            rel = turns[:, i] - turns[:, j]
            rel += rel < 0.0
            counts[f"arg(v_{i}/v_{j})"] = _bin_counts(rel, bins)
    return counts


def _chi2_pvalue(counts, size):
    """Chi-squared p-value of bin ``counts`` of ``size`` values against equal expected counts."""
    expected = size / counts.size
    stat = np.sum((counts - expected) ** 2 / expected)
    return _chi2_sf(counts.size - 1, float(stat))


def _bin_counts(u, bins):
    """Counts of ``u`` in ``bins`` equal bins of [0, 1], as ``np.histogram`` counts them.

    Bin k is [e_k, e_k+1) for the edges e = ``np.linspace(0, 1, bins + 1)``,
    1.0 falls in the last bin, and NaN and values outside [0, 1] are not
    counted.
    """
    u = np.asarray(u, dtype=float)
    inside = u.min(initial=0.0) >= 0.0 and u.max(initial=1.0) <= 1.0  # False on NaN
    x = u if inside else u[(u >= 0.0) & (u <= 1.0)]
    f = x * bins
    k = f.astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    # within an ulp or so of an edge, floor(x * bins) can differ from the
    # edge search: those few values (if any) take the search
    f -= k
    f -= 0.5
    near = np.flatnonzero(np.abs(f, out=f) > 0.5 - 1e-9)
    if near.size:
        edges = np.linspace(0.0, 1.0, bins + 1)
        k[near] = np.minimum(np.searchsorted(edges, x[near], "right") - 1, bins - 1)
    return np.bincount(k, minlength=bins)


def _chi2_sf(df, x):
    """P(chi^2 with ``df`` degrees of freedom > ``x``), for an integer ``df`` >= 1.

    With y = x/2 it is the finite sum e^-y sum_{j<k} y^j / j! for df = 2k,
    and erfc(sqrt y) + e^-y sum_{j=1..k} y^(j-1/2) / Gamma(j + 1/2) for
    df = 2k + 1 (Abramowitz and Stegun 26.4.4-26.4.5): positive terms, each
    from the last by one product.  e^-y enters as two factors e^-y/2, so
    that for df below about 500 the terms keep full precision until the
    tail itself falls below the least normal double.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = x / 2.0
    k, odd = divmod(df, 2)
    half = math.exp(-y / 2.0)
    term, j = (2.0 * half * math.sqrt(y / math.pi), 1.5) if odd else (half, 1.0)
    total = 0.0
    for _ in range(k):
        total += term
        term *= y / j
        j += 1.0
    total *= half
    if odd:
        total += math.erfc(math.sqrt(y))
    return min(total, 1.0)  # the sum can round an ulp above 1 at small x


def _kolmogorov_sf(x):
    """P(K > ``x``) for the Kolmogorov distribution K, the limit of sqrt(n) D_n.

    Below 0.8 it is 1 - sqrt(2 pi) / x sum_k e^-((2k-1)^2 pi^2 / (8 x^2)),
    and from 0.8 up 2 sum_k (-1)^(k-1) e^(-2 k^2 x^2) (Marsaglia, Tsang and
    Wang, J. Stat. Softw. 8(18), 2003); where each is used, the terms left
    out are below 1e-20 of the sum.  At 0.1 and below it is 1.0 to double
    precision.
    """
    if x <= 0.1:
        return 1.0
    if x < 0.8:
        a = -(math.pi / x) ** 2 / 8.0
        return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(math.exp(a * (2 * k - 1) ** 2)
                                                       for k in range(1, 4))
    a = -2.0 * x * x
    return 2.0 * sum((-1) ** (k - 1) * math.exp(a * k * k) for k in range(1, 8))


def _ks_pvalue(x, y):
    """Two-sample Kolmogorov-Smirnov p-value of independent samples ``x`` and ``y``.

    The p-value is the asymptotic Kolmogorov tail at sqrt(n m / (n + m)) D
    of the statistic D of :func:`_ks_statistic`.
    """
    return _kolmogorov_sf(math.sqrt(x.size * y.size / (x.size + y.size)) * _ks_statistic(x, y))


def _ks_statistic(x, y):
    """D = max |F_x - F_y| over the pooled points of ``x`` and ``y``."""
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    return float(np.max(np.abs(np.searchsorted(x, pooled, "right") / x.size
                               - np.searchsorted(y, pooled, "right") / y.size)))


def measure_invariance_check(g, samples, bins, rng):
    """Test that the gauge map ``g`` pushes the uniform measure to itself.

    See :func:`pushforward_uniformity` for the test and its result.
    """
    if np.ndim(g.v) != 2 or not g.is_gauge_invariant:
        raise ValueError("need one map, unitary or antiunitary, not a stack")
    return pushforward_uniformity(lambda s: apply(g, s), g.v.shape[0], samples, bins, rng)


def pushforward_uniformity(transform, n, samples, bins, rng):
    """Chi-squared p-values of the pushforward of the uniform measure.

    Pushes ``samples`` uniform states of dimension ``n``, drawn from the
    generator ``rng``, through ``transform`` (which maps an array of row
    states to row states; any callable, so negative controls call this
    directly), and chi-squared-tests the uniformity statistics, which do not
    depend on a pushed row's norm, so the rows are not renormalized.  Returns
    a dict with the per-statistic ``p_values`` and their Bonferroni-adjusted
    minimum ``adjusted_p`` (1 if there are none).  For a uniform pushforward,
    ``adjusted_p <= SIGNIFICANCE`` has probability at most ``SIGNIFICANCE``.  The draws are those of ``sample_uniform(n,
    samples, rng)``; the states are made, pushed and binned ``BLOCK`` rows
    at a time.
    """
    x = _normal_parts(n, samples, rng)
    pushed = (transform(_states(x[:, s:s + BLOCK])) for s in range(0, samples, BLOCK))
    pvals = _uniformity_pvalues(pushed, bins)
    adjusted = float(np.min([len(pvals) * p for p in pvals.values()], initial=1.0))
    return {"p_values": pvals, "adjusted_p": adjusted}
