"""Discrete probability distributions with the information metric.

A point on the M-outcome simplex is a float array with nonnegative
entries summing to 1 along its last axis; a tangent displacement sums to
0.  Leading axes hold a stack of points, and each function acts on each
point, except the log Bayes factor and its oracle, which take one pair.
Distinguishing two nearby distributions by repeated sampling yields an
expected log-Bayes-factor of 2n ds^2 where ds^2 = (1/4) sum dp_i^2 / p_i,
which is what singles this metric out.  The geodesic distance is the
great-circle angle arccos(sum sqrt(p_i p2_i)) between the square-root
embeddings, computed from their chord as 2 arcsin(|sqrt(p) - sqrt(p2)| / 2),
which keeps its digits where the two distributions nearly coincide.
"""

import numpy as np

NORM_TOL = 1e-12


class SupportMismatchError(ValueError):
    """Raised when a hypothesis assigns zero probability to an outcome
    the other hypothesis can produce (infinite evidence)."""


def _check_total(total, target, what):
    """Raise ValueError unless every entry of ``total`` is within ``NORM_TOL`` of ``target``."""
    dev = abs(total - target)
    if not (dev if dev.ndim == 0 else dev.max(initial=0.0)) <= NORM_TOL:  # also fails on NaN
        raise ValueError(f"{what} {np.ravel(total)[np.argmax(dev)]!r}, not {target}")


def as_prob_vec(p):
    """Validate and return ``p`` as a probability vector, or a stack (..., M) of them.

    Entries must be nonnegative and sum to 1 within ``NORM_TOL``.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError("probability vector must be nonempty, outcomes on the last axis")
    if not p.min(initial=0.0) >= 0:  # fails on NaN
        raise ValueError("probability entries must be nonnegative")
    _check_total(np.add.reduce(p, axis=-1), 1, "probabilities sum to")
    return p


def renormalized(p):
    """Construct a probability vector, or a stack of them, from nonnegative weights."""
    p = np.asarray(p, dtype=float)
    if not p.min(initial=0.0) >= 0:
        raise ValueError("weights must be nonnegative")
    s = p.sum(axis=-1, keepdims=True)
    if not ((0 < s) & (s < np.inf)).all():
        raise ValueError("weights must be finite and not all zero")
    return p / s


def as_tangent_vec(dp):
    """Validate a simplex displacement, or a stack of them: entries sum to 0 within NORM_TOL."""
    dp = np.asarray(dp, dtype=float)
    if dp.ndim == 0:
        raise ValueError("tangent vector must have an outcome axis")
    _check_total(np.add.reduce(dp, axis=-1), 0, "displacement entries sum to")
    return dp


def info_metric_ds2(p, dp):
    """Squared length (1/4) sum dp_i^2 / p_i of a displacement ``dp`` at ``p``.

    Entries where p_i = 0 and dp_i = 0 are skipped; a nonzero displacement
    at a zero-probability entry hits the metric singularity and raises.
    """
    p = as_prob_vec(p)
    dp = as_tangent_vec(dp)
    if p.shape != dp.shape:
        raise ValueError("p and dp must have the same dimension")
    zero = p == 0
    if np.any(zero & (dp != 0)):
        raise ValueError("nonzero displacement at a zero-probability entry")
    return 0.25 * np.sum(dp**2 / np.where(zero, np.inf, p), axis=-1)


def sqrt_embedding(p):
    """Map a distribution to the unit vector (sqrt(p_1), ..., sqrt(p_M)).

    Under this change of variables the information metric becomes the
    Euclidean metric on the sphere octant.
    """
    return np.sqrt(as_prob_vec(p))


def geodesic_distance(p, p2):
    """Great-circle distance 2 arcsin(|sqrt(p) - sqrt(p2)| / 2) between distributions."""
    p = as_prob_vec(p)
    p2 = as_prob_vec(p2)
    if p.shape != p2.shape:
        raise ValueError("distributions must have the same dimension")
    chord = np.sqrt(p) - np.sqrt(p2)
    d = 2.0 * np.arcsin(np.sqrt(np.sum(chord * chord, axis=-1)) / 2.0)
    return d if d.ndim else float(d)


def _hypotheses(p, p2):
    """``p`` and ln(p_i / p2_i) where p_i > 0 (0 elsewhere), for one pair of 1-D hypotheses.

    The ratio is +-log1p(|p_i - p2_i| / min(p_i, p2_i)), whose argument is never negative,
    so it keeps its digits both as p2_i nears p_i and far from it.  Raises
    :class:`SupportMismatchError` where ``p2`` excludes an outcome ``p`` can produce.
    """
    p = as_prob_vec(p)
    p2 = as_prob_vec(p2)
    if p.ndim != 1 or p.shape != p2.shape:
        raise ValueError("distributions must be 1-D, of the same dimension")
    live = p > 0
    if np.any(live & (p2 == 0)):
        raise SupportMismatchError(
            "p assigns probability to an outcome p2 excludes: evidence is infinite")
    low = np.where(live, np.minimum(p, p2), 1.0)
    return p, np.where(live, np.sign(p - p2) * np.log1p(np.abs(p - p2) / low), 0.0)


def log_bayes_factor(p, p2, n):
    """Expected log evidence ratio n * sum p_i ln(p_i / p2_i).

    This is the large-n expectation of ln(P_A / P_B) when n samples are
    drawn from ``p`` and the hypotheses ``p`` (A) and ``p2`` (B) are a
    priori equally likely.  Entries with p_i = 0 contribute nothing;
    p_i > 0 with p2_i = 0 means a single sample can rule out B outright.
    """
    p, log_ratio = _hypotheses(p, p2)
    if n <= 0:
        raise ValueError("sample count must be positive")
    return n * np.sum(p * log_ratio)


def simulate_log_evidence(p, p2, n, datasets, rng):
    """Monte-Carlo oracle for :func:`log_bayes_factor`.

    Draws ``datasets`` independent datasets of ``n`` samples from ``p``
    and returns the per-dataset values of ln(P_A / P_B), computed from
    the multinomial counts.  Their mean estimates the analytic value.
    """
    p, log_ratio = _hypotheses(p, p2)
    counts = rng.multinomial(n, p, size=datasets)
    return counts @ log_ratio
