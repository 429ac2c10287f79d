"""Gauge-invariant orthogonal maps and their unitary/antiunitary form.

A physical transformation acts on 2N-real state vectors as an
orthogonal matrix M.  Requiring that result probabilities are
insensitive to a global phase shift of the state forces every 2x2
block M[2k-1:2k, 2i-1:2i] to be a scaled rotation (sigma = +1) or a
scaled reflection-rotation (sigma = -1), with a single sigma shared by
all nonzero blocks.  Reading each block as a complex number alpha
e^{i phi} turns M into a unitary matrix V (sigma = +1) or a unitary
followed by entrywise conjugation, V K (sigma = -1): Wigner's
alternative, obtained here by direct classification.
"""

from dataclasses import dataclass

import numpy as np

from .qspace import from_complex, result_probs, to_complex

ORTHO_TOL = 1e-10
BLOCK_TOL = 1e-10
WITNESS_TOL = 1e-9


def as_orthogonal(m, tol=ORTHO_TOL):
    """Validate a square real matrix with m.T m = I within ``tol`` (Frobenius)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] % 2 != 0:
        raise ValueError("matrix dimension must be even (2N)")
    resid = np.linalg.norm(m.T @ m - np.eye(m.shape[0]))
    if resid > tol:
        raise ValueError(f"matrix is not orthogonal: residual {resid:g}")
    return m


@dataclass(frozen=True)
class GaugeMap:
    """Verdict of :func:`classify`.

    ``kind`` is "unitary", "antiunitary", or "not_gauge_invariant".
    For the first two, ``v`` is the N x N unitary matrix; an
    antiunitary map acts as v -> V conj(v).  For a rejection, ``v`` is
    None and ``diagnostic`` names the first violated condition.
    """

    kind: str
    v: np.ndarray = None
    diagnostic: str = None

    @property
    def is_gauge_invariant(self):
        return self.kind in ("unitary", "antiunitary")


def block_decomposition(m, tol=BLOCK_TOL):
    """Per-block (alpha, phi, sigma) arrays of a 2N x 2N matrix.

    alpha >= 0 is the block scale, phi in [0, 2pi) its angle (zero for a
    zero block), sigma +1/-1 the block kind with 0 marking a zero block
    (sigma unconstrained there).  Raises ValueError naming the first
    block that is not a scaled (reflection-)rotation within ``tol``.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0] // 2
    blocks = m.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    alpha = np.zeros((n, n))
    phi = np.zeros((n, n))
    sigma = np.zeros((n, n), dtype=int)
    for k in range(n):
        for i in range(n):
            B = blocks[k, i]
            a_col = B[0, 0] ** 2 + B[1, 0] ** 2
            b_col = B[0, 1] ** 2 + B[1, 1] ** 2
            g_col = B[0, 0] * B[0, 1] + B[1, 0] * B[1, 1]
            scale = np.sqrt(0.5 * (a_col + b_col))
            if scale <= tol:
                continue
            if abs(a_col - b_col) > tol:
                raise ValueError(
                    f"block ({k}, {i}): column norms differ "
                    f"(alpha={a_col:g}, beta={b_col:g})"
                )
            if abs(g_col) > tol:
                raise ValueError(f"block ({k}, {i}): columns not orthogonal (gamma={g_col:g})")
            alpha[k, i] = scale
            sigma[k, i] = 1 if np.linalg.det(B) > 0 else -1
            phi[k, i] = np.arctan2(B[1, 0], B[0, 0]) % (2.0 * np.pi)
    return alpha, phi, sigma


def classify(m, tol=BLOCK_TOL, ortho_tol=ORTHO_TOL):
    """Decide whether an orthogonal matrix respects global gauge invariance.

    Returns a unitary or antiunitary :class:`GaugeMap` when it does, or
    a rejection naming the first violated condition.
    """
    m = as_orthogonal(m, tol=ortho_tol)
    try:
        alpha, phi, sigma = block_decomposition(m, tol=tol)
    except ValueError as exc:
        return GaugeMap(kind="not_gauge_invariant", diagnostic=str(exc))
    live = sigma != 0
    if not np.any(live):
        return GaugeMap(kind="not_gauge_invariant", diagnostic="zero matrix")
    sigmas = np.unique(sigma[live])
    if sigmas.size > 1:
        return GaugeMap(
            kind="not_gauge_invariant",
            diagnostic="mixed block kinds: rotation and reflection blocks coexist",
        )
    v = alpha * np.exp(1j * phi)
    if sigmas[0] == 1:
        return GaugeMap(kind="unitary", v=v)
    return GaugeMap(kind="antiunitary", v=v)


def realify_unitary(v, tol=ORTHO_TOL):
    """Orthogonal 2N x 2N realization of a unitary: blocks alpha R(phi)."""
    return _realify_blocks(_as_unitary(v, tol), 1.0)


def realify_antiunitary(v, tol=ORTHO_TOL):
    """Orthogonal realization of v -> V conj(v): blocks alpha R(phi) F."""
    return _realify_blocks(_as_unitary(v, tol), -1.0)


def _realify_blocks(v, sign):
    """Real 2N x 2N blocks [[re, -sign im], [im, sign re]] of V; sign -1 conjugates first."""
    n = v.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[0::2, 0::2] = v.real
    m[0::2, 1::2] = -sign * v.imag
    m[1::2, 0::2] = v.imag
    m[1::2, 1::2] = sign * v.real
    return m


def realify(g):
    """Orthogonal realization of a gauge map."""
    if g.kind == "unitary":
        return realify_unitary(g.v)
    if g.kind == "antiunitary":
        return realify_antiunitary(g.v)
    raise ValueError("cannot realify a non-gauge-invariant verdict")


def _as_unitary(v, tol=ORTHO_TOL):
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("matrix must be square")
    resid = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0]))
    if resid > tol:
        raise ValueError(f"matrix is not unitary: residual {resid:g}")
    return v


def apply(g, v):
    """Act with a gauge map on a complex state: Vv, or V conj(v) if antiunitary."""
    if not g.is_gauge_invariant:
        raise ValueError("cannot apply a non-gauge-invariant verdict to a state")
    v = np.asarray(v, dtype=complex)
    if g.kind == "antiunitary":
        v = v.conj()
    return g.v @ v


def compose(g1, g2):
    """The gauge map acting as g1 after g2."""
    if not (g1.is_gauge_invariant and g2.is_gauge_invariant):
        raise ValueError("cannot compose non-gauge-invariant verdicts")
    anti1 = g1.kind == "antiunitary"
    anti2 = g2.kind == "antiunitary"
    v2 = g2.v.conj() if anti1 else g2.v
    kind = "antiunitary" if anti1 != anti2 else "unitary"
    return GaugeMap(kind=kind, v=g1.v @ v2)


def gauge_invariance_witness(m, trials=20, tol=WITNESS_TOL, rng=None):
    """Direct numerical test of the gauge-invariance property of ``m``.

    Samples random states and global phase shifts, and compares the
    result probabilities of M Q(phi) with those of M Q(phi + phi0).
    Returns (passed, max_deviation).  Independent of :func:`classify`:
    no block structure is consulted.
    """
    m = as_orthogonal(m)
    if rng is None:
        rng = np.random.default_rng()
    n = m.shape[0] // 2
    worst = 0.0
    for _ in range(trials):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = z / np.linalg.norm(z)
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        q1 = from_complex(v)
        q2 = from_complex(np.exp(1j * phi0) * v)
        p1 = result_probs(_renorm(m @ q1))
        p2 = result_probs(_renorm(m @ q2))
        worst = max(worst, float(np.max(np.abs(p1 - p2))))
    return worst < tol, worst


def _renorm(q):
    return q / np.linalg.norm(q)


def unitarity_orthogonality_bridge(v):
    """Residuals (||M^T M - I||, ||V^dag V - I||) for V and its realification.

    The two residuals track each other (the realification doubles each
    complex degree of freedom), so one is small iff the other is.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    m = _realify_blocks(v, 1.0)
    r_real = float(np.linalg.norm(m.T @ m - np.eye(2 * n)))
    r_cplx = float(np.linalg.norm(v.conj().T @ v - np.eye(n)))
    return r_real, r_cplx
