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

from .qspace import TWO_PI

ORTHO_TOL = 1e-10
BLOCK_TOL = 1e-10
WITNESS_TOL = 1e-9

REJECTED = "not_gauge_invariant"
# indexed by 0 (rejected), 1 (rotation blocks only), 2 (reflection blocks only)
KINDS = np.array([REJECTED, "unitary", "antiunitary"])


def as_orthogonal(m, stacked=False):
    """Validate real m, or a stack (..., 2N, 2N) if ``stacked``: m.T m = I within ORTHO_TOL."""
    m = _as_block_matrix(m, stacked)
    _check_residual(np.swapaxes(m, -1, -2) @ m - np.eye(m.shape[-1]), "orthogonal")
    return m


def _as_block_matrix(m, stacked=False):
    """Real m as a float 2N x 2N matrix, or a stack (..., 2N, 2N) of them if ``stacked``."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or (m.ndim > 2 and not stacked) or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if m.shape[-1] % 2 != 0:
        raise ValueError("matrix dimension must be even (2N)")
    return m


def _check_residual(d, kind):
    """Raise unless every matrix of the stack ``d`` has Frobenius norm <= ``ORTHO_TOL``."""
    sq = np.add.reduce(np.abs(d) ** 2, axis=(-2, -1))
    if not (sq if sq.ndim == 0 else sq.max(initial=0.0)) <= ORTHO_TOL**2:  # also fails on NaN
        resid = np.sqrt(np.ravel(sq)[np.argmax(sq)])
        raise ValueError(f"matrix is not {kind}: residual {resid:g}")


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


def block_decomposition(m):
    """Per-block (alpha, phi, sigma) arrays of a 2N x 2N matrix.

    alpha >= 0 is the block scale, phi in [0, 2pi) its angle (zero for a
    zero block), sigma +1/-1 the block kind with 0 marking a zero block
    (sigma unconstrained there).  Raises ValueError naming the first
    block that is not a scaled (reflection-)rotation within ``BLOCK_TOL``.
    """
    m = _as_block_matrix(m)
    alpha, phi, sigma, fault = decompose_blocks(m)
    if fault.any():
        raise ValueError(_fault_message(m, fault))
    return alpha, phi, sigma


def decompose_blocks(m):
    """Batch kernel of :func:`block_decomposition` for a stack (..., 2N, 2N).

    Returns alpha, phi, sigma and ``fault``, each (..., N, N); ``fault`` is 1 where a
    block's column norms differ, else 2 where its columns are not orthogonal, else 0.
    """
    b00, b01, b10, b11 = (m[..., r::2, c::2] for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))
    a, b, g = b00**2 + b10**2, b01**2 + b11**2, b00 * b01 + b10 * b11
    scale = np.sqrt(0.5 * (a + b))
    live = ~(scale <= BLOCK_TOL)  # NaN blocks stay live
    fault = np.where(np.abs(a - b) > BLOCK_TOL, 1, np.where(np.abs(g) > BLOCK_TOL, 2, 0)) * live
    sigma = np.where(b00 * b11 - b01 * b10 > 0, 1, -1) * live
    phi = np.where(live, np.arctan2(b10, b00) % TWO_PI, 0.0)
    return np.where(live, scale, 0.0), phi, sigma, fault


def _fault_message(m, fault):
    """Name the first faulty block of one matrix, in row-major order."""
    k, i = np.argwhere(fault)[0]
    (b00, b01), (b10, b11) = m[2 * k:2 * k + 2, 2 * i:2 * i + 2]
    if fault[k, i] == 1:
        return (f"block ({k}, {i}): column norms differ "
                f"(alpha={b00**2 + b10**2:g}, beta={b01**2 + b11**2:g})")
    return f"block ({k}, {i}): columns not orthogonal (gamma={b00 * b01 + b10 * b11:g})"


def classify(m):
    """Decide whether an orthogonal matrix respects global gauge invariance.

    Returns a unitary or antiunitary :class:`GaugeMap` when it does, or
    a rejection naming the first violated condition.
    """
    if np.ndim(m) > 2:
        raise ValueError("matrix must be square")
    kind, v, _, fault = classify_batch(m)
    if kind != REJECTED:
        return GaugeMap(kind=str(kind), v=v)
    if fault.any():
        return GaugeMap(kind=REJECTED, diagnostic=_fault_message(np.asarray(m, float), fault))
    return GaugeMap(kind=REJECTED,
                    diagnostic="mixed block kinds: rotation and reflection blocks coexist")


def classify_batch(m):
    """:func:`classify` for a stack (..., 2N, 2N) of matrices, validated once.

    Returns the kind names (...), the matrices ``v`` (..., N, N), zero where
    rejected, and the blocks' sigma and fault codes from :func:`decompose_blocks`.
    """
    alpha, phi, sigma, fault = decompose_blocks(as_orthogonal(m, stacked=True))
    rotation = (sigma > 0).any(axis=(-2, -1))
    reflection = (sigma < 0).any(axis=(-2, -1))
    ok = (rotation != reflection) & ~fault.any(axis=(-2, -1))
    v = np.where(ok[..., None, None], alpha * np.exp(1j * phi), 0.0)
    return KINDS[ok * (1 + reflection)], v, sigma, fault


def realify_unitary(v):
    """Orthogonal 2N x 2N realization of a unitary (or a stack): blocks alpha R(phi)."""
    return _realify_blocks(_as_unitary(v), 1.0)


def realify_antiunitary(v):
    """Orthogonal realization of v -> V conj(v) (or a stack): blocks alpha R(phi) F."""
    return _realify_blocks(_as_unitary(v), -1.0)


def _realify_blocks(v, sign):
    """Real (..., 2N, 2N) blocks [[re, -sign im], [im, sign re]] of V; sign -1 conjugates first."""
    n = v.shape[-1]
    m = np.zeros(v.shape[:-2] + (2 * n, 2 * n))
    m[..., 0::2, 0::2] = v.real
    m[..., 0::2, 1::2] = -sign * v.imag
    m[..., 1::2, 0::2] = v.imag
    m[..., 1::2, 1::2] = sign * v.real
    return m


def realify(g):
    """Orthogonal realization of a gauge map."""
    if g.kind == "unitary":
        return realify_unitary(g.v)
    if g.kind == "antiunitary":
        return realify_antiunitary(g.v)
    raise ValueError("cannot realify a non-gauge-invariant verdict")


def _as_unitary(v):
    """Validate a unitary matrix, or a stack (..., N, N) of them."""
    v = np.asarray(v, dtype=complex)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError("matrix must be square")
    _check_residual(np.swapaxes(v, -1, -2).conj() @ v - np.eye(v.shape[-1]), "unitary")
    return v


def apply(g, v):
    """Act with a gauge map on a state or on rows (..., N): Vv, or V conj(v) if antiunitary."""
    if not g.is_gauge_invariant:
        raise ValueError("cannot apply a non-gauge-invariant verdict to a state")
    v = np.asarray(v, dtype=complex)
    return (v.conj() if g.kind == "antiunitary" else v) @ g.v.T


def compose(g1, g2):
    """The gauge map acting as g1 after g2."""
    if not (g1.is_gauge_invariant and g2.is_gauge_invariant):
        raise ValueError("cannot compose non-gauge-invariant verdicts")
    anti1 = g1.kind == "antiunitary"
    anti2 = g2.kind == "antiunitary"
    v2 = g2.v.conj() if anti1 else g2.v
    kind = "antiunitary" if anti1 != anti2 else "unitary"
    return GaugeMap(kind=kind, v=g1.v @ v2)


def gauge_invariance_witness(m, trials=20, *, rng):
    """Direct numerical test of the gauge-invariance property of ``m``.

    Samples random states and global phase shifts from the generator
    ``rng``, and compares the result probabilities of M Q(phi) with those
    of M Q(phi + phi0).  Returns (max_deviation < ``WITNESS_TOL``,
    max_deviation).  Independent of :func:`classify`: no block structure
    is consulted.
    """
    m = as_orthogonal(m)
    worst = float(witness_deviation(m, *witness_draws(m.shape[0] // 2, trials, rng)))
    return worst < WITNESS_TOL, worst


def witness_draws(n, trials, rng):
    """States z (*shape, n) and phases phi0 (shape) for a count or batch shape ``trials``.

    Draws all real parts, then all imaginary parts, then all phases.
    """
    shape = tuple(np.atleast_1d(trials))
    x = rng.normal(size=(2, *shape, n))
    return x[0] + 1j * x[1], rng.uniform(0.0, TWO_PI, shape)


def witness_deviation(m, z, phi0):
    """Batch kernel of :func:`gauge_invariance_witness`, per matrix of ``m`` (..., 2N, 2N).

    For states ``z`` (..., T, N) and phases ``phi0`` (..., T), the largest change
    of a result probability of M Q(v) under v -> e^{i phi0} v over the T trials.
    """
    v = z / np.sqrt(_dot(z.real, z.real) + _dot(z.imag, z.imag))[..., None]
    w = np.stack([v, np.exp(1j * phi0)[..., None] * v])  # each state, then its shift
    q = np.stack([w.real, w.imag], axis=-1).reshape(*w.shape[:-1], m.shape[-1])  # real forms
    mq = (m[..., None, :, :] @ q[..., None])[..., 0]
    P = (mq / np.sqrt(_dot(mq, mq))[..., None]) ** 2
    p = (P / P.sum(axis=-1, keepdims=True)).reshape(*P.shape[:-1], z.shape[-1], 2).sum(axis=-1)
    return np.abs(p[0] - p[1]).max(axis=(-2, -1), initial=0.0)


def _dot(x, y):
    """x . y over the last axis by one BLAS dot per row, which sums as ``np.linalg.norm`` does."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]
