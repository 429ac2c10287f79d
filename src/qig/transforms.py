"""Gauge-invariant orthogonal maps and their unitary/antiunitary form.

A physical transformation acts on 2N-real state vectors as an
orthogonal matrix M.  Requiring that result probabilities are
insensitive to a global phase shift of the state forces every 2x2
block M[2k-1:2k, 2i-1:2i] to be a scaled rotation (sigma = +1) or a
scaled reflection-rotation (sigma = -1), with a single sigma shared by
all nonzero blocks.  Reading each block as a complex number alpha
e^{i phi} turns M into a unitary matrix V (sigma = +1) or a unitary
followed by entrywise conjugation, V K (sigma = -1): Wigner's
alternative, obtained here by direct classification.  Leading axes hold
a stack of matrices or maps, and every function here acts on each.
"""

from dataclasses import dataclass

import numpy as np

from .qspace import TWO_PI, _states

ORTHO_TOL = 1e-10
BLOCK_TOL = 1e-10
WITNESS_TOL = 1e-9

REJECTED = "not_gauge_invariant"
# indexed by 0 (rejected), 1 (rotation blocks only), 2 (reflection blocks only)
KINDS = np.array([REJECTED, "unitary", "antiunitary"])


def as_orthogonal(m):
    """Validate real m, or a stack (..., 2N, 2N) of them: m.T m = I within ORTHO_TOL."""
    return _check_unitary(_as_block_matrix(m), "orthogonal")


def _as_block_matrix(m):
    """Real m as a float 2N x 2N matrix, or a stack (..., 2N, 2N) of them."""
    m = _as_square(m, float)
    if m.shape[-1] % 2 != 0:
        raise ValueError("matrix dimension must be even (2N)")
    return m


def _as_square(x, dtype):
    """``x`` as a ``dtype`` square matrix, or a stack (..., N, N) of them."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError("matrix must be square")
    return x


def _check_unitary(x, kind):
    """``x``, unless some matrix of the stack has |x^H x - I| (Frobenius) > ``ORTHO_TOL``.

    One test for real and complex stacks: ``.conj()`` of a real array is the array itself.
    """
    d = np.swapaxes(x, -1, -2).conj() @ x - np.eye(x.shape[-1])
    sq = np.add.reduce(np.abs(d) ** 2, axis=(-2, -1))
    if not (sq if sq.ndim == 0 else sq.max(initial=0.0)) <= ORTHO_TOL**2:  # also fails on NaN
        resid = np.sqrt(np.ravel(sq)[np.argmax(sq)])
        raise ValueError(f"matrix is not {kind}: residual {resid:g}")
    return x


@dataclass(frozen=True)
class GaugeMap:
    """Verdict of :func:`classify`.

    ``kind`` is "unitary", "antiunitary", or "not_gauge_invariant".
    For the first two, ``v`` is the N x N unitary matrix; an
    antiunitary map acts as v -> V conj(v).  For a rejection, ``v`` is
    None and ``diagnostic`` names the first violated condition.  A stack
    has ``v`` (..., N, N), zero where rejected, ``kind`` (and so
    ``is_gauge_invariant``) a str array (...) or one str for all, and no diagnostic.
    """

    kind: str
    v: np.ndarray = None
    diagnostic: str = None

    @property
    def is_gauge_invariant(self):
        return (self.kind == "unitary") | (self.kind == "antiunitary")


def _antiunitary(g, verb):
    """Whether ``g`` is antiunitary, per map for an array of kinds; raises on a rejection."""
    ok = g.is_gauge_invariant
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise ValueError(f"cannot {verb} a non-gauge-invariant verdict")
    return g.kind == "antiunitary"


def _where(anti, yes, no, core):
    """``yes`` where ``anti`` else ``no``, per map over ``core`` trailing axes of the values."""
    if isinstance(anti, bool):  # one kind: a branch, far cheaper than np.where
        return yes if anti else no
    return np.where(anti.reshape(anti.shape + (1,) * core), yes, no)


def block_decomposition(m):
    """Per-block (alpha, phi, sigma) arrays (..., N, N) of a 2N x 2N matrix or a stack.

    alpha >= 0 is the block scale, phi in [0, 2pi) its angle (zero for a
    zero block), sigma +1/-1 the block kind with 0 marking a zero block
    (sigma unconstrained there).  Raises ValueError naming the first
    block that is not a scaled (reflection-)rotation within ``BLOCK_TOL``.
    """
    m = _as_block_matrix(m)
    alpha, phi, sigma, fault = _decompose(m)
    if fault.any():
        raise ValueError(_fault_message(m, fault))
    return alpha, phi, sigma


def _decompose(m):
    """alpha, phi, sigma and ``fault``, each (..., N, N), of a stack (..., 2N, 2N).

    ``fault`` is 1 where a block's column norms differ, else 2 where its
    columns are not orthogonal, else 0.
    """
    b00, b01, b10, b11 = (m[..., r::2, c::2] for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))
    a, b, g = b00**2 + b10**2, b01**2 + b11**2, b00 * b01 + b10 * b11
    scale = np.sqrt(0.5 * (a + b))
    live = ~(scale <= BLOCK_TOL)  # NaN blocks stay live
    fault = np.where(np.abs(a - b) > BLOCK_TOL, 1, np.where(np.abs(g) > BLOCK_TOL, 2, 0)) * live
    sigma = np.where(b00 * b11 - b01 * b10 > 0, 1, -1) * live
    phi = np.arctan2(b10, b00)
    phi += TWO_PI * (phi < 0.0)  # into [0, 2pi) as the floored % is, and -0.0 to +0.0
    phi = np.where(live, phi, 0.0)
    return np.where(live, scale, 0.0), phi, sigma, fault


def _fault_message(m, fault):
    """Name the first faulty block in row-major order, and its matrix if ``m`` is a stack."""
    *at, k, i = map(int, np.argwhere(fault)[0])
    (b00, b01), (b10, b11) = m[(*at, slice(2 * k, 2 * k + 2), slice(2 * i, 2 * i + 2))]
    where = f"matrix {tuple(at)}, block ({k}, {i})" if at else f"block ({k}, {i})"
    if fault[(*at, k, i)] == 1:
        return (f"{where}: column norms differ "
                f"(alpha={b00**2 + b10**2:g}, beta={b01**2 + b11**2:g})")
    return f"{where}: columns not orthogonal (gamma={b00 * b01 + b10 * b11:g})"


def classify(m):
    """Decide whether an orthogonal matrix respects global gauge invariance.

    Returns a unitary or antiunitary :class:`GaugeMap` when it does, or
    a rejection naming the first violated condition.  For a stack
    (..., 2N, 2N) it returns one stacked map: ``kind`` names (...), ``v``
    (..., N, N) zero where rejected, and no diagnostic.
    """
    m = as_orthogonal(m)
    alpha, phi, sigma, fault = _decompose(m)
    rotation = (sigma > 0).any(axis=(-2, -1))
    reflection = (sigma < 0).any(axis=(-2, -1))
    ok = (rotation != reflection) & ~fault.any(axis=(-2, -1))
    if m.ndim > 2:  # no diagnostic, and no exp for the blocks of rejected matrices
        v = np.exp(1j * phi, where=ok[..., None, None], out=np.zeros(alpha.shape, dtype=complex))
        return GaugeMap(kind=KINDS[ok * (1 + reflection)], v=np.multiply(alpha, v, out=v))
    if ok:
        return GaugeMap(kind=str(KINDS[1 + reflection]), v=alpha * np.exp(1j * phi))
    if fault.any():
        return GaugeMap(kind=REJECTED, diagnostic=_fault_message(m, fault))
    return GaugeMap(kind=REJECTED,
                    diagnostic="mixed block kinds: rotation and reflection blocks coexist")


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
    """Orthogonal realization of a gauge map, or (..., 2N, 2N) of a stack of them."""
    return _realify_blocks(_as_unitary(g.v), _where(_antiunitary(g, "realify"), -1.0, 1.0, 2))


def _as_unitary(v):
    """Validate a unitary matrix, or a stack (..., N, N) of them."""
    return _check_unitary(_as_square(v, complex), "unitary")


def apply(g, v):
    """Act with a gauge map on states (..., N): Vv, or V conj(v) if antiunitary.

    One map acts on every state; a stack of maps acts on states broadcast
    against its stack axes.
    """
    anti = _antiunitary(g, "apply")
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != g.v.shape[-1:]:
        raise ValueError("state and map dimensions differ")
    v = _where(anti, v.conj(), v, 1)
    # einsum, not @: BLAS threads a GEMM of many rows, and its idle threads spin after it
    return np.einsum("...ij,...j->...i", g.v, v)


def compose(g1, g2):
    """The gauge map acting as g1 after g2, map by map for stacks."""
    anti1, anti2 = _antiunitary(g1, "compose"), _antiunitary(g2, "compose")
    v2 = _where(anti1, g2.v.conj(), g2.v, 2)
    return GaugeMap(kind=_where(anti1 != anti2, "antiunitary", "unitary", 0), v=g1.v @ v2)


def gauge_invariance_witness(m, trials=20, *, rng):
    """Direct numerical test of the gauge-invariance property of ``m``.

    Samples ``trials`` random states and global phase shifts from the
    generator ``rng`` and compares the result probabilities of M Q(phi)
    with those of M Q(phi + phi0).  Returns (max_deviation <
    ``WITNESS_TOL``, max_deviation).  Independent of :func:`classify`: no
    block structure is consulted.  A stack (..., 2N, 2N) gets ``trials``
    draws per matrix, all real parts, then all imaginary parts, then all
    phases, and returns arrays (...).
    """
    m = as_orthogonal(m)
    shape = (*m.shape[:-2], trials)
    v = _states(rng.normal(size=(2, *shape, m.shape[-1] // 2)))
    phi0 = rng.uniform(0.0, TWO_PI, shape)
    # per matrix, 2 * trials rows: each state, then each shifted state
    w = np.concatenate([v, np.exp(1j * phi0)[..., None] * v], axis=-2)
    # a complex row viewed as floats is its real form Q: one product per matrix
    mq = w.view(float) @ np.swapaxes(m, -1, -2)
    mq *= mq
    p = mq[..., 0::2] + mq[..., 1::2]  # result i coarse-grains outcomes 2i and 2i + 1
    p /= p.sum(axis=-1, keepdims=True)
    worst = np.abs(p[..., :trials, :] - p[..., trials:, :]).max(axis=(-2, -1), initial=0.0)
    worst = worst if worst.ndim else float(worst)
    return worst < WITNESS_TOL, worst
