"""Stationary-state evolution and the Hamilton-Jacobi correspondence.

A state of definite energy E whose observable degrees of freedom are
time-independent evolves as chi_i -> chi_i - E dt / alpha, i.e. as a
global phase rotation.  The same shift appears classically: a
Hamilton-Jacobi ensemble (P(x, t), S(x, t)) of definite energy evolves
as (P, S - E dt), and the correspondence S_i = alpha chi_i makes the
two coincide.  This module implements both shifts and residual checks
of the discretized Hamilton-Jacobi equations.
"""

from dataclasses import dataclass

import numpy as np

from .qspace import PhaseRep
from .simplex import as_prob_vec


def evolve_stationary(rep, energy, dt, alpha):
    """Shift every present phase by -energy * dt / alpha (probabilities fixed).

    ``energy`` and ``dt`` may be arrays of the stack shape of ``rep``.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return PhaseRep(p=rep.p, phi=rep.phi - np.asarray(energy * dt / alpha)[..., None])


@dataclass(frozen=True)
class HJGridState:
    """Discretized Hamilton-Jacobi ensemble on a uniform 1-D lattice.

    ``P`` holds site probabilities (summing to 1), ``S`` the action per
    site, ``V`` the potential per site; ``h`` is the lattice spacing
    and ``x0`` the first site.  ``P``, ``S`` and ``V`` of shape (..., sites)
    hold a stack of ensembles on the same lattice.
    """

    h: float
    x0: float
    P: np.ndarray
    S: np.ndarray
    m: float
    V: np.ndarray = None

    def __post_init__(self):
        P = as_prob_vec(self.P)
        S = np.asarray(self.S, dtype=float)
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if P.shape != S.shape:
            raise ValueError("P and S must have the same shape")
        V = np.zeros_like(P) if self.V is None else np.asarray(self.V, dtype=float)
        if V.shape != P.shape:
            raise ValueError("V must match the grid")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "V", V)


def hj_stationary_step(state, energy, dt):
    """Evolve a stationary-ensemble state: P unchanged, S -> S - E dt.

    ``energy`` and ``dt`` may be arrays of the stack shape of ``state``.
    """
    return HJGridState(h=state.h, x0=state.x0, P=state.P,
                       S=state.S - np.asarray(energy * dt)[..., None], m=state.m, V=state.V)


def hj_residual(state_fn, t, dt):
    """Max-norm residuals of the discretized Hamilton-Jacobi equations.

    ``state_fn(t)`` must return the :class:`HJGridState` at time t; the
    states at t - dt, t, t + dt are used for the central time
    difference.  Returns (continuity_residual, hj_residual) evaluated
    at interior lattice points only (two sites trimmed at each end,
    since the continuity equation differences the flux, which is itself
    a difference).

    Residuals are of the density form: site probabilities are converted
    to densities P/h so that the equations match their continuum
    counterparts.
    """
    prev, cur, nxt = state_fn(t - dt), state_fn(t), state_fn(t + dt)
    if cur.P.ndim != 1 or cur.P.size < 5:
        raise ValueError("need one ensemble per time, not a stack, on a grid of 3 or more "
                         "interior points")
    n = cur.P.size
    for other in (prev, nxt):
        if other.P.size != n or other.h != cur.h:
            raise ValueError("states at different times use different grids")
    h, m = cur.h, cur.m

    rho_prev, rho, rho_next = prev.P / h, cur.P / h, nxt.P / h

    # dS/dx at interior points 1..n-2
    Sx = (cur.S[2:] - cur.S[:-2]) / (2.0 * h)
    flux = rho[1:-1] * Sx / m
    # d(flux)/dx at points 2..n-3
    dflux = (flux[2:] - flux[:-2]) / (2.0 * h)
    drho_dt = (rho_next[2:-2] - rho_prev[2:-2]) / (2.0 * dt)
    continuity = drho_dt + dflux

    dS_dt = (nxt.S[2:-2] - prev.S[2:-2]) / (2.0 * dt)
    hj = dS_dt + Sx[1:-1] ** 2 / (2.0 * m) + cur.V[2:-2]

    return float(np.max(np.abs(continuity))), float(np.max(np.abs(hj)))


def phase_rep_from_hj(state, alpha):
    """Map (p_i; S_i) to the phase representation via phi_i = chi_i = S_i / alpha."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    return PhaseRep(p=state.P, phi=np.where(state.P > 0, state.S / alpha, np.nan))


def free_particle_state(momentum, m, h, x0, n, t):
    """Plane-wave Hamilton-Jacobi family: S = p x - p^2 t / (2m), V = 0, uniform P.

    This family satisfies the discretized equations exactly, since S is
    linear in x and t and P is time-independent.
    """
    x = x0 + h * np.arange(n)
    P = np.full(n, 1.0 / n)
    P = P / P.sum()
    S = momentum * x - momentum**2 * t / (2.0 * m)
    return HJGridState(h=h, x0=x0, P=P, S=S, m=m)


def spreading_free_particle_state(m, h, x0, n, t, width=1.0):
    """Self-similar free ensemble: S = m x^2 / (2t), rho(x, t) = g(x/t) / t.

    An exact solution of the continuum equations with V = 0 (g here a
    Gaussian profile of the given width), but nonlinear in x and t, so
    its discrete residuals are nonzero and shrink as O(h^2) + O(dt^2).
    """
    if t <= 0:
        raise ValueError("this family is defined for t > 0")
    x = x0 + h * np.arange(n)
    g = np.exp(-((x / t) ** 2) / (2.0 * width**2))
    rho = g / t
    P = rho / rho.sum()
    S = m * x**2 / (2.0 * t)
    return HJGridState(h=h, x0=x0, P=P, S=S, m=m)
