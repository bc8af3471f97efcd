"""Phase-plane (Prufer) form of the wave equation.

For Z = (w, u) with w = mu*u', the polar angle phi = arctan(u/w) obeys

    phi' = gamma(y) sin^2(phi) + (1/mu(y)) cos^2(phi),

decoupled from the amplitude, and log r obeys
(log r)' = (1/mu - gamma) sin(phi) cos(phi).  The angle equation is
integrated directly, so the returned phi is the continuous lift - no
arctangent reconstruction or unwrapping step exists anywhere in the
solver.  Log-amplitude (not r itself) is carried to keep growing
solutions inside floating-point range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import rk
from .errors import IntegrationError, MatchConsistencyError
from .profile import _as_param, _gamma

HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class IntegratorSettings:
    """Local error tolerances of the embedded adaptive pair."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("integrator tolerances must be positive")


DEFAULT_SETTINGS = IntegratorSettings()


@dataclass(frozen=True)
class PhaseState:
    """Lifted phase angle and log-amplitude at one depth."""

    y: float
    phi: float
    log_r: float = 0.0


class PhasePath:
    """Dense trajectory of a phase integration.

    Wraps the integrator's piecewise interpolant; ``sample(n)`` returns
    (y, phi[, log_r]) refined with ``n`` points per accepted step.
    """

    def __init__(self, dense):
        self._dense = dense

    def __call__(self, y):
        return self._dense(y)

    def sample(self, per_step: int = 4):
        knots = self._dense.ts
        ys = [knots[0]]
        for a, b in zip(knots[:-1], knots[1:]):
            ys.extend(np.linspace(a, b, per_step + 1)[1:])
        ys = np.asarray(ys)
        vals = self._dense(ys)
        return ys, vals


def _phase_rhs(gamma: Callable, mu: Callable):
    """Right-hand side of the (phi, log r) system, phi stacked over log r."""
    def rhs(y, state):
        n = state.shape[0] // 2
        phi = state[:n]
        g = gamma(y)
        inv_mu = 1.0 / mu(y)
        c2 = np.cos(2.0 * phi)
        s2 = np.sin(2.0 * phi)
        out = np.empty_like(state)
        out[:n] = 0.5 * (g + inv_mu) + 0.5 * (inv_mu - g) * c2
        out[n:] = 0.5 * (inv_mu - g) * s2
        return out
    return rhs


def integrate_phase(gamma: Callable, mu: Callable, phi0: float, y_from: float,
                    y_to: float, settings: Optional[IntegratorSettings] = None,
                    with_path: bool = False):
    """Propagate the lifted phase and log-amplitude from y_from to y_to.

    Parameters
    ----------
    gamma, mu : callable
        Coefficient and stiffness accessors; must be defined on the
        closed interval between the endpoints.  ``y_to < y_from``
        integrates backward.
    phi0 : float
        Initial lifted angle at ``y_from``; log r starts at 0.
    with_path : bool
        Also return a :class:`PhasePath` with dense output.

    Returns
    -------
    PhaseState or (PhaseState, PhasePath)

    Raises
    ------
    IntegrationError
        On step-size underflow; the error carries the last good state.
    """
    settings = settings or DEFAULT_SETTINGS
    state0 = np.array([phi0, 0.0])
    rhs = _phase_rhs(gamma, mu)
    try:
        res = rk.solve(rhs, y_from, state0, y_to,
                       rtol=settings.rel_tol, atol=settings.abs_tol,
                       dense=with_path)
    except IntegrationError as exc:
        if exc.last_state is not None:
            y_last, s_last = exc.last_state
            exc.last_state = PhaseState(y=y_last, phi=float(s_last[0]),
                                        log_r=float(s_last[1]))
        raise
    state = PhaseState(y=res.t, phi=float(res.y[0]), log_r=float(res.y[1]))
    if with_path:
        return state, PhasePath(res.dense)
    return state


def phase_batch(problem, K, omegas, phi0, y_from: float, y_to: float,
                settings: Optional[IntegratorSettings] = None, read_at=None):
    """Propagate the phase angles of a frequency batch in one sweep.

    The members are the parameter points (K, omegas) of ``problem``,
    ``K`` a scalar or one value per member; ``phi0`` holds their angles
    at ``y_from``.  Used by the dispersion scan, where the members are
    the same profile at many frequencies.

    ``read_at``, when given, is a per-member depth array: the sweep
    covers the hull of those depths and each member's angle is read off
    at its own depth (anything integrated past it is simply unused).

    Batch sweeps run on the frozen-coefficient propagator engine (see
    :mod:`shwave.propagate`), which agrees with the direct phase
    integration to tolerance but is not stability-limited in stiff
    evanescent stretches.  Each step attempt calls ``problem.coef_pair``
    and ``problem.stiffness`` once, on an array of depths, for the whole
    batch; an accepted step keeps the local Richardson value of its
    step doubling; no step crosses ``problem.breakpoints``.
    """
    from . import propagate

    settings = settings or DEFAULT_SETTINGS
    phi, _ = propagate.sweep_phase(problem, K, omegas, phi0, y_from, y_to,
                                   rtol=settings.rel_tol, atol=settings.abs_tol,
                                   read_at=read_at)
    return phi


def surface_phase(problem, A, y_end: float,
                  settings: Optional[IntegratorSettings] = None,
                  with_path: bool = False):
    """Forward solution launched from the traction-free surface.

    The Neumann condition u'(0) = 0 pins the angle at exactly pi/2
    (u = 1, w = 0); the amplitude is normalized to r(0) = 1.
    """
    if not y_end > 0:
        raise ValueError("y_end must be positive")
    A = _as_param(A)
    return integrate_phase(partial(_gamma, problem, A.K, A.Omega),
                           problem.stiffness, HALF_PI, 0.0, y_end,
                           settings=settings, with_path=with_path)


def reconstruct_mode_shape(problem, mode, y_grid,
                           settings: Optional[IntegratorSettings] = None):
    """Sample the displacement u(y) of a matched mode, with u(0) = 1.

    The forward sweep covers [0, y_bar], the backward (decaying) sweep
    [y_bar, y_tail]; the tail piece is scaled and sign-matched with the
    (-1)^n factor implied by the integer angle offset at the matching
    point.  A relative (u, w) mismatch above 1e-6 at y_bar raises
    :class:`MatchConsistencyError`.  Beyond y_tail the evanescent tail
    is extended with the local frozen decay rate.
    """
    from .decay import decaying_phase  # local import to avoid a cycle

    A = _as_param((mode.K, mode.Omega))
    cfg = mode.matching
    fwd_state, fwd_path = surface_phase(problem, A, cfg.y_bar,
                                        settings=settings, with_path=True)
    bwd_state, bwd_path = decaying_phase(problem, A, cfg, settings=settings,
                                         with_path=True)
    n = mode.m - 1
    phi_f, lr_f = fwd_state.phi, fwd_state.log_r
    phi_b, lr_b = bwd_state.phi, bwd_state.log_r

    d_angle = phi_f - (phi_b + n * math.pi)
    sigma = (-1.0) ** n * math.exp(lr_f - lr_b)
    uf = math.exp(lr_f) * math.sin(phi_f)
    wf = math.exp(lr_f) * math.cos(phi_f)
    ub = sigma * math.exp(lr_b) * math.sin(phi_b)
    wb = sigma * math.exp(lr_b) * math.cos(phi_b)
    norm = math.hypot(uf, wf)
    mismatch = math.hypot(uf - ub, wf - wb) / norm
    if mismatch > 1e-6:
        raise MatchConsistencyError(
            "forward/backward sweeps disagree at y_bar: relative mismatch "
            "%.3e (angle defect %.3e)" % (mismatch, d_angle))

    y_grid = np.asarray(y_grid, dtype=float)
    u = np.empty_like(y_grid)
    fwd_mask = y_grid <= cfg.y_bar
    vals = fwd_path(y_grid[fwd_mask])
    u[fwd_mask] = np.exp(vals[..., 1]) * np.sin(vals[..., 0])

    mid_mask = (~fwd_mask) & (y_grid <= cfg.y_tail)
    vals = bwd_path(y_grid[mid_mask])
    u[mid_mask] = sigma * np.exp(vals[..., 1]) * np.sin(vals[..., 0])

    far_mask = y_grid > cfg.y_tail
    if np.any(far_mask):
        gY = _gamma(problem, A.K, A.Omega, cfg.y_tail)
        kappa = math.sqrt(max(-gY, 0.0) / problem.stiffness(cfg.y_tail))
        vals = bwd_path(np.array([cfg.y_tail]))
        u_at_Y = sigma * math.exp(vals[0, 1]) * math.sin(vals[0, 0])
        u[far_mask] = u_at_Y * np.exp(-kappa * (y_grid[far_mask] - cfg.y_tail))
    return u
