"""Phase-plane (Prufer) form of the wave equation.

For Z = (w, u) with w = mu*u', the polar angle phi = arctan(u/w) obeys

    phi' = gamma(y) sin^2(phi) + (1/mu(y)) cos^2(phi),

decoupled from the amplitude, and log r obeys
(log r)' = (1/mu - gamma) sin(phi) cos(phi).  Every angle the solver
uses comes from the propagator sweep of :mod:`shwave.propagate`, whose
lift across multiples of pi is exact per step, so the returned phi is
the continuous lift with no unwrapping step anywhere.
:func:`integrate_phase` integrates the angle equation directly with a
Runge-Kutta pair; it is the independent reference of the test suite.
Log-amplitude (not r itself) is carried to keep growing solutions
inside floating-point range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import propagate, rk
from .errors import DomainError, IntegrationError, MatchConsistencyError
from .profile import _gamma

HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class IntegratorSettings:
    """Local error tolerances of the adaptive phase sweeps."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        _check_positive(self, "rel_tol", "abs_tol")


def _check_positive(options, *names):
    """ValueError unless each named field is a finite number > 0 (no bool)."""
    for name in names:
        value = getattr(options, name)
        if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                           and 0 < value < math.inf):
            raise ValueError("%s must be a finite number > 0, got %r"
                             % (name, value))


DEFAULT_SETTINGS = IntegratorSettings()


@dataclass(frozen=True)
class PhaseState:
    """Lifted phase angle and log-amplitude at one depth."""

    y: float
    phi: float
    log_r: float = 0.0


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
                    y_to: float, settings: Optional[IntegratorSettings] = None):
    """Propagate the lifted phase and log-amplitude from y_from to y_to.

    Integrates the phase equation directly with the Runge-Kutta pair of
    :mod:`shwave.rk`.  No solver path uses it: it is the independent
    reference the test suite checks :func:`shwave.propagate.sweep_phase`
    against.

    Parameters
    ----------
    gamma, mu : callable
        Coefficient and stiffness accessors; must be defined on the
        closed interval between the endpoints.  ``y_to < y_from``
        integrates backward.
    phi0 : float
        Initial lifted angle at ``y_from``; log r starts at 0.

    Returns
    -------
    PhaseState

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
                       rtol=settings.rel_tol, atol=settings.abs_tol)
    except IntegrationError as exc:
        if exc.last_state is not None:
            y_last, s_last = exc.last_state
            exc.last_state = PhaseState(y=y_last, phi=float(s_last[0]),
                                        log_r=float(s_last[1]))
        raise
    return PhaseState(y=res.t, phi=float(res.y[0]), log_r=float(res.y[1]))


def phase_batch(problem, K, omegas, phi0, y_from: float, reads,
                settings: Optional[IntegratorSettings] = None):
    """Propagate the phase angles of a frequency batch in one sweep.

    The members are the parameter points (K, omegas) of ``problem``,
    ``K`` a scalar or one value per member; ``phi0`` holds their angles
    at ``y_from``.  No solver path calls it: the scans and the
    refinement sweep the surface angle in the same call as the decaying
    tail (see ``decay.decaying_phase_batch``).

    ``reads`` is a scalar or one depth per member: each member's angle
    is read off at its own depth, and the sweep ends at the farthest.
    The sweep is :func:`shwave.propagate.sweep_phase`.
    """
    settings = settings or DEFAULT_SETTINGS
    phi, _ = propagate.sweep_phase(problem, K, omegas, phi0, y_from, reads,
                                   rtol=settings.rel_tol, atol=settings.abs_tol)
    return phi


def reconstruct_mode_shape(problem, mode, y_grid):
    """Sample the displacement u(y) of a matched mode, with u(0) = 1.

    One :func:`shwave.propagate.sweep_phase` call holds the surface
    sweep over [0, y_bar], the decaying sweep over [y_bar, y_tail] and,
    unless the profile is exactly constant beyond y_tail, its
    tail-window check, each on a lane of its own.  In the first two,
    member 0 reads y_bar and each other member reads one depth of the
    ``y_grid``, whose depths must be finite and nonnegative (else
    :class:`DomainError`).  The tail piece is scaled and sign-matched
    with the (-1)^n factor implied by the integer angle offset at the
    matching point.  A relative (u, w) mismatch above 1e-6 at y_bar
    raises :class:`MatchConsistencyError`.  Beyond y_tail the
    evanescent tail is extended with the local frozen decay rate.
    """
    from . import decay  # decay imports this module

    K, Omega, cfg = mode.K, mode.Omega, mode.matching
    y_grid = np.asarray(y_grid, dtype=float)
    bad = ~(np.isfinite(y_grid) & (y_grid >= 0))
    if bad.any():
        raise DomainError("mode-shape depths must be finite and non-negative, "
                          "got %r" % float(np.extract(bad, y_grid)[0]))
    fwd = y_grid <= cfg.y_bar
    far = y_grid > cfg.y_tail
    mid = ~fwd & ~far

    reads_f = np.concatenate([[cfg.y_bar], y_grid[fwd]])
    reads = np.concatenate([[cfg.y_bar], y_grid[mid], [cfg.y_tail]])
    phi_b, lr_b, _, (phi_f, lr_f) = decay.decaying_phase_batch(
        problem, K, np.full(reads.shape, Omega), cfg, y_bars=reads,
        want_log_r=True, surface=(K, np.full(reads_f.shape, Omega), reads_f))

    n = mode.m - 1
    d_angle = phi_f[0] - (phi_b[0] + n * math.pi)
    sigma = (-1.0) ** n * math.exp(lr_f[0] - lr_b[0])
    rf, rb = np.exp(lr_f), sigma * np.exp(lr_b)
    uf, wf = rf * np.sin(phi_f), rf * np.cos(phi_f)
    ub, wb = rb * np.sin(phi_b), rb * np.cos(phi_b)
    mismatch = (math.hypot(uf[0] - ub[0], wf[0] - wb[0])
                / math.hypot(uf[0], wf[0]))
    if mismatch > 1e-6:
        raise MatchConsistencyError(
            "forward/backward sweeps disagree at y_bar: relative mismatch "
            "%.3e (angle defect %.3e)" % (mismatch, d_angle))

    u = np.empty_like(y_grid)
    u[fwd] = uf[1:]
    u[mid] = ub[1:-1]
    gY = _gamma(problem, K, Omega, cfg.y_tail)
    kappa = math.sqrt(max(-gY, 0.0) / problem.stiffness(cfg.y_tail))
    u[far] = ub[-1] * np.exp(-kappa * (y_grid[far] - cfg.y_tail))
    return u
