"""Construction of the decaying tail solution.

When the coefficient limit gamma_inf = Omega*rho_inf - K*mu_inf is
negative, the equation has a one-dimensional family of solutions
vanishing at infinity.  Its phase angle is recovered by (i) picking a
matching depth y_bar an Airy length behind the last sign change of
gamma_A, in :func:`matching_depths`, the one rule behind every matching
depth (the scan's window and the refinement's per-bracket depths),
(ii) picking a tail-start depth Y where the coefficient is close to its
limit and the integral of its distance beyond Y is small, in
:func:`matching_config`, on one grid behind y_bar that gives both and
on which gamma_A must stay negative up to Y, and (iii) seeding the
angle with the frozen-coefficient decaying direction at Y and sweeping
it backward to y_bar with the propagator of :mod:`shwave.propagate`.
The decay direction is an attractor of the backward flow, so the
seeding error shrinks exponentially; a tail-window doubling re-solve
verifies that the delivered angle is insensitive to the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import propagate
from .errors import (NoNegativeTailError, TailConvergenceError,
                     TailSelectionError, ThresholdError)
from .prufer import DEFAULT_SETTINGS, HALF_PI, IntegratorSettings, PhaseState
from .profile import ParamPoint, _as_param, _gamma

NEAR_THRESHOLD_DELTA = 1e-9     # reject Omega above (1 - delta) * cutoff
DEFAULT_MARGIN = 0.5            # largest margin behind the last sign change
DEFAULT_Y_BAR = 1.0             # matching depth when gamma_A < 0 everywhere
TAIL_ANGLE_TOL = 1e-8           # doubling-robustness tolerance on phi+(y_bar)
TAIL_REL_TOL = 1e-8             # |beta(Y)| / |gamma_inf| at the tail start
TAIL_RESIDUAL_TOL = 1e-8        # remaining integral of |beta| beyond Y
_CONTRACTION_BUDGET = 14.0      # integral of the decay rate over [y_bar, Y]
_Y_CAP = 1e8                    # deepest matching depth searched
_TAIL_ATTEMPTS = 4              # tail windows tried, doubling each time
_SECTIONS = np.linspace(0.0, 1.0, 129)  # a crossing's cuts per pass
_BAND_SLACK = 1e-9              # on the (pi/2, pi) band of decaying angles


@dataclass(frozen=True)
class MatchingConfig:
    """Matching depth and tail-start depth of one parameter point."""

    y_bar: float
    y_tail: float

    def __post_init__(self):
        if not (0 < self.y_bar <= self.y_tail):
            raise ValueError("need 0 < y_bar <= y_tail")

    def stretched(self, factor: float) -> "MatchingConfig":
        """Same matching depth with the tail window scaled by ``factor``."""
        return replace(self, y_tail=self.y_bar + factor * (self.y_tail - self.y_bar))


def _guard_threshold(problem, A):
    """Raise if Omega sits inside the guard band below the cutoff."""
    p_inf, q_inf = problem.coef_pair_inf
    cutoff = A.K * q_inf / p_inf
    if A.Omega > cutoff * (1.0 - NEAR_THRESHOLD_DELTA):
        raise ThresholdError(
            "Omega=%.17g is within the guard band of the cutoff %.17g; "
            "the decaying direction is numerically indistinct there"
            % (A.Omega, cutoff))


def matching_depths(problem, K: float, omegas):
    """Matching depth of each member (K, Omega): the one rule for y_bar.

    y_bar = y* + min(DEFAULT_MARGIN, max(0.05, (2.25/sqrt|gamma'(y*)|)^(2/3)))
    behind the last sign change y* of gamma_A, an Airy length over which
    the decay integral of sqrt(|gamma'| s) reaches 1.5; DEFAULT_Y_BAR if
    gamma_A < 0 from the surface.  Windows doubling outward (steps of
    0.01 up to a width of 64, then 4,096 geometric samples) sample gamma_A
    until one shows no nonnegative value and |beta| < |gamma_inf|/2 for
    every member, certifying gamma_A < 0 beyond (beta decays to zero).
    All y* are then refined together to 1e-6, seven bisections per pass.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    ginf = _gamma(problem, K, omegas)[:, None]
    lo = np.full(omegas.shape, np.nan)      # last nonnegative sample
    hi = lo.copy()                          # the sample after it
    a, b = 0.0, 16.0
    while True:
        if b > _Y_CAP:
            raise NoNegativeTailError(
                "gamma_A keeps returning to >= 0 up to y=%.3g; parameters too "
                "close to or above the limit ray" % _Y_CAP)
        ys = np.linspace(a, b, max(int((b - a) / 0.01), 64) + 1) \
            if b - a <= 64.0 else np.geomspace(max(a, 1e-3), b, 4096)
        g = _gamma(problem, K, omegas, ys)
        nonneg = g >= 0     # windows move outward: the latest is the deepest
        on = nonneg.any(axis=1)
        last = ys.size - 1 - np.argmax(nonneg[:, ::-1], axis=1)
        lo[on] = ys[last[on]]
        hi[on] = ys[np.minimum(last[on] + 1, ys.size - 1)]
        if not np.any(on) and np.all(np.abs(g - ginf) < 0.5 * np.abs(ginf)):
            break
        a, b = b, 2.0 * b

    out = np.full(omegas.shape, DEFAULT_Y_BAR)
    crossed = ~np.isnan(lo)
    lo, hi, oms = lo[crossed], hi[crossed], omegas[crossed, None]
    slope = np.zeros(lo.shape)
    while np.any(hi - lo > 1e-6):
        w = np.nonzero(hi - lo > 1e-6)[0]
        ys = lo[w, None] + np.outer(hi[w] - lo[w], _SECTIONS)
        ys[:, -1] = hi[w]
        p, q = problem.coef_pair(ys.ravel())
        g = oms[w] * p.reshape(ys.shape) - K * q.reshape(ys.shape)
        g[:, 0] = np.abs(g[:, 0])       # lo was found nonnegative
        last = _SECTIONS.size - 2 - np.argmax(g[:, -2::-1] >= 0, axis=1)
        r = np.arange(w.size)
        lo[w], hi[w] = ys[r, last], ys[r, last + 1]
        slope[w] = np.abs(g[r, last] - g[r, last + 1]) / (hi[w] - lo[w])
    out[crossed] = hi + np.minimum(DEFAULT_MARGIN, np.maximum(
        0.05, (2.25 / np.maximum(np.sqrt(slope), 1e-9)) ** (2.0 / 3.0)))
    return out


def matching_config(problem, A) -> MatchingConfig:
    """Matching depth y_bar and tail start Y of a parameter point.

    y_bar is :func:`matching_depths` of the point.

    Y is picked on one grid from y_bar: a step of 0.01 over the first 5
    units, then 0.05 up to y_bar + 64, then geometric up to y_max =
    max(1000, 32 (y_bar + 1)), then two geometric doublings to 4 y_max
    (256 samples).  The remaining integral of |beta| beyond each sample
    is the reverse cumulative trapezoid up to 4 y_max plus the geometric
    continuation of those two doublings (inf unless the second holds
    less than 0.95 of the first).  Primary criterion: the first sample
    up to y_max with |beta(Y)| <= TAIL_REL_TOL*|gamma_inf| and a
    remaining integral <= TAIL_RESIDUAL_TOL.  For exactly-clamped
    profiles Y = tail_constant_from suffices (beta vanishes beyond) and
    the grid ends there.  For slowly decaying tails (power laws) the
    integral criterion can be unattainable at any reachable depth; the
    fallback then picks the first sample up to y_max whose backward
    contraction budget, the integral of sqrt(-gamma/mu) over [y_bar, Y],
    exceeds a fixed budget, which the doubling re-solve in
    :func:`decaying_phase_batch` validates.
    gamma_A must be negative on every sample of the grid up to Y.
    """
    A = _as_param(A)
    _guard_threshold(problem, A)
    ginf = _gamma(problem, A.K, A.Omega)
    if ginf >= 0:
        raise ThresholdError("gamma_inf >= 0: no decaying tail exists")

    y_bar = float(matching_depths(problem, A.K, A.Omega)[0])

    tail_from = getattr(problem, "tail_constant_from", None)
    y_max = max(1000.0, 32.0 * (y_bar + 1.0)) if tail_from is None \
        else max(y_bar, float(tail_from))
    ys = np.concatenate([
        y_bar + 0.01 * np.arange(500),
        np.arange(y_bar + 5.0, min(y_bar + 64.0, y_max), 0.05),
        np.geomspace(max(y_bar + 64.0, 1.0), y_max, 512)
        if y_max > y_bar + 64.0 else [],
        np.geomspace(y_max, 4.0 * y_max, 257)[1:] if tail_from is None else []])
    g = _gamma(problem, A.K, A.Omega, ys)
    y_tail = y_max                      # beta vanishes beyond tail_from
    if tail_from is None:
        bvals = np.abs(g - ginf)
        inside = ys <= y_max
        # remaining integral of |beta| beyond each sample: trapezoids up
        # to 4 y_max, then the geometric continuation of the two doublings
        piece = 0.5 * (bvals[1:] + bvals[:-1]) * np.diff(ys)
        rest = np.concatenate([np.cumsum(piece[::-1])[::-1], [0.0]])
        w1, w2 = rest[-257] - rest[-129], rest[-129]
        if w1 > 1e-300 and w2 > 1e-300:
            rest += w2 * w2 / (w1 - w2) if w2 < 0.95 * w1 else np.inf
        hits = np.nonzero(inside & (bvals <= TAIL_REL_TOL * abs(ginf))
                          & (rest <= TAIL_RESIDUAL_TOL))[0]
        if not len(hits):
            # contraction-budget fallback
            kappa = np.sqrt(np.maximum(-g, 0.0) /
                            np.asarray(problem.stiffness(ys), dtype=float))
            budget = np.concatenate([[0.0], np.cumsum(
                0.5 * (kappa[1:] + kappa[:-1]) * np.diff(ys))])
            hits = np.nonzero(inside & (budget >= _CONTRACTION_BUDGET)
                              & (bvals <= 0.25 * abs(ginf)))[0]
        if not len(hits):
            raise TailSelectionError(
                "no tail-start depth up to y=%.3g meets the closeness "
                "tolerances (rel %.1e, residual %.1e) or the contraction "
                "budget of the fallback"
                % (y_max, TAIL_REL_TOL, TAIL_RESIDUAL_TOL))
        y_tail = float(ys[hits[0]])

    if np.any(g[ys <= y_tail] >= 0):
        raise NoNegativeTailError(
            "gamma_A is nonnegative inside the matching window "
            "[%.6g, %.6g]" % (y_bar, y_tail))
    return MatchingConfig(y_bar=y_bar, y_tail=y_tail)


def decaying_phase_at_tail(problem, A, Y):
    """Frozen-coefficient decaying angle at the tail start.

    With coefficients frozen at Y the decaying solution is
    u = exp(-kappa*y), kappa = sqrt(-gamma_A(Y)/mu(Y)), so
    w/u = -sqrt(-gamma_A(Y)*mu(Y)) and the angle lands in (pi/2, pi).
    ``A`` = (K, Omega); arrays of K, Omega and Y, one value per member,
    give one angle per member, each frozen at its own Y.
    """
    K, Omega = (A.K, A.Omega) if isinstance(A, ParamPoint) else A
    Y = np.asarray(Y, dtype=float)
    p, q = problem.coef_pair(Y)
    g = np.asarray(Omega, dtype=float) * p - K * q
    if np.any(g >= 0):
        raise ThresholdError("gamma_A(Y) must be negative at the tail start")
    return np.arctan2(1.0, -np.sqrt(-g * problem.stiffness(Y)))[()]


def decaying_phase(problem, A, cfg: MatchingConfig,
                   settings: Optional[IntegratorSettings] = None) -> PhaseState:
    """Phase angle and log amplitude of the decaying solution at y_bar.

    One member of :func:`decaying_phase_batch` (log r counts from r = 1
    at the accepted tail start), which confirms it lies inside
    (pi/2, pi).
    """
    A = _as_param(A)
    _guard_threshold(problem, A)
    phi, log_r, _, _ = decaying_phase_batch(problem, A.K, A.Omega, cfg,
                                            settings=settings, want_log_r=True)
    return PhaseState(y=cfg.y_bar, phi=float(phi[0]), log_r=float(log_r[0]))


def _window_depths(cfg, n):
    """(windows, y_bar, y_tail): ``cfg``, one MatchingConfig shared by n
    members or one per member, as a list and its two depths per member."""
    windows = [cfg] * n if isinstance(cfg, MatchingConfig) else list(cfg)
    return (windows, np.array([w.y_bar for w in windows]),
            np.array([w.y_tail for w in windows]))


def decaying_phase_batch(problem, K, omegas, cfg,
                         settings: Optional[IntegratorSettings] = None,
                         y_bars=None, check: bool = True,
                         want_log_r: bool = False, surface=None):
    """Vectorized decaying angle at y_bar for a batch of points (K, Omega).

    ``K`` is a scalar or one value per member, and ``cfg`` one tail
    window shared by every member or one per member.  A window must be
    valid for its members: one valid for the largest Omega of a K
    covers the smaller Omega of that K, because gamma decreases
    pointwise as Omega does.  The members of one K and one y_tail
    (found by one sort) form a class, which starts at that y_tail; one
    :func:`decaying_phase_at_tail` call seeds the members of every
    class, each at its own class's depth.  Each member's angle is read
    off at its own depth of ``y_bars`` (default: its window's y_bar).

    Every class is swept in one :func:`shwave.propagate.sweep_phase`
    call, each K on its own lanes.  Unless the profile is exactly
    constant beyond the class's y_tail, that call also sweeps the
    class's reads at or above their windows' y_bar on one check lane,
    from the deepest of its members' doubled windows (the refinement's
    brackets of one K share a class); those angles must agree to within
    max(1e-8, 100 rel_tol), else the whole class moves to that deepest
    depth and is swept and checked again, up to four windows.  Deeper
    reads ride along unchecked.  ``check=False`` skips the check for
    repeat sweeps over windows that already validated.  ``surface`` =
    (K, omegas, reads) adds members swept down from the surface, where
    their angle is pi/2, to the first call.  Every read at or deeper
    than its window's y_bar must lie in (pi/2, pi), the invariant band
    of decaying angles behind the turning point, else
    TailConvergenceError; shallower reads are not checked.  The scans,
    the refinement and the mode shapes read at or behind their windows'
    y_bar, so the check covers every root.

    Returns (phi, log_r, windows, surface): log_r (None unless
    ``want_log_r``) counts from r = 1 at each member's accepted tail
    start, ``windows`` lists the window each member's check accepted
    (its own, with y_tail replaced where its class moved; repeat sweeps
    must reuse it), and ``surface`` is the (phi, log_r) of the surface
    members, or None.
    """
    settings = settings or DEFAULT_SETTINGS
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    K = np.broadcast_to(np.asarray(K, dtype=float), omegas.shape)
    windows, w_bar, w_tail = _window_depths(cfg, omegas.size)
    y_bars = w_bar if y_bars is None else np.broadcast_to(
        np.asarray(y_bars, dtype=float), omegas.shape)
    keys, cls = np.unique(np.stack((K, w_tail)), axis=1, return_inverse=True)
    cls = cls.reshape(-1)
    tails = keys[1].copy()      # per class: its tail start, moved by retries
    tail_from = getattr(problem, "tail_constant_from", None)
    checks = np.full(tails.shape, check)
    if tail_from is not None:       # no truncation to check beyond it
        checks &= tails < tail_from
    checked = y_bars <= w_bar
    # at loose integration tolerances the two sweeps differ by
    # integration error, not truncation, so the bar scales with rel_tol
    tol = max(TAIL_ANGLE_TOL, 100.0 * settings.rel_tol)
    phi = np.empty(omegas.shape)
    log_r = np.zeros(omegas.shape) if want_log_r else None
    surface_out = None
    if surface is not None:
        s_K, s_om, s_reads = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(v, dtype=float)) for v in surface))
        surface = [(s_K, s_om, np.full(s_reads.shape, HALF_PI),
                    np.zeros(s_reads.shape), s_reads)]

    def lanes(sel, depths):
        # (K, Omega, phi0, y0, reads) of the members ``sel``, each seeded
        # at ``depths`` of its class
        y0 = depths[cls[sel]]
        return (K[sel], omegas[sel],
                decaying_phase_at_tail(problem, (K[sel], omegas[sel]), y0),
                y0, y_bars[sel])

    todo = np.ones(tails.shape, dtype=bool)
    for _ in range(_TAIL_ATTEMPTS):
        tail = np.nonzero(todo[cls])[0]
        test = tail[checked[tail] & checks[cls[tail]]]
        # the deepest doubled window of each class, as in stretched(2.0)
        deepest = np.full(tails.shape, -np.inf)
        np.maximum.at(deepest, cls, w_bar + 2.0 * (tails[cls] - w_bar))
        got, got_lr = propagate.sweep_phase(
            problem, *(np.concatenate(col) for col in zip(
                lanes(tail, tails), lanes(test, deepest), *(surface or ()))),
            rtol=settings.rel_tol, atol=settings.abs_tol, want_log_r=want_log_r)
        n, m = tail.size, tail.size + test.size
        phi[tail] = got[:n]
        if want_log_r:
            log_r[tail] = got_lr[:n]
        if surface:
            surface_out = (got[m:], None if got_lr is None else got_lr[m:])
            surface = None
        worst = np.zeros(tails.shape)
        np.maximum.at(worst, cls[test], np.abs(got[n:m] - phi[test]))
        todo &= checks & ~(worst <= tol)
        if not todo.any():
            break
        tails[todo] = deepest[todo]
    else:
        raise TailConvergenceError(
            "tail-window doubling failed to stabilize phi+ after %d windows "
            "(last delta %.3e)" % (_TAIL_ATTEMPTS, worst[todo].max()))
    # behind the turning point, over a negative-coefficient tail, a
    # decaying angle stays in its invariant band (pi/2, pi)
    off = (y_bars >= w_bar) & ~((HALF_PI - _BAND_SLACK < phi)
                                & (phi < math.pi + _BAND_SLACK))
    if off.any():
        j = int(np.argmax(off))
        raise TailConvergenceError(
            "decaying angle left the (pi/2, pi) band: phi=%.12g at y=%.6g "
            "(y_bar=%.6g)" % (phi[j], y_bars[j], w_bar[j]))
    return phi, log_r, [w if t == w.y_tail else replace(w, y_tail=t) for w, t
                        in zip(windows, tails[cls].tolist())], surface_out
