"""Propagator-based phase sweeps for the dispersion scans.

Direct adaptive integration of the phase equation is needlessly
expensive on both ends of the spectrum: at high frequency the angle
advances in steep stairs (slow near multiples of pi, fast near the
half-multiples) that force tiny steps, and in the evanescent tail the
attraction onto the decaying direction makes explicit steps
stability-limited.  Both problems vanish for the linear system
Z' = A(y) Z, A = [[0, -gamma], [1/mu, 0]]: over a step the
coefficients are replaced by the sixth-order Magnus exponent of Blanes,
Casas & Ros (three Gauss nodes plus nested commutators, which for this
A stay traceless 2x2 matrices) whose matrix exponential is closed-form,
so constant-coefficient stretches of any length and stiffness cost a
single step.

The continuous angle lift is reconstructed exactly per step: each sign
change of u is one crossing of a multiple of pi, in the direction of
the flow, and for the frozen propagator the number of such zeros has a
closed form - there is no wrap ambiguity at any step size.  Error
control is by step doubling on the lifted angle, which also flags any
disagreement between the frozen and true flows long before it could
amount to a band slip.  An accepted step keeps the Richardson
combination half + (half - full)/63 of the full step and the two
halves; its correction is at most atol + rtol, so the band lift stays
exact, and it makes a member's angle nearly independent of the steps
its batch mates force.

A sweep carries a batch of parameter points (K, Omega) of one problem
and forms gamma = Omega*p - K*q from ``problem.coef_pair``; that and
``problem.stiffness`` take an array of depths, and each step attempt
(the full step and its two halves) calls each of them once, on 10
depths and on 9.  An attempt is a fixed run of numpy calls on
(3, members) arrays, one row per step: two matmuls give every Magnus
term, and one formula serves elliptic and hyperbolic members alike.
Each member has a read depth, and the sweep ends at the farthest read.
This is the solver's one phase engine: the frequency scans, the
refinement, the decaying tail, the public tail angle and the mode
shapes all run on :func:`sweep_phase`.  The Runge-Kutta integration of
``prufer.integrate_phase`` is kept only as the independent reference
the test suite checks it against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

_SQRT15 = math.sqrt(15.0)
_NODES = (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)


def _coef_map():
    """(29, 99) map from the samples [p (10), q (10), 1/s (9 nodes)] to the
    weights of (Omega, K, 1) in 33 rows: per step, the upper (u) and lower
    (l) entries over h of a1 = h A2, a2 = (sqrt15/3) h (A3 - A1),
    a3 = (10/3) h (A3 - 2 A2 + A1), -20 a1 - a3 and a1 + a3/12; then gamma
    at the step end, its excess over the quadratic through the full
    step's nodes, and that quadratic at the step start."""
    a1, a2 = np.array([0.0, 1.0, 0.0]), _SQRT15 / 3.0 * np.array([-1.0, 0.0, 1.0])
    a3 = 10.0 / 3.0 * np.array([1.0, -2.0, 1.0])
    forms = np.array([a1, a2, a3, -20.0 * a1 - a3, a1 + a3 / 12.0])
    steps = np.einsum("fn,sS->fsSn", forms, np.diag([1.0, 0.5, 0.5])).reshape(15, 9)
    lo, hi = (0.5 - _SQRT15 / 10.0) / 0.6, (0.5 + _SQRT15 / 10.0) / 0.6
    ends = np.zeros((3, 10))
    ends[:2, 9] = 1.0
    ends[1, :3], ends[2, :3] = (-lo, 2.0 / 3.0, -hi), (hi, -2.0 / 3.0, lo)
    m = np.zeros((29, 33, 3))
    m[:9, :15, 0], m[10:19, :15, 1], m[20:, 15:30, 2] = -steps.T, steps.T, steps.T
    m[:10, 30:, 0], m[10:20, 30:, 1] = ends.T, -ends.T
    return m.reshape(29, 99)


_COEF_MAP = _coef_map()
_PI = math.pi
_ROT_CAP = 2.9            # target rotation per accepted step, < pi
_ROT_REJECT = 5.8
_MIN_FACTOR = 0.25
_MAX_FACTOR = 4.0
_SAFETY = 0.9
_TINY = 1e-300
_MAX_STEPS = 200000       # accepted and rejected steps per sweep


def _frozen_step(coef_pair, stiffness, y, h, phi, K, Omega, want_mag, g0):
    """One Magnus attempt of signed length h from depth y, three steps at once.

    Each step is the sixth-order three-node Magnus step of Blanes, Casas
    & Ros (BIT 40, 2000).  The full step and both half steps are the rows
    of (3, members) arrays, from one ``coef_pair`` call on their 9 Gauss
    nodes plus the step end, nudged inside the step (10 depths), and one
    ``stiffness`` call on the nodes; those samples times ``_COEF_MAP``,
    times the rows (Omega, K, 1), give every Magnus term at once.  The
    full step and half 1 act on (cos phi, sin phi), half 2 on the half-1
    state.  ``g0`` is gamma at y (the previous step's end sample), or
    None where that sample does not hold for this step.
    Returns (full, half, rot_max, logmag, drift, g_end): the exactly
    re-banded lifts after the full step and after both halves, the
    largest elliptic rotation (the halves summed), the halves' log
    magnitude (None unless want_mag), how far gamma at either end of
    the step drifts off the quadratic through the full step's nodes,
    and gamma at the step end.
    """
    hh = 0.5 * h
    # the end sample sits a relative 1e-12 inside the step, so a step
    # that lands on a breakpoint samples its own side of a jump
    y_end = y + h - math.copysign(min(1e-12 * max(1.0, abs(y + h)), abs(hh)), h)
    ys = np.array([y + h * t for t in _NODES] + [y + hh * t for t in _NODES]
                  + [(y + hh) + hh * t for t in _NODES] + [y_end])
    p, q = coef_pair(ys)
    w = (np.concatenate((p, q, 1.0 / stiffness(ys[:9]))) @ _COEF_MAP).reshape(33, 3)
    w[:30] *= h
    rows = w @ np.array((Omega, K, np.ones(Omega.size)))
    u1, u2, u3, u_l, u_e, l1, l2, l3, l_l, l_e = rows[:30].reshape(10, 3, -1)
    # exponent a1 + a3/12 + [L, R]/240 with L = -20 a1 - a3 + [a1, a2]
    # and R = a2 - [a1, 2 a3 + [a1, a2]]/60; [a1, a2] is diagonal, so
    # the exponent is the traceless X = [[delta, alpha], [beta, -delta]]
    d12 = u1 * l2 - u2 * l1
    d_r = (u3 * l1 - u1 * l3) / 30.0
    u_r, l_r = u2 + u1 * d12 / 30.0, l2 - l1 * d12 / 30.0
    delta = (u_l * l_r - u_r * l_l) / 240.0
    alpha = u_e + (d12 * u_r - u_l * d_r) / 120.0
    beta = l_e + (l_l * d_r - d12 * l_r) / 120.0

    # exp(X) = c + f X with X^2 = disc = +-s^2: c = cos s, f = sin(s)/s
    # (elliptic), or both scaled by exp(-s): c = (1 + e)/2, f = (1 - e)/2s
    # with e = exp(-2s) (hyperbolic); the floor on s makes f = 1 at s = 0
    disc = delta * delta + alpha * beta
    a_disc = np.abs(disc)
    s = np.maximum(np.sqrt(a_disc), _TINY)
    grow = s * (disc > 0.0)
    ang = s - grow
    gap = -0.5 * np.expm1(-2.0 * grow)
    c, f = np.cos(ang) - gap, (np.sin(ang) + gap) / s
    # below |disc| = 1e-6 at most one zero: the endpoint sign rule counts it
    rot = np.where(a_disc < 1e-6, 0.0, ang)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    v_h = beta[1] * cos_phi - delta[1] * sin_phi
    w_h = c[1] * cos_phi + f[1] * (delta[1] * cos_phi + alpha[1] * sin_phi)
    w0, u0 = np.array((cos_phi, cos_phi, w_h)), np.array(
        (sin_phi, sin_phi, c[1] * sin_phi + f[1] * v_h))
    v0 = beta * w0 - delta * u0
    w1, u1 = c * w0 + f * (delta * w0 + alpha * u0), c * u0 + f * v0
    # multiples of pi crossed: zeros of u(t) along the frozen flow.
    # Elliptic: u(t) = R sin(rot*t + chi); hyperbolic/degenerate: at
    # most one zero, from the endpoint sign change.  Every zero moves
    # the band by sign(h).
    chi = np.arctan2(u0 * rot, v0)
    cnt_e = np.floor((chi + rot) / _PI) - np.floor(chi / _PI)
    flip = (np.sign(u1) != np.sign(u0)) & (u1 != 0.0)
    inc = np.where(rot > 0.0, cnt_e, flip)
    inc[2] += inc[1]                    # half 2 starts in half 1's band
    raw = np.arctan2(u1[::2], w1[::2])
    lift = (_PI * (np.floor(phi / _PI) + math.copysign(1.0, h) * inc[::2])
            + (raw - _PI * np.floor(raw / _PI)))
    r_full, r_h1, r_h2 = rot.max(axis=1, initial=0.0)
    # half 2 acts on the scaled half-1 state
    logmag = (grow[1] + grow[2] + 0.5 * np.log(w1[2] * w1[2] + u1[2] * u1[2])
              if want_mag else None)
    g_end, g_out, g_back = rows[30:]
    drift = float(abs(g_out).max(initial=0.0))
    if g0 is not None:
        drift = max(drift, float(abs(g0 - g_back).max(initial=0.0)))
    return lift[0], lift[1], max(r_full, r_h1 + r_h2), logmag, drift, g_end


def sweep_phase(problem, K, Omega, phi0, y0, reads, rtol=1e-10, atol=1e-12,
                want_log_r=False):
    """Sweep the lifted phase of the batch (K, Omega) of ``problem``.

    ``K`` is a scalar or one value per member.  Each step attempt calls
    ``problem.coef_pair`` and ``problem.stiffness`` once, on an array of
    depths (see the module docstring).  ``reads`` is a scalar or one
    read depth per member; those depths are forced to be step
    boundaries, each member's angle is recorded when its depth is hit,
    and the sweep ends at the farthest read, so one sweep serves many
    matching depths or a whole sampling grid.  Reads on both sides of
    y0 are a ValueError.  Steps never straddle ``problem.breakpoints``,
    which keeps the Gauss-node sampling of piecewise coefficients honest.

    Error control is step doubling on the lifted angle: an accepted
    step keeps the local Richardson value half + (half - full)/63 (log r
    keeps the halves' sum), and the Richardson-reduced difference is
    the local error estimate.  An endpoint-extrapolation guard also
    rejects steps whose coefficient drifts off the quadratic through
    the full step's nodes in the unsampled fraction at either end of
    the step (the start is checked against the previous step's end
    sample, except at a breakpoint, where gamma may jump).  Returns (phi,
    log_r or None): each member's angle and log amplitude (counted from
    r = 1 at y0) at its read depth.
    """
    Omega = np.atleast_1d(np.asarray(Omega, dtype=float))
    K = np.broadcast_to(np.asarray(K, dtype=float), Omega.shape)
    phi = np.broadcast_to(np.asarray(phi0, dtype=float), Omega.shape)
    reads = np.broadcast_to(np.asarray(reads, dtype=float), Omega.shape)
    # identical members share one trajectory (every batch-wide step
    # decision is a max over members), so each distinct (K, Omega, phi0)
    # is swept once, in first-occurrence order; member j is row row[j]
    _, first, inverse = np.unique(np.stack([K, Omega, phi]), axis=1,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    row = rank[inverse.reshape(-1)]
    K, Omega, phi = K[first[order]], Omega[first[order]], phi[first[order]]
    log_r = np.zeros_like(phi) if want_log_r else None
    out, out_lr = phi[row], None if log_r is None else log_r[row]

    done = np.isclose(reads, y0, rtol=1e-12, atol=1e-14)
    pending = reads[~done]
    if not pending.size:
        return out, out_lr
    direction = 1.0 if pending[0] > y0 else -1.0
    if np.any((pending - y0) * direction < 0):
        raise ValueError("read depths lie on both sides of the sweep start %g"
                         % y0)
    boundary_set = set(pending.tolist())
    # the farthest read ends the sweep
    end = max(boundary_set, key=lambda v: direction * v)
    brks = {float(v) for v in problem.breakpoints}
    boundary_set |= {v for v in brks
                     if (v - y0) * direction > 0 and (end - v) * direction > 0}
    boundaries = sorted(boundary_set, key=lambda v: direction * v)

    p, q = problem.coef_pair(y0)
    g_start = Omega * p - K * q
    w_max = math.sqrt(max(float((g_start * (1.0 / problem.stiffness(y0))).max()),
                          0.0) + _TINY)
    h = min(0.1 * abs(end - y0), 1.0, _ROT_CAP / w_max)
    h = max(h, 1e-12 * abs(end - y0))
    y = float(y0)
    # at a breakpoint the sample of gamma may belong to the other side
    g0 = None if y in brks else g_start
    nsteps = 0
    for b in boundaries:
        while (b - y) * direction > 1e-14 * max(1.0, abs(b)):
            nsteps += 1
            if nsteps > _MAX_STEPS:
                raise IntegrationError("propagator exceeded %d steps" % _MAX_STEPS)
            h = min(h, abs(b - y))
            if h < 1e-15 * max(1.0, abs(y)):
                raise IntegrationError("propagator step underflow at y=%g" % y)
            hd = direction * h
            full, half, rot_max, mag, drift, g_end = _frozen_step(
                problem.coef_pair, problem.stiffness, y, hd, phi, K, Omega,
                want_log_r, g0)
            err_norm = float(abs(full - half).max()) / (63.0 * (atol + rtol))
            if not math.isfinite(err_norm) or rot_max > _ROT_REJECT:
                h *= 0.5
                continue
            # endpoint guard: the first and last ~11% of the step are
            # never sampled by the Gauss nodes; a coefficient that runs
            # away from the node-implied quadratic there would be
            # invisible to the doubling estimate (it hides features that
            # sit entirely outside every node, e.g. the onset of a ramp)
            if 0.05 * drift * h > 15000.0 * (atol + rtol):
                h *= 0.4
                continue
            if err_norm <= 1.0:
                y = y + hd
                phi = half + (half - full) / 63.0     # local Richardson
                g0 = g_end
                if want_log_r:
                    log_r = log_r + mag
                factor = _MAX_FACTOR if err_norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * err_norm ** (-1.0 / 7.0))
                h = h * factor
                if rot_max > _ROT_CAP:
                    h = min(h, abs(hd) * _ROT_CAP / rot_max)
            else:
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / 7.0))
        y = float(b)
        if y in brks:
            g0 = None
        # np.isclose(reads, y, rtol=1e-12, atol=1e-12), at a tenth of
        # its cost on grids with a read at every boundary
        sel = (np.abs(reads - y) <= 1e-12 + 1e-12 * abs(y)) & ~done
        out[sel] = phi[row[sel]]
        if want_log_r:
            out_lr[sel] = log_r[row[sel]]
        done |= sel
    return out, out_lr
