"""Propagator-based phase sweeps for the dispersion scans.

Direct adaptive integration of the phase equation is needlessly
expensive on both ends of the spectrum: at high frequency the angle
advances in steep stairs (slow near multiples of pi, fast near the
half-multiples) that force tiny steps, and in the evanescent tail the
attraction onto the decaying direction makes explicit steps
stability-limited.  Both problems vanish for the linear system
Z' = A(y) Z, A = [[0, -gamma], [1/mu, 0]]: over a step the
coefficients are replaced by a fourth-order Magnus average (two-point
Gauss nodes plus the commutator term) whose matrix exponential is
closed-form for a traceless 2x2 matrix, so constant-coefficient
stretches of any length and stiffness cost a single step.

The continuous angle lift is reconstructed exactly per step: each sign
change of u is one crossing of a multiple of pi, in the direction of
the flow, and for the frozen propagator the number of such zeros has a
closed form - there is no wrap ambiguity at any step size.  Error
control is by step doubling on the lifted angle, which also flags any
disagreement between the frozen and true flows long before it could
amount to a band slip.

This engine drives the batched frequency scans; the public
``integrate_phase`` keeps the embedded Runge-Kutta pair on the scalar
phase equation, and the two are cross-checked in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0
_COMM = math.sqrt(3.0) / 12.0
_PI = math.pi
_ROT_CAP = 2.9            # target rotation per accepted step, < pi
_ROT_REJECT = 5.8
_MIN_FACTOR = 0.25
_MAX_FACTOR = 4.0
_SAFETY = 0.9
_TINY = 1e-300
_MAX_STEPS = 200000       # accepted and rejected steps per sweep


def _frozen_step(gamma_of, inv_mu_of, y, h, phi, want_mag):
    """One Magnus step of signed length h from depth y.

    Freezes the system matrix at its fourth-order two-node average and
    applies the closed-form exponential to the direction (cos phi,
    sin phi).  Returns (phi_new, rot_max, logmag) where phi_new is the
    exactly re-banded lift and rot_max the largest elliptic rotation in
    the batch.
    """
    g1 = np.asarray(gamma_of(y + _GAUSS_LO * h), dtype=float)
    g2 = np.asarray(gamma_of(y + _GAUSS_HI * h), dtype=float)
    b1 = inv_mu_of(y + _GAUSS_LO * h)
    b2 = inv_mu_of(y + _GAUSS_HI * h)
    alpha = (-0.5 * h) * (g1 + g2)
    beta = 0.5 * h * (b1 + b2)              # scalar: stiffness is shared
    delta = (_COMM * h * h) * (g1 * b2 - g2 * b1)

    disc = delta * delta + alpha * beta
    s = np.sqrt(np.abs(disc))
    hyp = disc > 0.0
    small = np.abs(disc) < 1e-6
    s_safe = np.where(s > 1e-30, s, 1.0)

    e2 = np.exp(-2.0 * np.minimum(np.where(hyp, s, 0.0), 350.0))
    c_h = 0.5 * (1.0 + e2)
    f_h = 0.5 * (1.0 - e2) / s_safe
    c_e = np.cos(s)
    f_e = np.sin(s) / s_safe
    c = np.where(hyp, c_h, c_e)
    f = np.where(hyp, f_h, f_e)
    c = np.where(small, 1.0 + disc * (0.5 + disc / 24.0), c)
    f = np.where(small, 1.0 + disc * (1.0 / 6.0 + disc / 120.0), f)
    rot = np.where(hyp | small, 0.0, s)

    w0 = np.cos(phi)
    u0 = np.sin(phi)
    w1 = (c + f * delta) * w0 + (f * alpha) * u0
    u1 = (f * beta) * w0 + (c - f * delta) * u0

    # multiples of pi crossed: zeros of u(t) along the frozen flow.
    # Elliptic: u(t) = R sin(rot*t + chi); hyperbolic/degenerate: at
    # most one zero, from the endpoint sign change.  Every zero moves
    # the band by sign(beta).
    ell = rot > 0.0
    rot_c = np.where(ell, rot, 1.0)
    chi = np.arctan2(u0, (beta * w0 - delta * u0) / rot_c)
    cnt_e = np.floor((chi + rot) / _PI) - np.floor(chi / _PI)
    flip = ((u0 == 0.0) | (np.sign(u1) != np.sign(u0))) & (u1 != 0.0)
    inc = np.where(ell, cnt_e, flip.astype(float))
    if beta < 0.0:
        inc = -inc

    band0 = np.floor(phi / _PI)
    raw = np.arctan2(u1, w1)
    pos = raw - _PI * np.floor(raw / _PI)
    phi_new = _PI * (band0 + inc) + pos
    rot_max = float(rot.max()) if rot.size else 0.0
    logmag = None
    if want_mag:
        # hyperbolic (c, f) are scaled by exp(-s); the small-disc series is not
        scale = np.where(hyp & ~small, s, 0.0)
        logmag = scale + 0.5 * np.log(w1 * w1 + u1 * u1)
    return phi_new, rot_max, logmag, g1, g2


def _initial_h(gamma_of, inv_mu_of, y0, span):
    g = np.asarray(gamma_of(y0), dtype=float)
    b = inv_mu_of(y0)
    w_max = math.sqrt(max(float(np.max(g * b)), 0.0) + _TINY)
    h = min(0.1 * span, 1.0)
    if w_max > 0:
        h = min(h, _ROT_CAP / w_max)
    return max(h, 1e-12 * span)


def sweep_phase(gamma_of, inv_mu_of, phi0, y0, y1, rtol=1e-10, atol=1e-12,
                read_at=None, want_log_r=False, breakpoints=()):
    """Sweep the lifted phase of a frequency batch from y0 to y1.

    ``gamma_of(y)`` returns the coefficient vector of the batch at a
    scalar depth, ``inv_mu_of(y)`` the scalar reciprocal stiffness.
    ``read_at`` gives one read depth per member; those depths are
    forced to be step boundaries and each member's angle is recorded
    when its depth is hit, so one sweep serves many matching depths
    (reads beyond y1 in the sweep direction extend the sweep).
    ``breakpoints`` lists depths where the coefficients are not smooth;
    steps never straddle them, which keeps the Gauss-node sampling of
    piecewise coefficients honest.

    Error control is step doubling on the lifted angle: the halved
    result is kept, the Richardson-reduced difference is the local
    error estimate.  An endpoint-extrapolation guard additionally
    rejects steps whose coefficient drifts off the node-implied trend
    in the unsampled trailing fraction of the step.  Returns (phi,
    log_r or None) where phi holds each member's angle at its read
    depth when ``read_at`` is given, else at the sweep end.
    """
    phi = np.atleast_1d(np.asarray(phi0, dtype=float)).copy()
    log_r = np.zeros_like(phi) if want_log_r else None
    if y1 != y0:
        direction = 1.0 if y1 > y0 else -1.0
    elif read_at is not None and len(np.atleast_1d(read_at)):
        # zero-span target: the reads define the sweep direction
        direction = -1.0 if float(np.min(read_at)) < y0 else 1.0
    else:
        direction = 1.0

    if read_at is not None:
        reads = np.asarray(read_at, dtype=float)
        inside = reads[(reads - y0) * direction >= 0]
        boundary_set = set(float(v) for v in inside) | {float(y1)}
        out = np.empty_like(phi)
        done = np.isclose(reads, y0, rtol=1e-12, atol=1e-14)
        out[done] = phi[done]
    else:
        reads = None
        boundary_set = {float(y1)}
        out = None
        done = None

    far = max(boundary_set, key=lambda v: direction * v)
    for brk in breakpoints:
        brk = float(brk)
        if (brk - y0) * direction > 0 and (far - brk) * direction > 0:
            boundary_set.add(brk)
    boundaries = sorted(boundary_set, key=lambda v: direction * v)

    end = boundaries[-1]
    if end == y0:
        return (out if out is not None else phi), log_r

    h = _initial_h(gamma_of, inv_mu_of, y0, abs(end - y0))
    y = float(y0)
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
            full, rot_f, _, g1, g2 = _frozen_step(gamma_of, inv_mu_of, y, hd,
                                                  phi, False)
            half1, rot_h1, mag_h1, _, _ = _frozen_step(gamma_of, inv_mu_of, y,
                                                       0.5 * hd, phi,
                                                       want_log_r)
            half2, rot_h2, mag_h2, _, _ = _frozen_step(gamma_of, inv_mu_of,
                                                       y + 0.5 * hd, 0.5 * hd,
                                                       half1, want_log_r)
            rot_max = max(rot_f, rot_h1 + rot_h2)
            err_norm = float(np.max(np.abs(full - half2))) / (15.0 * (atol + rtol))
            if not math.isfinite(err_norm):
                h *= 0.5
                continue
            if rot_max > _ROT_REJECT:
                h *= 0.5
                continue
            # endpoint guard: the last ~21% of the step is never sampled
            # by the Gauss nodes; a coefficient that runs away from the
            # node-implied linear trend there would be invisible to the
            # doubling estimate (it hides features that sit entirely
            # past every node, e.g. the onset of a ramp)
            g_end = np.asarray(gamma_of(y + hd), dtype=float)
            g_ext = g2 + (g2 - g1) * 0.36602540378443865
            threat = 0.05 * float(np.max(np.abs(g_end - g_ext))) * h
            if threat > 15000.0 * (atol + rtol):
                h *= 0.4
                continue
            if err_norm <= 1.0:
                y = y + hd
                phi = half2
                if want_log_r:
                    log_r = log_r + mag_h1 + mag_h2
                factor = _MAX_FACTOR if err_norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * err_norm ** -0.2)
                h = h * factor
                if rot_max > _ROT_CAP:
                    h = min(h, abs(hd) * _ROT_CAP / rot_max)
            else:
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
        y = float(b)
        if reads is not None:
            sel = np.isclose(reads, y, rtol=1e-12, atol=1e-12) & ~done
            out[sel] = phi[sel]
            done |= sel
    if reads is not None:
        out[~done] = phi[~done]
        return out, log_r
    return phi, log_r
