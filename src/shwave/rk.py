"""Embedded adaptive Runge-Kutta integration (Dormand-Prince 5(4)).

The solver advances a vector state with a common adaptive step and
elementwise (max-norm) local error control.  It drives only
:func:`shwave.prufer.integrate_phase`, the direct integration of the
phase equation that the test suite uses as an independent reference
for the propagator sweeps; no solver path calls it.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError

# Dormand-Prince 5(4) tableau.  The fifth-order solution is propagated;
# the embedded fourth-order result supplies the local error estimate.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# b - b_hat, including the FSAL stage.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 5.0


class RKResult:
    """Endpoint state plus step counters."""

    def __init__(self, t, y, nsteps, nfev):
        self.t = t
        self.y = y
        self.nsteps = nsteps
        self.nfev = nfev


def _initial_step(f, t0, y0, f0, direction, span, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.max(np.abs(y0 / scale))
    d1 = np.max(np.abs(f0 / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * span
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, 0.5 * span)
    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = np.max(np.abs((f1 - f0) / scale)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def solve(f, t0, y0, t1, rtol=1e-10, atol=1e-12):
    """Integrate ``dy/dt = f(t, y)`` from ``t0`` to ``t1``.

    ``y0`` may be any 1-D vector; error control is elementwise with
    scale ``atol + rtol*|y|`` in max norm.  ``t1 < t0`` integrates
    backward.  Raises :class:`IntegrationError` on step-size underflow
    or persistently non-finite right-hand sides.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    t = float(t0)
    t1 = float(t1)
    if t1 == t:
        return RKResult(t, y, 0, 0)
    direction = 1.0 if t1 > t else -1.0
    span = abs(t1 - t)

    nfev = 0
    k1 = f(t, y)            # first stage, reused from the last one (FSAL)
    nfev += 1
    if not np.all(np.isfinite(k1)):
        raise IntegrationError("non-finite right-hand side at the initial point",
                               last_state=(t, y.copy()))

    h = _initial_step(f, t, y, k1, direction, span, rtol, atol)
    nfev += 1

    nsteps = 0
    tiny = 16 * np.finfo(float).eps

    while (t1 - t) * direction > 0:
        h = min(h, abs(t1 - t))
        if h < tiny * max(abs(t), abs(t1), 1.0):
            raise IntegrationError(
                "step size underflow at t=%.17g" % t, last_state=(t, y.copy()))
        t_new = t + direction * h
        hd = direction * h
        k2 = f(t + 0.2 * hd, y + hd * (0.2 * k1))
        k3 = f(t + 0.3 * hd, y + hd * (0.075 * k1 + 0.225 * k2))
        k4 = f(t + 0.8 * hd, y + hd * (0.9777777777777777 * k1
                                       - 3.7333333333333334 * k2
                                       + 3.5555555555555554 * k3))
        k5 = f(t + 0.8888888888888888 * hd,
               y + hd * (2.9525986892242035 * k1 - 11.595793324188385 * k2
                         + 9.822892851699436 * k3 - 0.2908093278463649 * k4))
        k6 = f(t_new, y + hd * (2.8462752525252526 * k1
                                - 10.757575757575758 * k2
                                + 8.906422717743473 * k3
                                + 0.2784090909090909 * k4
                                - 0.2735313036020583 * k5))
        y_new = y + hd * (0.09114583333333333 * k1 + 0.44923629829290207 * k3
                          + 0.6510416666666666 * k4 - 0.322376179245283 * k5
                          + 0.13095238095238096 * k6)
        k7 = f(t_new, y_new)
        nfev += 6
        err = hd * (0.0012326388888888888 * k1 - 0.0042527702905061394 * k3
                    + 0.036979166666666667 * k4 - 0.05086379716981132 * k5
                    + 0.041904761904761904 * k6 - 0.025 * k7)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        # a NaN anywhere in the stages poisons err_norm, so one finite
        # test on the norm covers the whole step
        err_norm = np.max(np.abs(err / scale))
        if err_norm <= 1.0:
            t = t_new
            y = y_new
            k1 = k7
            nsteps += 1
            if err_norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
            h *= factor
        else:
            if np.isfinite(err_norm):
                h *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ORDER_EXP)
            else:
                h *= 0.5

    return RKResult(t, y, nsteps, nfev)
