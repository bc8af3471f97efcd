"""Embedded adaptive Runge-Kutta integration (Dormand-Prince 5(4)).

The solver advances a vector state with a common adaptive step and
elementwise (max-norm) local error control, which lets many independent
scalar ODEs - e.g. phase equations for a whole batch of frequencies -
share one integration sweep.  Dense output uses the standard quartic
interpolant of the pair.
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
# Quartic interpolant coefficients (Shampine); row s gives the polynomial
# in theta multiplying stage s.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -1.0 / 5.0


class DenseSolution:
    """Piecewise-quartic interpolant over the accepted steps.

    Attributes
    ----------
    ts : ndarray
        Accepted step endpoints (including the initial point), in
        integration order (decreasing for backward sweeps).
    """

    def __init__(self, t0s, hs, y0s, qs, direction):
        self.t0s = np.asarray(t0s)
        self.hs = np.asarray(hs)
        self.y0s = np.asarray(y0s)
        self.qs = qs
        self.direction = direction
        self.ts = np.concatenate([[self.t0s[0]], self.t0s + self.hs])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        # Map t to the step containing it; clip to the covered range.
        ends = self.t0s + self.hs
        if self.direction > 0:
            idx = np.searchsorted(ends, tt, side="left")
        else:
            idx = len(ends) - np.searchsorted(ends[::-1], tt, side="right")
        idx = np.clip(idx, 0, len(ends) - 1)
        out = np.empty(tt.shape + self.y0s.shape[1:])
        for j, (ti, i) in enumerate(zip(tt, idx)):
            h = self.hs[i]
            theta = (ti - self.t0s[i]) / h if h != 0.0 else 0.0
            powers = theta ** np.arange(1, 5)
            out[j] = self.y0s[i] + h * (self.qs[i] @ powers)
        return out[0] if scalar else out


class RKResult:
    """Endpoint state plus optional dense interpolant and step counters."""

    def __init__(self, t, y, nsteps, nfev, dense=None):
        self.t = t
        self.y = y
        self.nsteps = nsteps
        self.nfev = nfev
        self.dense = dense


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


def solve(f, t0, y0, t1, rtol=1e-10, atol=1e-12, dense=False):
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
        dense_out = None
        if dense:
            dense_out = DenseSolution([t], [0.0], [y.copy()],
                                      [np.zeros(y.shape + (4,))], 1.0)
        return RKResult(t, y, 0, 0, dense=dense_out)
    direction = 1.0 if t1 > t else -1.0
    span = abs(t1 - t)

    nfev = 0
    k = np.empty((7,) + y.shape)
    k[0] = f(t, y)
    nfev += 1
    if not np.all(np.isfinite(k[0])):
        raise IntegrationError("non-finite right-hand side at the initial point",
                               last_state=(t, y.copy()))

    h = _initial_step(f, t, y, k[0], direction, span, rtol, atol)
    nfev += 1

    rec_t0, rec_h, rec_y0, rec_q = [], [], [], []
    nsteps = 0
    tiny = 16 * np.finfo(float).eps

    while (t1 - t) * direction > 0:
        h = min(h, abs(t1 - t))
        if h < tiny * max(abs(t), abs(t1), 1.0):
            raise IntegrationError(
                "step size underflow at t=%.17g" % t, last_state=(t, y.copy()))
        t_new = t + direction * h
        hd = direction * h
        k1 = k[0]
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
        k[1], k[2], k[3], k[4], k[5], k[6] = k2, k3, k4, k5, k6, k7
        nfev += 6
        err = hd * (0.0012326388888888888 * k1 - 0.0042527702905061394 * k3
                    + 0.036979166666666667 * k4 - 0.05086379716981132 * k5
                    + 0.041904761904761904 * k6 - 0.025 * k7)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        # a NaN anywhere in the stages poisons err_norm, so one finite
        # test on the norm covers the whole step
        err_norm = np.max(np.abs(err / scale))
        if err_norm <= 1.0:
            if dense:
                rec_t0.append(t)
                rec_h.append(direction * h)
                rec_y0.append(y.copy())
                rec_q.append(k.T @ _P)
            t = t_new
            y = y_new
            k[0] = k[6]
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

    dense_out = None
    if dense:
        dense_out = DenseSolution(rec_t0, rec_h, rec_y0, rec_q, direction)
    return RKResult(t, y, nsteps, nfev, dense=dense_out)
