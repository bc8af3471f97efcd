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
and forms gamma = Omega*p - K*q from ``problem.coef_pair``.  The
members that share one (K, start depth) form a lane, and each lane is
swept as if it were alone: it has its own depth, step size, direction,
end (its farthest read) and boundaries (its reads and the breakpoints
inside its span), and every step decision is a maximum over its own
members only.  The distinct members are sorted by (start depth, K,
Omega, phi0), one numpy sort, so each lane is a run of them; a lane's
arithmetic is its own, so this order changes no result.  One step
attempt advances every unfinished lane by its own step (the full step
and its two halves) and calls ``problem.coef_pair`` once, on 10 depths
per lane, and ``problem.stiffness`` once, on 9 per lane.  An attempt
is a fixed run of numpy calls on (3, members) arrays, one row per step:
per lane two small matmuls give every Magnus term, and one formula
serves elliptic and hyperbolic members alike.  So one call can hold the
surface sweep, the decaying sweep and its tail check of many K at once,
at the cost of the slowest lane.  This is the solver's one phase engine: the frequency
scans, the refinement's round 0 and its certification sweep, the
decaying tail and the public tail angle run on :func:`sweep_phase`.
The refinement's later rounds keep round 0's mesh fixed:
:func:`replay_phase` replays each lane's recorded step boundaries with
the same three Magnus steps per step, vectorized over the steps, and no
step control.  The mode shapes replay the certification sweep's mesh
with :func:`replay_depths`, which reaches any depth by one partial step
from the boundary before it, so a shape runs no sweep.  On a shared
2-vCPU host the six exp K=16 shapes on 33 depths take no step attempt
and about 1 ms each (538 attempts and about 9 ms each when every shape
was swept), and one on 4,000 depths 0.010-0.015 s (0.37-0.41 s swept,
one forced step landing per depth).  The Runge-Kutta integration of
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
_MAX_STEPS = 200000       # accepted and rejected steps per lane


def _exponential(terms):
    """(delta, alpha, beta, c, f, grow, rot) of the Magnus steps whose
    terms are ``terms`` = (u1, u2, u3, u_l, u_e, l1, l2, l3, l_l, l_e),
    the rows of ``_COEF_MAP`` times the step length, each an array of
    any shape: the exponent X = [[delta, alpha], [beta, -delta]] and
    exp(X) = c + f X, scaled by exp(-grow) (see below), and the rotation
    of an elliptic step (0 for hyperbolic and near-degenerate ones)."""
    u1, u2, u3, u_l, u_e, l1, l2, l3, l_l, l_e = terms
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
    return delta, alpha, beta, c, f, grow, rot


def _advance(delta, alpha, beta, c, f, rot, w0, u0):
    """(w1, u1, inc): the state (w0, u0) after the steps of
    :func:`_exponential`, and the multiples of pi each crosses."""
    v0 = beta * w0 - delta * u0
    w1, u1 = c * w0 + f * (delta * w0 + alpha * u0), c * u0 + f * v0
    # multiples of pi crossed: zeros of u(t) along the frozen flow.
    # Elliptic: u(t) = R sin(rot*t + chi); hyperbolic/degenerate: at
    # most one zero, from the endpoint sign change.  Every zero moves
    # the band by the sign of the lane's step.
    chi = np.arctan2(u0 * rot, v0)
    cnt_e = np.floor((chi + rot) / _PI) - np.floor(chi / _PI)
    flip = (np.sign(u1) != np.sign(u0)) & (u1 != 0.0)
    return w1, u1, np.where(rot > 0.0, cnt_e, flip)


def _frozen_step(coef_pair, stiffness, y, h, phi, lanes, want_mag, g0):
    """One Magnus attempt of each lane, three steps per member at once.

    Lane l steps from depth y[l] by the signed length h[l].  ``lanes``
    comes from :func:`_pack`: the columns of its weights[l], the rows
    (Omega, K, 1), are lane l's members, and so are the next as many
    entries of ``phi`` and ``g0``.  Each step is the sixth-order
    three-node Magnus step of Blanes, Casas & Ros (BIT 40, 2000).  The
    full step and both half steps are the rows of (3, members) arrays,
    from one ``coef_pair`` call on every lane's 9 Gauss nodes plus its
    step end, nudged inside the step (10 depths per lane), and one
    ``stiffness`` call on the nodes; per lane those samples times
    ``_COEF_MAP``, times its weights, give every Magnus term at once.
    The full step and half 1 act on (cos phi, sin phi), half 2 on the
    half-1 state.  ``g0`` is gamma at y (the previous step's end
    sample), nan where that sample does not hold for this step.
    Returns (full, half, rot_max, logmag, drift, g_end): per member the
    exactly re-banded lifts after the full step and after both halves;
    per lane the largest elliptic rotation (the halves summed); per
    member the halves' log magnitude (None unless want_mag); per lane
    how far gamma at either end of the step drifts off the quadratic
    through the full step's nodes; and per member gamma at the step
    end.
    """
    ys = []
    for y_l, h_l in zip(y, h):
        hh = 0.5 * h_l
        # the end sample sits a relative 1e-12 inside the step, so a step
        # that lands on a breakpoint samples its own side of a jump
        ys += ([y_l + h_l * t for t in _NODES] + [y_l + hh * t for t in _NODES]
               + [(y_l + hh) + hh * t for t in _NODES]
               + [y_l + h_l - math.copysign(
                   min(1e-12 * max(1.0, abs(y_l + h_l)), abs(hh)), h_l)])
    ys = np.array(ys)
    weights, starts, sign = lanes
    n = len(weights)
    p, q = coef_pair(ys)
    samples = np.concatenate((p.reshape(n, 10), q.reshape(n, 10), 1.0 / stiffness(
        ys.reshape(n, 10)[:, :9].ravel()).reshape(n, 9)), axis=1)
    parts = []
    for ln, h_l in enumerate(h):
        w = samples[ln] @ _COEF_MAP
        w[:90] *= h_l                   # the 30 rows of Magnus terms
        parts.append(w.reshape(33, 3) @ weights[ln])
    rows = parts[0] if n == 1 else np.concatenate(parts, axis=1)
    delta, alpha, beta, c, f, grow, rot = _exponential(rows[:30].reshape(10, 3, -1))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    v_h = beta[1] * cos_phi - delta[1] * sin_phi
    w_h = c[1] * cos_phi + f[1] * (delta[1] * cos_phi + alpha[1] * sin_phi)
    w0, u0 = np.array((cos_phi, cos_phi, w_h)), np.array(
        (sin_phi, sin_phi, c[1] * sin_phi + f[1] * v_h))
    w1, u1, inc = _advance(delta, alpha, beta, c, f, rot, w0, u0)
    inc[2] += inc[1]                    # half 2 starts in half 1's band
    raw = np.arctan2(u1[::2], w1[::2])
    lift = (_PI * (np.floor(phi / _PI) + sign * inc[::2])
            + (raw - _PI * np.floor(raw / _PI)))
    r_full, r_h1, r_h2 = np.maximum.reduceat(rot, starts, axis=1)
    # half 2 acts on the scaled half-1 state
    logmag = (grow[1] + grow[2] + 0.5 * np.log(w1[2] * w1[2] + u1[2] * u1[2])
              if want_mag else None)
    g_end, g_out, g_back = rows[30:]
    # fmax skips the nan of a lane whose start sample does not hold
    drift = np.fmax(np.maximum.reduceat(np.abs(g_out), starts),
                    np.maximum.reduceat(np.abs(g0 - g_back), starts))
    return lift[0], lift[1], np.maximum(r_full, r_h1 + r_h2), logmag, drift, g_end


def _pack(weights, directions):
    """The lanes argument of :func:`_frozen_step`: each lane's weights
    (3, members), the index of its first member, and each member's
    direction of travel (+-1)."""
    sizes = [w.shape[1] for w in weights]
    return (weights, np.cumsum([0] + sizes[:-1]),
            np.repeat(directions, sizes).astype(float))


def sweep_phase(problem, K, Omega, phi0, y0, reads, rtol=1e-10, atol=1e-12,
                want_log_r=False, want_mesh=False):
    """Sweep the lifted phase of the batch (K, Omega) of ``problem``.

    ``K``, ``phi0`` (the angle at the start), ``y0`` (the start depth)
    and ``reads`` are scalars or one value per member.  The members that
    share one (K, y0) form a lane, swept as if alone (see the module
    docstring); each step attempt calls ``problem.coef_pair`` and
    ``problem.stiffness`` once for all lanes.  A lane's read depths are
    forced to be step boundaries, each member's angle is recorded when
    its depth is hit, and the lane ends at its farthest read, so one
    sweep serves many matching depths or a whole sampling grid.  Reads
    on both sides of a lane's start, or a start or read that is not
    finite, are a ValueError.  Steps never straddle
    ``problem.breakpoints``, which keeps the Gauss-node sampling of
    piecewise coefficients honest.

    Error control is step doubling on the lifted angle: an accepted
    step keeps the local Richardson value half + (half - full)/63 (log r
    keeps the halves' sum), and the Richardson-reduced difference is
    the local error estimate.  An endpoint-extrapolation guard also
    rejects steps whose coefficient drifts off the quadratic through
    the full step's nodes in the unsampled fraction at either end of
    the step (the start is checked against the previous step's end
    sample, except at a breakpoint, where gamma may jump).  Each test
    and the step-size choice act per lane, on maxima over its members.
    Returns (phi, log_r or None): each member's angle and log amplitude
    (counted from r = 1 at its y0) at its read depth.  ``want_mesh``
    adds a third item, the mesh that :func:`replay_phase` replays: each
    lane's accepted step boundaries in the order swept, from its start
    to its farthest read, keyed by the lane's (y0, K).
    """
    Omega = np.atleast_1d(np.asarray(Omega, dtype=float))
    K, phi, y0, reads = (np.broadcast_to(np.asarray(v, dtype=float), Omega.shape)
                         for v in (K, phi0, y0, reads))
    # a nan read is never hit and never on either side of its start
    if not np.isfinite((y0, reads)).all():
        raise ValueError("sweep start and read depths must be finite")
    out = phi.copy()
    out_lr = np.zeros(Omega.shape) if want_log_r else None
    done = np.isclose(reads, y0, rtol=1e-12, atol=1e-14)
    if done.all():
        return (out, out_lr, {}) if want_mesh else (out, out_lr)
    # identical members share one trajectory (every step decision is a
    # max over a lane's members), so each distinct (y0, K, Omega, phi0)
    # is swept once as one row, and member j is row row[j]; the rows are
    # sorted by (y0, K, Omega, phi0), so each lane is a run of rows
    keys, src, row = np.unique(np.stack((y0, K, Omega, phi)), axis=1,
                               return_index=True, return_inverse=True)
    row = row.reshape(-1)
    lane = np.concatenate(([0], np.cumsum(
        np.any(keys[:2, 1:] != keys[:2, :-1], axis=0))))
    r_K, r_Om, r_phi = K[src], Omega[src], phi[src]
    r_g0 = np.full(src.size, np.nan)
    n_lanes = int(lane[-1]) + 1

    brks = {float(v) for v in problem.breakpoints}
    size = np.bincount(lane, minlength=n_lanes).tolist()
    first_row = np.cumsum([0] + size[:-1]).tolist()
    # per lane: depth, step, direction, attempts, and its boundaries as
    # the range [ptr, end) of one list over all lanes
    l_y = y0[src[first_row]].tolist()
    # with want_mesh: each lane's boundaries so far
    marks = [[v] for v in l_y] if want_mesh else None
    lane_keys = list(zip(keys[0, first_row].tolist(), keys[1, first_row].tolist()))
    l_h, l_dir, steps = [0.0] * n_lanes, [0.0] * n_lanes, [0] * n_lanes
    ptr, end_at = [0] * n_lanes, [0] * n_lanes
    # each pending member reads at its own depth, a boundary of its lane;
    # read_at numbers the boundaries of all lanes
    pending = np.nonzero(~done)[0]
    pending = pending[np.argsort(lane[row[pending]], kind="stable")]
    cuts = np.searchsorted(lane[row[pending]], np.arange(n_lanes + 1)).tolist()
    read_at = np.zeros(Omega.shape, dtype=int)
    bnd = []
    for ln in range(n_lanes):
        js = pending[cuts[ln]:cuts[ln + 1]]
        ptr[ln] = end_at[ln] = len(bnd)
        if not js.size:
            continue
        start, rd = l_y[ln], reads[js]
        direction = 1.0 if rd[0] > start else -1.0
        if np.any((rd - start) * direction < 0):
            raise ValueError("read depths lie on both sides of the sweep "
                             "start %g" % start)
        bset = set(rd.tolist())
        # the farthest read ends the lane
        end = max(bset, key=lambda v: direction * v)
        bset |= {v for v in brks
                 if (v - start) * direction > 0 and (end - v) * direction > 0}
        bl = np.array(sorted(bset, key=lambda v: direction * v))
        read_at[js] = len(bnd) + np.searchsorted(direction * bl, direction * rd)
        bnd.extend(bl.tolist())
        end_at[ln], l_dir[ln] = len(bnd), direction
        a, b = first_row[ln], first_row[ln] + size[ln]
        p, q = problem.coef_pair(start)
        g_start = r_Om[a:b] * p - r_K[a:b] * q
        w_max = math.sqrt(max(float((g_start * (1.0 / problem.stiffness(start))).max()),
                              0.0) + _TINY)
        h = min(0.1 * abs(end - start), 1.0, _ROT_CAP / w_max)
        l_h[ln] = max(h, 1e-12 * abs(end - start))
        # at a breakpoint the sample of gamma may belong to the other side
        if start not in brks:
            r_g0[a:b] = g_start
    readers = pending[np.argsort(read_at[pending], kind="stable")]
    reader_cuts = np.searchsorted(read_at[readers], np.arange(len(bnd) + 1)).tolist()
    # a row leaves the batch after its last read (at once if it has none)
    r_last = np.full(src.size, -1)
    np.maximum.at(r_last, row[pending], read_at[pending])
    leavers = np.argsort(r_last, kind="stable")
    leaver_cuts = np.searchsorted(r_last[leavers], np.arange(len(bnd) + 1)).tolist()

    r_id = np.arange(src.size)
    where = r_id.copy()              # row -> its index among the live rows
    r_lr = np.zeros(src.size)
    weights = [None] * n_lanes
    live = []
    gone = r_last < 0
    tol_sum = atol + rtol
    while True:
        if gone.any() or not live:
            # drop the rows that left; rebuild the weights of their lanes
            keep = ~gone[r_id]
            r_phi, r_lr, r_g0, r_id = (v[keep] for v in (r_phi, r_lr, r_g0, r_id))
            where[r_id] = np.arange(r_id.size)
            touched = set(lane[gone].tolist()) if live else range(n_lanes)
            gone[:] = False
            size = np.bincount(lane[r_id], minlength=n_lanes).tolist()
            first_row = np.cumsum([0] + size[:-1]).tolist()
            for ln in touched:
                a, b = first_row[ln], first_row[ln] + size[ln]
                sel = r_id[a:b]
                weights[ln] = np.array((r_Om[sel], r_K[sel], np.ones(b - a)))
            live = [ln for ln in range(n_lanes) if ptr[ln] < end_at[ln]]
            if not live:
                if not want_mesh:
                    return out, out_lr
                return out, out_lr, dict(zip(lane_keys, map(np.array, marks)))
            lanes = _pack([weights[ln] for ln in live], [l_dir[ln] for ln in live])
        # land every lane whose next boundary is within reach
        landed = False
        for ln in live:
            f = ptr[ln]
            b = bnd[f]
            if (b - l_y[ln]) * l_dir[ln] > 1e-14 * max(1.0, abs(b)):
                continue
            landed = True
            l_y[ln] = b
            if want_mesh:
                marks[ln][-1] = b       # the step that reached b ends on it
            a = first_row[ln]
            if b in brks:
                r_g0[a:a + size[ln]] = np.nan
            js = readers[reader_cuts[f]:reader_cuts[f + 1]]
            if js.size:
                out[js] = r_phi[where[row[js]]]
                if want_log_r:
                    out_lr[js] = r_lr[where[row[js]]]
            gone[leavers[leaver_cuts[f]:leaver_cuts[f + 1]]] = True
            ptr[ln] = f + 1
        if landed:
            continue

        ys, hs = [], []
        for ln in live:
            steps[ln] += 1
            if steps[ln] > _MAX_STEPS:
                raise IntegrationError("propagator exceeded %d steps" % _MAX_STEPS)
            y = l_y[ln]
            h = l_h[ln] = min(l_h[ln], abs(bnd[ptr[ln]] - y))
            if h < 1e-15 * max(1.0, abs(y)):
                raise IntegrationError("propagator step underflow at y=%g" % y)
            ys.append(y)
            hs.append(l_dir[ln] * h)
        full, half, rot_max, mag, drift, g_end = _frozen_step(
            problem.coef_pair, problem.stiffness, ys, hs,
            r_phi, lanes, want_log_r, r_g0)
        errs = (np.maximum.reduceat(np.abs(full - half), lanes[1])
                / (63.0 * tol_sum)).tolist()
        moved = []
        for ln, hd, err_norm, rot, drift_l in zip(live, hs, errs, rot_max.tolist(),
                                                   drift.tolist()):
            h = l_h[ln]
            if not math.isfinite(err_norm) or rot > _ROT_REJECT:
                l_h[ln] = h * 0.5
                continue
            # endpoint guard: the first and last ~11% of the step are
            # never sampled by the Gauss nodes; a coefficient that runs
            # away from the node-implied quadratic there would be
            # invisible to the doubling estimate (it hides features that
            # sit entirely outside every node, e.g. the onset of a ramp)
            if 0.05 * drift_l * h > 15000.0 * tol_sum:
                l_h[ln] = h * 0.4
                continue
            if err_norm <= 1.0:
                l_y[ln] += hd
                moved.append(ln)
                if want_mesh:
                    marks[ln].append(l_y[ln])
                factor = _MAX_FACTOR if err_norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * err_norm ** (-1.0 / 7.0))
                h = h * factor
                if rot > _ROT_CAP:
                    h = min(h, abs(hd) * _ROT_CAP / rot)
                l_h[ln] = h
            else:
                l_h[ln] = h * max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / 7.0))
        if not moved:
            continue
        step = half + (half - full) / 63.0             # local Richardson
        if len(moved) == len(live):
            r_phi, r_g0 = step, g_end
            if want_log_r:
                r_lr = r_lr + mag
        else:
            for ln in moved:
                a, b = first_row[ln], first_row[ln] + size[ln]
                r_phi[a:b], r_g0[a:b] = step[a:b], g_end[a:b]
                if want_log_r:
                    r_lr[a:b] += mag[a:b]


_NODE_T = np.array(_NODES)
_TERM_MAP = _COEF_MAP[np.r_[0:9, 10:19, 20:29], :90]     # nodes -> Magnus terms
_REPLAY_GROUP = 1 << 15     # padded member-steps replayed at once


def replay_phase(problem, mesh, K, Omega, phi0, y0, reads):
    """The lifted phase of the batch (K, Omega), swept over a recorded mesh.

    The arguments are those of :func:`sweep_phase` plus ``mesh``, the
    step boundaries of each lane (y0, K) as ``sweep_phase(...,
    want_mesh=True)`` returns them.  Every read must be a boundary of
    its lane's mesh, else ValueError: nothing is interpolated.  Each
    step is the full step and the two halves of :func:`_frozen_step`,
    with no error control, rejections or endpoint guard.  Their
    propagators give the Richardson propagator M = P + (P - E)/63, P the
    product of the halves and E the full step rescaled to the halves'
    exp(-s) scale, and the state carried to the next step is M times the
    last one.  A step's band lift is the halves' closed-form zero count,
    plus the wrapped difference between the angles of M z and of the
    half-2 state.  A lane ends at its farthest read, and lanes of
    similar length are replayed together (see :func:`_replay_lanes`).
    Returns each member's angle at its read.
    """
    Omega = np.atleast_1d(np.asarray(Omega, dtype=float))
    K, phi, y0, reads = (np.broadcast_to(np.asarray(v, dtype=float), Omega.shape)
                         for v in (K, phi0, y0, reads))
    out = phi.copy()
    live = ~np.isclose(reads, y0, rtol=1e-12, atol=1e-14)
    if not live.any():
        return out
    # one row per distinct (y0, K, read, Omega, phi0); a lane is a run of rows
    keys, row = np.unique(np.stack((y0, K, reads, Omega, phi))[:, live], axis=1,
                          return_inverse=True)
    cuts = (np.flatnonzero(np.any(keys[:2, 1:] != keys[:2, :-1], axis=0))
            + 1).tolist()
    steps = np.empty(keys.shape[1], dtype=int)
    lanes = []
    for a, b in zip([0] + cuts, cuts + [keys.shape[1]]):
        start, k = float(keys[0, a]), float(keys[1, a])
        bl = mesh.get((start, k))
        if bl is None:
            raise ValueError("no mesh recorded for the lane y0=%g, K=%g" % (start, k))
        rd = keys[2, a:b]
        sign = 1.0 if rd[0] > start else -1.0
        at = np.minimum(np.searchsorted(sign * bl, sign * rd), bl.size - 1)
        miss = bl[at] != rd
        if miss.any():
            raise ValueError("read depth %r is not a boundary of the mesh of "
                             "the lane y0=%g, K=%g" % (float(rd[miss][0]), start, k))
        steps[a:b] = at
        lanes.append((a, b, sign, bl[:at.max() + 1]))
    # shortest lanes first: a group pads its lanes to its longest one
    lanes.sort(key=lambda ln: ln[3].size)
    phi_rows = keys[4].copy()
    group, rows = [], 0
    for ln in lanes:
        group.append(ln)
        rows += ln[1] - ln[0]
        if rows * (ln[3].size - 1) >= _REPLAY_GROUP or ln is lanes[-1]:
            got, _, _, band, t, _ = _replay_lanes(problem, group, keys[1], keys[3],
                                                  keys[4])
            # the angle at each row's read, boundary steps[got]
            at, cols = steps[got] - 1, np.arange(got.size)
            t_at = t[at, cols]
            phi_rows[got] = _PI * (band[at + 1, cols] - np.floor(t_at / _PI)) + t_at
            group, rows = [], 0
    out[live] = phi_rows[row.reshape(-1)]
    return out


def _replay_lanes(problem, lanes, K, Omega, phi0, want_log_r=False):
    """Carry the rows of ``lanes`` over their boundaries.

    Each lane is (first row, end row, direction, boundaries): rows a..b-1
    of ``K``, ``Omega`` and ``phi0`` (the angle at the first boundary,
    with r = 1 there) take every step between its boundaries.  Every lane
    is padded to the longest with identity steps (zero Magnus terms), so
    each array holds one (step, row) entry per step index and row; a
    row's steps past its last boundary change nothing before it.  One
    ``coef_pair`` and one ``stiffness`` call sample every node of every
    step, one batch of numpy expressions gives every propagator (see
    :func:`_richardson`), and only the 2x2 state is carried by a Python
    loop over the step index.  A row's arithmetic is its own: each lane's
    samples times ``_TERM_MAP`` times its weights is a product of its
    own, and across rows only elementwise operations act.

    Returns (rows, w, u, band, t, log_r): the rows in the order of
    ``lanes``; per boundary i and row the normalized state (w, u) and the
    band floor(phi_i / pi) that a step from it starts in, kept by count
    rather than by rounding; per step the angle t of :func:`_lift`, so
    that phi_i+1 = pi (band[i + 1] - floor(t[i] / pi)) + t[i]; and per
    boundary log r, the running sum of grow1 + grow2 + log|M z| (None
    unless ``want_log_r``).
    """
    rows = np.concatenate([np.arange(a, b) for a, b, _, _ in lanes])
    n_steps = max(bl.size for _, _, _, bl in lanes) - 1
    hs = [np.diff(bl)[:, None] for _, _, _, bl in lanes]
    samples = _samples(problem, np.concatenate(
        [_node_depths(bl[:-1, None], h) for (_, _, _, bl), h in zip(lanes, hs)]))
    terms = np.zeros((30, n_steps, rows.size))
    first = col = 0
    for (a, b, _, _), h in zip(lanes, hs):
        n_l = h.size
        t = samples[first:first + n_l] @ _TERM_MAP
        t *= h
        np.matmul(t.reshape(n_l, 30, 3).transpose(1, 0, 2),
                  np.array((Omega[a:b], K[a:b], np.ones(b - a))),
                  out=terms[:, :n_l, col:col + b - a])
        first, col = first + n_l, col + b - a
    (m00, m01, m10, m11), halves, grow = _richardson(terms)

    phi0 = phi0[rows]
    z_w, z_u = np.empty((n_steps + 1, rows.size)), np.empty((n_steps + 1, rows.size))
    r = np.empty((n_steps, rows.size))
    w, u = np.cos(phi0, out=z_w[0]), np.sin(phi0, out=z_u[0])
    for i in range(n_steps):        # z_i+1 = M_i z_i, normalized
        w, u = m00[i] * w + m01[i] * u, m10[i] * w + m11[i] * u
        np.hypot(w, u, out=r[i])
        w, u = np.divide(w, r[i], out=z_w[i + 1]), np.divide(u, r[i], out=z_u[i + 1])

    sign = np.concatenate([np.full(b - a, s) for a, b, s, _ in lanes])
    jump, t = _lift(halves, z_w[:-1], z_u[:-1], z_w[1:], z_u[1:], sign)
    # the band after a step is the one before it, plus the signed zero
    # count and the band of t
    band = np.empty(z_w.shape)
    band[0] = np.floor(phi0 / _PI)
    band[1:] = band[0] + np.cumsum(jump + np.floor(t / _PI), axis=0)
    log_r = None
    if want_log_r:
        log_r = np.zeros(z_w.shape)
        np.cumsum(grow + np.log(r), axis=0, out=log_r[1:])
    return rows, z_w, z_u, band, t, log_r


def replay_depths(problem, meshes, K, Omega, phi0, depths):
    """The lifted phase and log amplitude of rows replayed over recorded
    meshes, read at any depths inside them.

    Row i is (K[i], Omega[i]) with the angle phi0[i] and r = 1 at the
    first of ``meshes[i]``, the step boundaries of one lane as
    :func:`sweep_phase` records them, and it is read at the depths
    ``depths[i]``, which must lie between the first and the last of those
    boundaries (else ValueError).  It is carried as :func:`replay_phase`
    carries it up to the boundary at or before its farthest depth.  Each
    depth is then reached from the boundary at or before it by one
    partial Richardson step: the full step and both halves, combined as
    M = P + (P - E)/63.  The partial steps of every row are one batch,
    with one ``coef_pair`` and one ``stiffness`` call however many
    depths there are.  None crosses a breakpoint, since every breakpoint
    inside a lane's span is a boundary of it.  log r is the running sum
    of grow1 + grow2 + log|M z| over the steps, so the amplitude carries
    the Richardson propagator as the angle does.

    Returns each row's (phi, log_r) at its depths.
    """
    depths = [np.atleast_1d(np.asarray(d, dtype=float)) for d in depths]
    lanes, at = [], []      # per row its lane, and the boundary of each depth
    for i, (bl, d) in enumerate(zip(meshes, depths)):
        sign = 1.0 if bl[-1] >= bl[0] else -1.0
        j = np.searchsorted(sign * bl, sign * d, side="right") - 1
        if np.any(j < 0) or np.any(sign * (d - bl[-1]) > 0):
            raise ValueError("read depths must lie inside the mesh [%g, %g]"
                             % (bl[0], bl[-1]))
        lanes.append((i, i + 1, sign, bl[:j.max(initial=0) + 1]))
        at.append(j)
    K, Omega, phi0 = (np.broadcast_to(np.asarray(v, dtype=float), (len(lanes),))
                      for v in (K, Omega, phi0))
    _, z_w, z_u, band, _, log_r = _replay_lanes(problem, lanes, K, Omega, phi0,
                                                want_log_r=True)

    row = np.repeat(np.arange(len(lanes)), [d.size for d in depths])
    j = np.concatenate(at)
    y = np.concatenate([ln[3][jj] for ln, jj in zip(lanes, at)])
    h = (np.concatenate(depths) - y)[:, None]
    t = _samples(problem, _node_depths(y[:, None], h)) @ _TERM_MAP
    t *= h
    (m00, m01, m10, m11), halves, grow = _richardson(np.einsum(
        "nts,sn->tn", t.reshape(-1, 30, 3), np.array((Omega[row], K[row],
                                                      np.ones(row.size)))))
    w0, u0 = z_w[j, row], z_u[j, row]
    w1, u1 = m00 * w0 + m01 * u0, m10 * w0 + m11 * u0
    jump, t = _lift(halves, w0, u0, w1, u1,
                    np.array([ln[2] for ln in lanes])[row])
    phi = _PI * (band[j, row] + jump) + t
    lr = log_r[j, row] + grow + np.log(np.hypot(w1, u1))
    cuts = np.cumsum([d.size for d in depths])[:-1]
    return list(zip(np.split(phi, cuts), np.split(lr, cuts)))


def _node_depths(y, h):
    """(steps, 9): the Gauss nodes of the full step from each depth ``y``
    by ``h`` and of its two halves, both columns (steps, 1)."""
    hh = 0.5 * h
    return np.concatenate((y + h * _NODE_T, y + hh * _NODE_T,
                           (y + hh) + hh * _NODE_T), axis=1)


def _samples(problem, ys):
    """(steps, 27): p, q and 1/stiffness at the node depths ``ys`` of
    :func:`_node_depths`, from one call of each accessor."""
    flat = ys.ravel()
    p, q = problem.coef_pair(flat)
    return np.concatenate((p.reshape(-1, 9), q.reshape(-1, 9),
                           (1.0 / problem.stiffness(flat)).reshape(-1, 9)), axis=1)


def _richardson(terms):
    """(m, halves, grow) of the steps whose Magnus terms are ``terms``
    (30, ...), rows as ``_TERM_MAP`` gives them: the Richardson
    propagator M = P + (P - E)/63 as (m00, m01, m10, m11), P the product
    of the halves and E the full step rescaled to the halves' exp(-s)
    scale; each half's (delta, alpha, beta, c, f, rot) for
    :func:`_advance`; and grow1 + grow2, the log of the scale M leaves
    out."""
    delta, alpha, beta, c, f, grow, rot = _exponential(
        terms.reshape(10, 3, *terms.shape[1:]))
    fd = f * delta
    e00, e01, e10, e11 = c + fd, f * alpha, f * beta, c - fd
    scale = np.exp(grow[0] - grow[1] - grow[2])
    m = tuple(prod + (prod - scale * full) / 63.0 for prod, full in (
        (e00[2] * e00[1] + e01[2] * e10[1], e00[0]),
        (e00[2] * e01[1] + e01[2] * e11[1], e01[0]),
        (e10[2] * e00[1] + e11[2] * e10[1], e10[0]),
        (e10[2] * e01[1] + e11[2] * e11[1], e11[0])))
    halves = [(delta[i], alpha[i], beta[i], c[i], f[i], rot[i]) for i in (1, 2)]
    return m, halves, grow[1] + grow[2]


def _lift(halves, w0, u0, w1, u1, sign):
    """(jump, t) of the Richardson steps of ``halves`` from the states
    (w0, u0) to (w1, u1) = M (w0, u0), up to scale: the halves' zero
    counts signed by the direction of travel, and the angle of (w1, u1)
    wrapped to within pi/2 of the half-2 angle taken in [0, pi).  A step
    from the band B = floor(phi / pi) ends at phi = pi (B + jump) + t."""
    wa, ua, inc1 = _advance(*halves[0], w0, u0)
    wb, ub, inc2 = _advance(*halves[1], wa, ua)
    raw = np.arctan2(ub, wb)
    d = np.arctan2(u1, w1) - raw
    return (sign * (inc1 + inc2),
            (raw - _PI * np.floor(raw / _PI)) + (d - _PI * np.rint(d / _PI)))
