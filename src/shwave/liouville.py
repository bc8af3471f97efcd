"""Change of depth variable tau(y) = integral of 1/mu.

The substitution maps the wave equation (mu u')' + gamma u = 0 to its
standard form u_tautau + mu*gamma u = 0, which provides an independent
coordinate system for cross-checking dispersion results.  The map is
built once per profile by adaptive quadrature and evaluated through a
monotone C1 cubic Hermite interpolant.  Its inverse starts from the
Hermite interpolant of y(tau) on the same knots and takes two Newton
steps on the forward map over the whole array, so forward/inverse round
trips are accurate to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, ProfileError
from .profile import MaterialProfile, effective_depth

_GL5_X, _GL5_W = leggauss(5)
_GL10_X, _GL10_W = leggauss(10)


def _gl(f, a, b, xs, ws):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.dot(ws, f(mid + half * xs)))


def _hermite(x, xs, fs, ds, tail_slope):
    """Cubic Hermite through (xs, fs) with slopes ds: (value, slope) at x.

    Past the last knot it continues linearly with ``tail_slope``.
    """
    x = np.asarray(x, dtype=float)
    xc = np.minimum(x, xs[-1])
    i = np.searchsorted(xs[1:-1], xc)     # interval index, 0..len(xs)-2
    h = xs[i + 1] - xs[i]
    t = (xc - xs[i]) / h
    p0, p1 = fs[i], fs[i + 1]
    m0, m1 = ds[i] * h, ds[i + 1] * h
    value = (1 + 2 * t) * (1 - t) ** 2 * p0 + t * (1 - t) ** 2 * m0 \
        + t * t * (3 - 2 * t) * p1 + t * t * (t - 1) * m1
    slope = ((6 * t * t - 6 * t) * (p0 - p1) + (3 * t * t - 4 * t + 1) * m0
             + (3 * t * t - 2 * t) * m1) / h
    return value + (x - xc) * tail_slope, np.where(x > xs[-1], tail_slope, slope)


@dataclass(frozen=True)
class TauMap:
    """Monotone map between physical depth y and transformed depth tau.

    ``knots_y``/``knots_tau`` are the paired subdivision points with
    tau(0) = 0; between knots the map is cubic Hermite with the exact
    slopes 1/mu(y).  Beyond the last knot the extrapolation is linear
    with ``tail_slope`` = 1/mu_inf.  ``y_of`` inverts it by Newton from
    a Hermite start, to machine precision.
    """

    knots_y: np.ndarray
    knots_tau: np.ndarray
    slopes: np.ndarray          # 1/mu at the knots
    tail_slope: float

    @property
    def y_max(self) -> float:
        return float(self.knots_y[-1])

    def tau(self, y):
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise DomainError("depth must be non-negative")
        out = _hermite(y, self.knots_y, self.knots_tau, self.slopes,
                       self.tail_slope)[0]
        return float(out) if out.ndim == 0 else out

    def y_of(self, tau):
        """Inverse map, for a scalar or an array of tau.

        The start is the Hermite interpolant of y(tau) with the exact knot
        slopes dy/dtau = mu; two Newton steps on ``tau`` polish it.
        """
        tau = np.asarray(tau, dtype=float)
        if (tau < 0).any():
            raise DomainError("tau must be non-negative")
        y = _hermite(tau, self.knots_tau, self.knots_y, 1.0 / self.slopes,
                     1.0 / self.tail_slope)[0]
        for _ in range(2):
            value, slope = _hermite(y, self.knots_y, self.knots_tau,
                                    self.slopes, self.tail_slope)
            y = y - (value - tau) / slope
        return float(y) if y.ndim == 0 else y


def build_tau(profile: MaterialProfile, y_max: Optional[float] = None) -> TauMap:
    """Tabulate tau(y) = integral_0^y dy'/mu(y') by adaptive quadrature.

    Intervals are subdivided until the embedded quadrature error
    estimate (Gauss 5 vs Gauss 10) falls below 1e-10 relative and the
    cubic-Hermite interpolation error at the midpoint below 1e-9, so the
    map feeds the phase integrator without contributing above its error
    budget.
    """
    mu0 = profile.mu(0.0)
    if not mu0 > 0:
        raise ProfileError("mu must be positive")
    if y_max is None:
        y_max = effective_depth(profile) + 5.0
    inv_mu = lambda y: 1.0 / profile.mu(y)

    segments = []

    def refine(a, b, depth=0):
        coarse = _gl(inv_mu, a, b, _GL5_X, _GL5_W)
        fine = _gl(inv_mu, a, b, _GL10_X, _GL10_W)
        quad_ok = abs(fine - coarse) <= 1e-10 * max(abs(fine), 1e-30)
        if quad_ok and depth >= 1:
            # Hermite midpoint check against the directly integrated value,
            # on the unit interval with the slopes scaled by b - a.
            mid = 0.5 * (a + b)
            left = _gl(inv_mu, a, mid, _GL10_X, _GL10_W)
            interp = _hermite(0.5, np.array([0.0, 1.0]), np.array([0.0, fine]),
                              np.array([inv_mu(a), inv_mu(b)]) * (b - a), 0.0)[0]
            if abs(interp - left) <= 1e-9:
                segments.append((a, b, fine))
                return
        if depth > 40:
            segments.append((a, b, fine))
            return
        mid = 0.5 * (a + b)
        refine(a, mid, depth + 1)
        refine(mid, b, depth + 1)

    # Seed with moderate panels so structure is not skipped; past y=256
    # panel edges double, as a profile still varying that deep (a power
    # law at effective_depth's cap) does so slowly and refine splits them.
    near = min(y_max, 256.0)
    seed = list(np.linspace(0.0, near, max(8, int(near / 4.0) + 1)))
    while seed[-1] < y_max:
        seed.append(min(2.0 * seed[-1], y_max))
    for a, b in zip(seed[:-1], seed[1:]):
        refine(float(a), float(b))
    segments.sort(key=lambda s: s[0])

    ys = [0.0]
    taus = [0.0]
    for a, b, inc in segments:
        ys.append(b)
        taus.append(taus[-1] + inc)
    ys = np.asarray(ys)
    taus = np.asarray(taus)
    slopes = 1.0 / np.asarray(profile.mu(ys))
    return TauMap(knots_y=ys, knots_tau=taus, slopes=slopes,
                  tail_slope=1.0 / profile.mu_inf)


class TransformedMedium:
    """The wave problem rewritten in the tau coordinate.

    In tau the flux coefficient is identically one and the parametric
    coefficient becomes gamma_bar_A(tau) = mu*(Omega*rho - K*mu)
    evaluated at y(tau); equivalently a coefficient pair
    (p, q) = (mu*rho, mu**2) so that gamma_bar_A = Omega*p - K*q.
    Instances satisfy the same accessor surface the solver uses for
    physical profiles, which is what makes coordinate cross-checks a
    one-flag switch.
    """

    def __init__(self, profile: MaterialProfile):
        self.base = profile
        self.taumap = build_tau(profile)
        tail = profile.tail_constant_from
        self.tail_constant_from = None if tail is None else float(self.taumap.tau(tail))
        self.rho_inf = profile.mu_inf * profile.rho_inf
        self.mu_inf = profile.mu_inf ** 2
        self.breakpoints = tuple(float(self.taumap.tau(b))
                                 for b in getattr(profile, "breakpoints", ()))

    def coef_pair(self, tau):
        y = self.taumap.y_of(tau)
        rho, mu = self.base.eval(y)
        return mu * rho, mu * mu

    def stiffness(self, tau):
        if np.ndim(tau):
            return np.ones_like(np.asarray(tau, dtype=float))
        return 1.0

    @property
    def coef_pair_inf(self):
        return self.rho_inf, self.mu_inf


def transform(profile: MaterialProfile) -> TransformedMedium:
    """Return the tau-coordinate view of a profile (see TransformedMedium)."""
    return TransformedMedium(profile)
