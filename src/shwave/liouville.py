"""Change of depth variable tau(y) = integral of 1/mu.

The substitution maps the wave equation (mu u')' + gamma u = 0 to its
standard form u_tautau + mu*gamma u = 0, which provides an independent
coordinate system for cross-checking dispersion results.  The map is
built once per profile by adaptive quadrature and evaluated through a
monotone C1 interpolant whose inverse is solved exactly per interval,
so forward/inverse round trips are accurate to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, ProfileError
from .profile import MaterialProfile, _as_param, _gamma, effective_depth

_GL5_X, _GL5_W = leggauss(5)
_GL10_X, _GL10_W = leggauss(10)


def _gl(f, a, b, xs, ws):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.dot(ws, f(mid + half * xs)))


@dataclass(frozen=True)
class TauMap:
    """Monotone map between physical depth y and transformed depth tau.

    ``knots_y``/``knots_tau`` are the paired subdivision points with
    tau(0) = 0; between knots the map is cubic Hermite with the exact
    slopes 1/mu(y).  Beyond the last knot the extrapolation is linear
    with ``tail_slope`` = 1/mu_inf.
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
        if np.any(y < 0):
            raise DomainError("depth must be non-negative")
        scalar = y.ndim == 0
        yy = np.atleast_1d(y)
        out = np.empty_like(yy)
        inside = yy <= self.y_max
        out[~inside] = self.knots_tau[-1] + (yy[~inside] - self.y_max) * self.tail_slope
        if np.any(inside):
            out[inside] = self._hermite(yy[inside])
        return float(out[0]) if scalar else out

    def _hermite(self, y):
        i = np.clip(np.searchsorted(self.knots_y, y) - 1, 0, len(self.knots_y) - 2)
        h = self.knots_y[i + 1] - self.knots_y[i]
        t = (y - self.knots_y[i]) / h
        p0, p1 = self.knots_tau[i], self.knots_tau[i + 1]
        m0, m1 = self.slopes[i] * h, self.slopes[i + 1] * h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * p0 + h10 * m0 + h01 * p1 + h11 * m1

    def y_of(self, tau):
        """Inverse map; solves the forward interpolant per interval."""
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < 0):
            raise DomainError("tau must be non-negative")
        scalar = tau.ndim == 0
        tt = np.atleast_1d(tau).copy()
        out = np.empty_like(tt)
        tau_max = self.knots_tau[-1]
        outside = tt > tau_max
        out[outside] = self.y_max + (tt[outside] - tau_max) / self.tail_slope
        for j in np.nonzero(~outside)[0]:
            out[j] = self._invert_one(tt[j])
        return float(out[0]) if scalar else out

    def _invert_one(self, target):
        i = np.clip(np.searchsorted(self.knots_tau, target) - 1, 0,
                    len(self.knots_tau) - 2)
        a, b = self.knots_y[i], self.knots_y[i + 1]
        # Newton on the monotone cubic, bisection fallback.
        y = a + (b - a) * (target - self.knots_tau[i]) / max(
            self.knots_tau[i + 1] - self.knots_tau[i], 1e-300)
        for _ in range(60):
            fy = self._hermite(np.array([y]))[0] - target
            if fy > 0:
                b = y
            else:
                a = y
            slope = self._slope_at(y, i)
            step = fy / slope if slope > 0 else 0.0
            y_new = y - step
            if not (a <= y_new <= b):
                y_new = 0.5 * (a + b)
            if abs(y_new - y) <= 1e-15 * (1.0 + abs(y)):
                return y_new
            y = y_new
        return y

    def _slope_at(self, y, i):
        h = self.knots_y[i + 1] - self.knots_y[i]
        t = (y - self.knots_y[i]) / h
        p0, p1 = self.knots_tau[i], self.knots_tau[i + 1]
        m0, m1 = self.slopes[i] * h, self.slopes[i + 1] * h
        d = (6 * t * t - 6 * t) * (p0 - p1) + (3 * t * t - 4 * t + 1) * m0 \
            + (3 * t * t - 2 * t) * m1
        return d / h


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
            # Hermite midpoint check against the directly integrated value.
            mid = 0.5 * (a + b)
            left = _gl(inv_mu, a, mid, _GL10_X, _GL10_W)
            h = b - a
            t = 0.5
            interp = (1 + 2 * t) * (1 - t) ** 2 * 0.0 + t * (1 - t) ** 2 * inv_mu(a) * h \
                + t * t * (3 - 2 * t) * fine + t * t * (t - 1) * inv_mu(b) * h
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

    def gamma_bar(self, A, tau):
        """Standard-form coefficient mu(y(tau)) * gamma_A(y(tau))."""
        A = _as_param(A)
        return _gamma(self, A.K, A.Omega, tau)

    def arg_a(self, tau):
        """Material angle in tau; equals the physical Arg a at y(tau)."""
        p, q = self.coef_pair(tau)
        return np.arctan2(q, p)


def transform(profile: MaterialProfile) -> TransformedMedium:
    """Return the tau-coordinate view of a profile (see TransformedMedium)."""
    return TransformedMedium(profile)
