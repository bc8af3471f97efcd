"""Change of depth variable tau(y) = integral of 1/mu.

The substitution maps the wave equation (mu u')' + gamma u = 0 to its
standard form u_tautau + mu*gamma u = 0, which provides an independent
coordinate system for cross-checking dispersion results.  The map is
built once per profile by adaptive quadrature and stored as per-piece
power-form cubic tables on the paired knots: the monotone C1 Hermite
interpolant of tau(y), and that of y(tau) with the same knot slopes.
The inverse starts from the second table and takes two Newton steps on
the first, so forward/inverse round trips are accurate to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _cubic_table(xs, fs, ds, tail_slope):
    """Rows c0..c3 of the Hermite cubic through (xs, fs), slopes ds, in
    powers of x - xs[i]; the last column is the linear tail."""
    h = np.diff(xs)
    secant = np.diff(fs) / h
    c2 = (3.0 * secant - 2.0 * ds[:-1] - ds[1:]) / h
    c3 = (ds[:-1] + ds[1:] - 2.0 * secant) / (h * h)
    return np.array([fs, np.append(ds[:-1], tail_slope),
                     np.append(c2, 0.0), np.append(c3, 0.0)])


@dataclass(frozen=True)
class TauMap:
    """Monotone map between physical depth y and transformed depth tau.

    ``knots_y``/``knots_tau`` are the paired subdivision points with
    tau(0) = 0; between knots the map is cubic Hermite with the exact
    slopes 1/mu(y).  Beyond the last knot the extrapolation is linear
    with ``tail_slope`` = 1/mu_inf.  ``tau`` evaluates the power-form
    table of this cubic by Horner; ``y_of`` inverts it from a start on
    the y(tau) table (slopes mu) with two Newton steps.
    """

    knots_y: np.ndarray
    knots_tau: np.ndarray
    slopes: np.ndarray          # 1/mu at the knots
    tail_slope: float
    _forward: np.ndarray = field(init=False, repr=False, compare=False)
    _start: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_forward", _cubic_table(
            self.knots_y, self.knots_tau, self.slopes, self.tail_slope))
        object.__setattr__(self, "_start", _cubic_table(
            self.knots_tau, self.knots_y, 1.0 / self.slopes, 1.0 / self.tail_slope))

    @property
    def y_max(self) -> float:
        return float(self.knots_y[-1])

    def tau(self, y):
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise DomainError("depth must be non-negative")
        i = np.searchsorted(self.knots_y, y, side="right") - 1
        s = y - self.knots_y[i]
        c0, c1, c2, c3 = self._forward.take(i, axis=1)
        out = c0 + s * (c1 + s * (c2 + s * c3))
        return float(out) if out.ndim == 0 else out

    def y_of(self, tau):
        """Inverse map, for a scalar or an array of tau.

        The paired knots give one piece index for both tables.  The
        start can miss by 1e-4 relative where mu turns sharply inside a
        piece, so two Newton steps polish the offset s = y - knots_y[i].
        """
        tau = np.asarray(tau, dtype=float)
        if (tau < 0).any():
            raise DomainError("tau must be non-negative")
        i = np.searchsorted(self.knots_tau, tau, side="right") - 1
        tau_i, c1, c2, c3 = self._forward.take(i, axis=1)
        y_i, d1, d2, d3 = self._start.take(i, axis=1)
        t = tau - tau_i
        s = t * (d1 + t * (d2 + t * d3))
        e2, e3 = 2.0 * c2, 3.0 * c3
        for _ in range(2):
            s = s - (s * (c1 + s * (c2 + s * c3)) - t) / (c1 + s * (e2 + s * e3))
        y = y_i + s
        return float(y) if y.ndim == 0 else y


def build_tau(profile: MaterialProfile) -> TauMap:
    """Tabulate tau(y) = integral_0^y dy'/mu(y') by adaptive quadrature.

    The table reaches 5 past :func:`shwave.profile.effective_depth`,
    beyond which tau extends linearly with slope 1/mu_inf.

    Intervals are subdivided until the embedded quadrature error
    estimate (Gauss 5 vs Gauss 10) falls below 1e-10 relative and the
    cubic-Hermite interpolation error at the midpoint below 1e-9, so the
    map feeds the phase integrator without contributing above its error
    budget.
    """
    if not profile.mu(0.0) > 0:
        raise ProfileError("mu must be positive")
    y_max = effective_depth(profile) + 5.0
    inv_mu = lambda y: 1.0 / profile.mu(y)

    segments = []

    def refine(a, b, depth=0):
        coarse = _gl(inv_mu, a, b, _GL5_X, _GL5_W)
        fine = _gl(inv_mu, a, b, _GL10_X, _GL10_W)
        quad_ok = abs(fine - coarse) <= 1e-10 * max(abs(fine), 1e-30)
        mid = 0.5 * (a + b)
        if quad_ok and depth >= 1:
            # Hermite midpoint value, fine/2 + (b - a)(1/mu(a) - 1/mu(b))/8,
            # against the directly integrated value.
            left = _gl(inv_mu, a, mid, _GL10_X, _GL10_W)
            interp = 0.5 * fine + 0.125 * (b - a) * (inv_mu(a) - inv_mu(b))
            if abs(interp - left) <= 1e-9:
                segments.append((a, b, fine))
                return
        if depth > 40:
            segments.append((a, b, fine))
            return
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

    ys = np.array([0.0] + [b for _, b, _ in segments])
    taus = np.cumsum([0.0] + [inc for _, _, inc in segments])
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
        # y_of rejects tau < 0, so the base profile's domain check is skipped
        rho, mu = self.base.coef_pair(self.taumap.y_of(tau))
        return mu * rho, mu * mu

    def stiffness(self, tau):
        return np.ones_like(np.asarray(tau, dtype=float))[()]

    @property
    def coef_pair_inf(self):
        return self.rho_inf, self.mu_inf


def transform(profile: MaterialProfile) -> TransformedMedium:
    """Return the tau-coordinate view of a profile (see TransformedMedium)."""
    return TransformedMedium(profile)
