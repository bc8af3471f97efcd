"""Depth-graded material profiles and their classification.

A profile is the pair of coefficient functions (rho(y), mu(y)) on the
half-line y >= 0, both positive, Lipschitz, with finite limits at
infinity.  Everything the dispersion solver needs is derived from it:
the parametric coefficient gamma_A(y) = Omega*rho(y) - K*mu(y), the
polar angle Arg a(y) = arctan(mu/rho) whose position relative to its
limit decides existence of surface modes, and the admissible frequency
interval (K*min(mu/rho), K*mu_inf/rho_inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, ProfileError

_ANGLE_TOL = 1e-10           # equality tolerance on Arg a - Arg a_inf
_EMPTY_INTERVAL_RTOL = 1e-12
_DEPTH_CAP = float(1 << 20)  # deepest probe of effective_depth


@dataclass(frozen=True)
class ParamPoint:
    """Squared-wavenumber / squared-frequency parameter pair.

    Attributes
    ----------
    K : float
        Squared wavenumber k**2 (1/length**2), positive.
    Omega : float
        Squared angular frequency omega**2 (1/time**2), positive.
    """

    K: float
    Omega: float

    def __post_init__(self):
        if not (0 < self.K < math.inf and 0 < self.Omega < math.inf):
            raise ProfileError("ParamPoint requires finite K > 0 and Omega > 0, "
                               "got (%r, %r)" % (self.K, self.Omega))


def _as_param(A) -> ParamPoint:
    if isinstance(A, ParamPoint):
        return A
    K, Omega = A
    return ParamPoint(float(K), float(Omega))


def _gamma(problem, K, Omega, y=None):
    """gamma_A = Omega*p - K*q from ``problem.coef_pair(y)``.

    ``y=None`` takes the limit pair ``coef_pair_inf`` instead.  A batch
    of ``Omega`` (an array) at a scalar depth gives one value per
    member; on a depth grid it gives a (members, depths) array.
    """
    p, q = problem.coef_pair_inf if y is None else problem.coef_pair(y)
    if isinstance(p, np.ndarray) and p.ndim and np.ndim(Omega):
        Omega = Omega[:, None]
    return Omega * p - K * q


def _halves_every_three(windows, floor):
    """True when every window above ``floor`` holds at most half of the
    window three doublings earlier (``windows`` on doubling intervals)."""
    return all(w3 <= 0.5 * w0 or w3 <= floor
               for w0, w3 in zip(windows[:-3], windows[3:]))


def _trapezoid(f, a, b, n):
    """Trapezoid rule for ``f`` on ``n`` equispaced points of [a, b]."""
    ys = np.linspace(a, b, n)
    return float(np.trapezoid(f(ys), ys))


@dataclass(frozen=True)
class MaterialProfile:
    """Material laws rho(y), mu(y) of a graded half-space.

    Instances are immutable and all evaluations are pure.  Registry-
    and table-backed profiles pickle by name and parameters.

    Attributes
    ----------
    name : str
        Registry entry name, ``"table"`` for sampled data, or
        ``"custom"`` for callable-backed profiles.
    params : dict
        Construction parameters (registry) or the raw samples (table).
    rho_inf, mu_inf : float
        Limits of density and shear modulus at infinite depth.
    tail_constant_from : float or None
        Depth beyond which (rho, mu) equal their limits exactly, when
        such a depth exists (sampled tables, layered media).
    """

    name: str
    params: dict
    rho_inf: float
    mu_inf: float
    tail_constant_from: Optional[float]
    rho_fn: Callable = field(repr=False)
    mu_fn: Callable = field(repr=False)
    breakpoints: tuple = ()

    def __reduce__(self):
        if self.name in _REGISTRY or self.name == "table":
            return (from_registry, (self.name, self.params))
        return (
            from_callables,
            (self.rho_fn, self.mu_fn, self.rho_inf, self.mu_inf,
             self.tail_constant_from, self.name, self.breakpoints),
        )

    @property
    def y_max_data(self) -> float:
        """Largest depth with explicit data: ``tail_constant_from``, or
        ``inf`` for laws that never become exactly constant."""
        return math.inf if self.tail_constant_from is None \
            else self.tail_constant_from

    # -- basic evaluation -------------------------------------------------

    def _check_domain(self, y):
        if np.any(np.asarray(y) < 0):
            raise DomainError("depth must be non-negative, got %r" % (y,))

    def rho(self, y):
        self._check_domain(y)
        return self.rho_fn(y)

    def mu(self, y):
        self._check_domain(y)
        return self.mu_fn(y)

    def eval(self, y):
        """Return (rho(y), mu(y)); accepts scalars or arrays."""
        self._check_domain(y)
        return self.rho_fn(y), self.mu_fn(y)

    def gamma(self, A, y):
        """Parametric coefficient Omega*rho(y) - K*mu(y)."""
        A = _as_param(A)
        rho, mu = self.eval(y)
        return A.Omega * rho - A.K * mu

    def arg_a(self, y):
        """Polar angle arctan(mu(y)/rho(y)) of the material vector, in (0, pi/2)."""
        rho, mu = self.eval(y)
        return np.arctan2(mu, rho)

    @property
    def arg_a_inf(self) -> float:
        return math.atan2(self.mu_inf, self.rho_inf)

    def rho_hat(self, y):
        """Deviation rho(y) - rho_inf."""
        return self.rho(y) - self.rho_inf

    def mu_hat(self, y):
        return self.mu(y) - self.mu_inf

    def limit_gamma_hat(self, y):
        """Limit-ray coefficient mu_inf*rho_hat(y) - rho_inf*mu_hat(y).

        This is the gamma of the parameter ray collinear with
        (rho_inf, mu_inf), up to a positive factor; its sign and decay
        drive both the oscillation test and the mode-count estimate.
        """
        rho, mu = self.eval(y)
        return self.mu_inf * (rho - self.rho_inf) - self.rho_inf * (mu - self.mu_inf)

    # internal solver-facing surface (shared with transformed media).
    # These skip the domain re-validation: the integrators never leave
    # the nonnegative interval they were handed, and these accessors sit
    # on the hottest path of every sweep.

    def coef_pair(self, y):
        """Coefficient pair (p, q) with gamma_A = Omega*p - K*q."""
        return self.rho_fn(y), self.mu_fn(y)

    def stiffness(self, y):
        """Coefficient of the flux term (s u')' in the wave equation."""
        return self.mu_fn(y)

    @property
    def coef_pair_inf(self):
        return self.rho_inf, self.mu_inf


@dataclass(frozen=True)
class ProfileClass:
    """Existence-relevant classification of a profile.

    ``global_negative`` is True when Arg a(y) >= Arg a_inf at every
    probed depth (within angle tolerance); no surface modes exist then
    for any (K, Omega).  ``monotonicity_at_inf`` records the sign of
    Arg a - Arg a_inf on the tail window: ``"positive"`` (below the
    limit), ``"negative"`` (above), or ``"mixed"``.
    """

    monotonicity_at_inf: str
    global_negative: bool
    min_mu_over_rho: float
    y_check: float
    arg_a_inf: float
    grid_warning: bool


@dataclass(frozen=True)
class AssumptionReport:
    """Numerical evidence for the regularity and integrability assumptions."""

    lipschitz_bound: float
    lipschitz_ok: bool
    integral_estimate: float
    integrable: bool
    windows: tuple
    probe_depth: float


# ---------------------------------------------------------------------------
# construction


def _positive(x, what):
    if not (np.all(np.asarray(x) > 0) and np.all(np.isfinite(x))):
        raise ProfileError("%s must be positive and finite" % what)
    return x


def _build_constant(params):
    rho = float(params.get("rho", 1.0))
    mu = float(params.get("mu", 1.0))
    _positive([rho, mu], "constant profile values")
    return _const_fn(rho), _const_fn(mu), rho, mu, 0.0, ()


def _const_fn(value):
    def fn(y, _v=value):
        if isinstance(y, float):
            return _v
        return np.full_like(np.asarray(y, dtype=float), _v) if np.ndim(y) else _v
    return fn


def _build_exp_density(params):
    rho_inf = float(params.get("rho_inf", 1.0))
    drho = float(params["drho"])
    d = float(params.get("d", 1.0))
    mu = float(params.get("mu", 1.0))
    _positive([rho_inf, d, mu], "exp_density parameters")
    _positive(rho_inf + drho, "surface density rho_inf + drho")

    def rho_fn(y):
        if isinstance(y, float):
            return rho_inf + drho * math.exp(-y / d)
        return rho_inf + drho * np.exp(-np.asarray(y, dtype=float) / d)

    return rho_fn, _const_fn(mu), rho_inf, mu, None, ()


def _build_power_density(params):
    rho_inf = float(params.get("rho_inf", 1.0))
    c = float(params["c"])
    p = float(params["p"])
    mu = float(params.get("mu", 1.0))
    _positive([rho_inf, mu], "power_density parameters")
    if p <= 0:
        raise ProfileError("power_density exponent p must be positive")
    _positive(rho_inf + c, "surface density rho_inf + c")

    def rho_fn(y):
        if isinstance(y, float):
            return rho_inf + c * (1.0 + y) ** (-p)
        return rho_inf + c * (1.0 + np.asarray(y, dtype=float)) ** (-p)

    return rho_fn, _const_fn(mu), rho_inf, mu, None, ()


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _build_smoothed_layer(params):
    rho_1 = float(params["rho_1"])
    mu_1 = float(params["mu_1"])
    rho_s = float(params["rho_s"])
    mu_s = float(params["mu_s"])
    y_s = float(params["y_s"])
    width = float(params.get("width", 0.5 * y_s))
    _positive([rho_1, mu_1, rho_s, mu_s, y_s, width], "smoothed_layer parameters")
    if width > y_s:
        raise ProfileError("smoothing width must not exceed y_s")

    def blend(y, v1, vs):
        t = _smoothstep((np.asarray(y, dtype=float) - (y_s - width)) / width)
        return v1 + (vs - v1) * t

    def rho_fn(y):
        return blend(y, rho_1, rho_s)

    def mu_fn(y):
        return blend(y, mu_1, mu_s)

    # the smoothstep blend is only C^1 at the ramp edges; integrators
    # must not straddle them in one step
    return rho_fn, mu_fn, rho_s, mu_s, y_s, (y_s - width, y_s)


def _build_table(params):
    rows = params.get("rows")
    if rows is None:
        raise ProfileError("table profile requires 'rows' of (y, rho, mu)")
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ProfileError("table rows must be (y, rho, mu) triples")
    y, rho, mu = data[:, 0], data[:, 1], data[:, 2]
    if len(y) < 2:
        raise ProfileError("table needs at least two samples")
    if not np.all(np.isfinite(data)):
        bad = int(np.nonzero(~np.all(np.isfinite(data), axis=1))[0][0]) + 1
        raise ProfileError("table values must be finite (row %d)" % bad)
    if np.any(np.diff(y) <= 0):
        bad = int(np.nonzero(np.diff(y) <= 0)[0][0]) + 2
        raise ProfileError("table depths must strictly increase (row %d)" % bad)
    if np.any(rho <= 0) or np.any(mu <= 0):
        bad = int(np.nonzero((rho <= 0) | (mu <= 0))[0][0]) + 1
        raise ProfileError("table values must be positive (row %d)" % bad)
    rho_inf = float(params.get("rho_inf", rho[-1]))
    mu_inf = float(params.get("mu_inf", mu[-1]))
    _positive([rho_inf, mu_inf], "table limits")
    scale = max(rho_inf, mu_inf)
    if abs(rho[-1] - rho_inf) > 1e-9 * scale or abs(mu[-1] - mu_inf) > 1e-9 * scale:
        raise ProfileError(
            "last table row must match (rho_inf, mu_inf); the profile is "
            "clamped to the limits beyond y_max_data")
    y_max = float(y[-1])
    # Monotone cubic interpolation: no overshoot, so positivity and the
    # Lipschitz character of the data survive.  scipy is imported here,
    # at the first table profile, so that importing shwave does not load it.
    from scipy.interpolate import PchipInterpolator

    rho_ip = PchipInterpolator(y, rho, extrapolate=False)
    mu_ip = PchipInterpolator(y, mu, extrapolate=False)

    def rho_fn(yy):
        yy = np.asarray(yy, dtype=float)
        out = np.where(yy >= y_max, rho_inf, rho_ip(np.minimum(yy, y_max)))
        return float(out) if out.ndim == 0 else out

    def mu_fn(yy):
        yy = np.asarray(yy, dtype=float)
        out = np.where(yy >= y_max, mu_inf, mu_ip(np.minimum(yy, y_max)))
        return float(out) if out.ndim == 0 else out

    return rho_fn, mu_fn, rho_inf, mu_inf, y_max, tuple(float(v) for v in y)


_REGISTRY = {
    "constant": _build_constant,
    "exp_density": _build_exp_density,
    "power_density": _build_power_density,
    "smoothed_layer": _build_smoothed_layer,
}


def from_registry(name: str, params: Optional[dict] = None) -> MaterialProfile:
    """Build a profile from the analytic registry or from table data.

    Registry entries: ``constant`` (rho, mu), ``exp_density``
    (rho_inf, drho, d, mu), ``power_density`` (rho_inf, c, p, mu),
    ``smoothed_layer`` (rho_1, mu_1, rho_s, mu_s, y_s, width) and
    ``table`` (rows of (y, rho, mu) triples plus rho_inf, mu_inf).
    """
    params = dict(params or {})
    if name == "table":
        build = _build_table
    elif name in _REGISTRY:
        build = _REGISTRY[name]
    else:
        raise ProfileError("unknown profile %r; known: %s"
                           % (name, sorted(_REGISTRY) + ["table"]))
    try:
        rho_fn, mu_fn, rho_inf, mu_inf, tail_from, breaks = build(params)
    except KeyError as exc:
        raise ProfileError("profile %r requires parameter %s" % (name, exc))
    return MaterialProfile(
        name=name, params=params, rho_inf=rho_inf, mu_inf=mu_inf,
        tail_constant_from=tail_from, rho_fn=rho_fn, mu_fn=mu_fn,
        breakpoints=breaks)


def from_callables(rho, mu, rho_inf, mu_inf, tail_constant_from=None,
                   name="custom", breakpoints=()) -> MaterialProfile:
    """Wrap arbitrary positive callables rho(y), mu(y) as a profile.

    The callables must accept scalars and numpy arrays; depths where
    they are not smooth should be listed in ``breakpoints`` so sweeps
    never step across them.  Such a profile pickles only if its
    callables are module-level functions.  ``tail_constant_from`` is
    None or a finite depth >= 0 at and beyond which rho and mu equal
    their limits (to 1e-12 relative, checked there and at a few deeper
    depths); the solvers start the decaying tail there unchecked.
    """
    _positive([rho_inf, mu_inf], "profile limits")
    if tail_constant_from is not None:
        t = float(tail_constant_from)
        if not 0.0 <= t < math.inf:
            raise ProfileError("tail_constant_from must be None or a finite "
                               "depth >= 0, got %r" % (tail_constant_from,))
        ys = t + max(1.0, t) * np.array([0.0, 1.0, 10.0, 100.0])
        for fn, lim, what in ((rho, float(rho_inf), "rho"),
                              (mu, float(mu_inf), "mu")):
            off = np.abs(np.asarray(fn(ys), dtype=float) - lim)
            if not np.all(off <= 1e-12 * lim):
                raise ProfileError(
                    "%s differs from its limit %r beyond tail_constant_from="
                    "%r (by up to %.3g)" % (what, lim, t, np.max(off)))
    return MaterialProfile(
        name=name, params={}, rho_inf=float(rho_inf), mu_inf=float(mu_inf),
        tail_constant_from=tail_constant_from, rho_fn=rho, mu_fn=mu,
        breakpoints=tuple(float(b) for b in breakpoints))


def from_table(rows: Sequence, rho_inf=None, mu_inf=None) -> MaterialProfile:
    params = {"rows": [list(map(float, r)) for r in rows]}
    if rho_inf is not None:
        params["rho_inf"] = float(rho_inf)
    if mu_inf is not None:
        params["mu_inf"] = float(mu_inf)
    return from_registry("table", params)


# ---------------------------------------------------------------------------
# classification and assumption checks


def effective_depth(profile: MaterialProfile) -> float:
    """Depth beyond which the deviation from the limits is negligible.

    For exactly-clamped profiles this is ``tail_constant_from`` (at
    least 1); otherwise the probe doubles outward until |a(y) - a_inf|
    falls below 1e-12 relative to |a_inf|, or returns its cap 2**20.
    """
    if profile.tail_constant_from is not None:
        return max(profile.tail_constant_from, 1.0)
    scale = math.hypot(profile.rho_inf, profile.mu_inf)
    y = 16.0
    while y < _DEPTH_CAP:
        ys = np.linspace(0.75 * y, y, 8)
        dev = np.hypot(profile.rho_hat(ys), profile.mu_hat(ys))
        if np.max(dev) <= 1e-12 * scale:
            return y
        y *= 2.0
    return _DEPTH_CAP


def classify(profile: MaterialProfile) -> ProfileClass:
    """Decide the existence class of a profile.

    Scans Arg a(y) - Arg a_inf over a grid covering all structure of
    the profile plus a tail window.  Equality within the angle
    tolerance counts toward the globally-negative verdict (the
    conservative, non-existence side).  The minimum of mu/rho is
    located on the grid and polished by golden-section search.
    """
    y_grid = np.linspace(0.0, effective_depth(profile) + 10.0, 2048 + 256)

    darg = profile.arg_a(y_grid) - profile.arg_a_inf
    global_negative = bool(np.all(darg >= -_ANGLE_TOL))

    # Monotonicity at infinity is judged on the deepest stretch where the
    # angle deviation is still numerically resolvable; past that the
    # profile is angle-constant to within tolerance.
    resolvable = np.nonzero(np.abs(darg) > _ANGLE_TOL)[0]
    if not len(resolvable):
        monot = "mixed"
    else:
        tail_idx = resolvable[-max(32, len(resolvable) // 20):]
        dtail = darg[tail_idx]
        if np.all(dtail < 0):
            monot = "positive"
        elif np.all(dtail > 0):
            monot = "negative"
        else:
            monot = "mixed"

    def ratio(y):
        return profile.mu(y) / profile.rho(y)

    r_grid = ratio(y_grid)
    i0 = int(np.argmin(r_grid))
    lo = y_grid[max(i0 - 1, 0)]
    hi = y_grid[min(i0 + 1, len(y_grid) - 1)]
    y_check, r_min = _golden_min(ratio, lo, hi)
    for cand in (lo, y_grid[i0], hi):
        rc = float(ratio(cand))
        if rc < r_min:
            r_min, y_check = rc, float(cand)
    r_lim = profile.mu_inf / profile.rho_inf
    if r_lim < r_min:
        r_min, y_check = r_lim, float(y_grid[-1])

    # Coarseness guard: large angle jumps between neighbours mean the
    # grid may straddle unresolved sign structure.
    grid_warning = bool(np.max(np.abs(np.diff(darg))) > 0.05)

    return ProfileClass(
        monotonicity_at_inf=monot,
        global_negative=global_negative,
        min_mu_over_rho=float(r_min),
        y_check=float(y_check),
        arg_a_inf=profile.arg_a_inf,
        grid_warning=grid_warning,
    )


def _golden_min(f, a, b):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= 1e-12 * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def admissible_interval(profile: MaterialProfile, K: float,
                        classification: Optional[ProfileClass] = None):
    """Frequency window (K*min(mu/rho), K*mu_inf/rho_inf) that can host modes.

    Empty (lo >= hi) means no modes at this K regardless of frequency;
    the endpoints scale linearly with K.
    """
    if not 0 < K < math.inf:
        raise ProfileError("K must be finite and positive, got %r" % (K,))
    cls = classification or classify(profile)
    lo = K * cls.min_mu_over_rho
    hi = K * profile.mu_inf / profile.rho_inf
    return lo, hi


def interval_is_empty(lo: float, hi: float) -> bool:
    return lo >= hi * (1.0 - _EMPTY_INTERVAL_RTOL)


def check_assumptions(profile: MaterialProfile) -> AssumptionReport:
    """Report-only check of Lipschitz continuity and tail integrability.

    The Lipschitz proxy is the largest finite-difference slope of
    (rho, mu) over the probe grid.  Integrability of |a - a_inf| is
    judged on doubling windows [Y, 2Y]: the integral must fall by at
    least a factor of two across any three consecutive doublings, else
    the tail is flagged divergent.  Improper integrals cannot be
    decided exactly numerically; the verdicts are heuristics and the
    window table is attached as evidence.
    """
    probe_depth = max(64.0, min(effective_depth(profile), 4096.0))
    ys = np.linspace(0.0, probe_depth, 4096)
    rho, mu = profile.eval(ys)
    slopes = np.hypot(np.diff(rho), np.diff(mu)) / np.diff(ys)
    lip = float(np.max(slopes))

    dev = lambda y: np.hypot(profile.rho_hat(y), profile.mu_hat(y))
    head = _trapezoid(dev, 0.0, 8.0, 1025)
    windows = []
    a = 8.0
    for _ in range(8):
        windows.append(_trapezoid(dev, a, 2 * a, 513))
        a *= 2.0
    windows = np.array(windows)
    floor = 1e-13 * math.hypot(profile.rho_inf, profile.mu_inf)
    integrable = _halves_every_three(windows, floor)
    total = head + float(np.sum(windows))
    if integrable and windows[-1] > floor:
        # geometric tail extrapolation from the last observed ratio
        r = windows[-1] / windows[-2] if windows[-2] > floor else 0.0
        if 0.0 < r < 0.95:
            total += float(windows[-1] * r / (1.0 - r))
    return AssumptionReport(
        lipschitz_bound=lip,
        lipschitz_ok=bool(np.isfinite(lip)),
        integral_estimate=float(total) if integrable else math.inf,
        integrable=integrable,
        windows=tuple(float(w) for w in windows),
        probe_depth=float(probe_depth),
    )
