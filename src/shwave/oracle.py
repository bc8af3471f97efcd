"""Independent verification paths for the dispersion solver.

Two oracles with unrelated failure modes:

* a closed-form route for the exponential-density family
  rho = 1 + q*exp(-y/d), mu = 1 (in units of the substrate): the
  decaying solution is a Bessel function of contracting argument and
  the traction-free condition reduces to J'_nu(x0) = 0, a scalar root
  problem in Omega;
* a truncated-domain finite-difference discretization of the general
  problem, solved as a symmetric tridiagonal generalized eigenproblem.

Neither path shares numerical kernels with the phase-integration
solver.  The Bessel evaluation is series/asymptotics written here, not
a library call, and self-tests against a tabulated zero and the ODE
residual before first use; where its asymptotics cannot reach 1e-8
it raises :class:`OracleUnavailableError` instead of answering.

scipy (``brentq`` for the Bessel root polish, ``eigh_tridiagonal`` for
the FD eigenproblem) is imported inside the functions that call it, so
``import shwave`` loads only numpy and the oracles pay the scipy import
once, at first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OracleUnavailableError, ProfileError
from .profile import MaterialProfile

_SERIES_CUTOFF = 20.0
_ASYMPTOTIC_TOL = 1e-8      # largest accepted truncation error of the Hankel sum
_CUTOFF_GUARD = 1e-9        # relative band below the cutoff left unscanned
_SCAN_N = 4000              # uniform samples of the Bessel root scan
# First positive zero of J'_1 (Newton-polished against the series here;
# agrees with standard tables).
_JP1_ZERO = 1.8411837813406593


# ---------------------------------------------------------------------------
# Bessel J of real order: power series (small x) + Hankel asymptotics (large x)


def _bessel_j_series(nu: float, x: float, terms: int = 120) -> float:
    """Power series sum_m (-1)^m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)).

    Valid for x up to ~20 in double precision (alternating-series
    cancellation stays below ~1e6).  Requires nu > -1.
    """
    half = 0.5 * x
    log_half = math.log(half) if half > 0 else -math.inf
    # leading term (x/2)^nu / Gamma(nu+1)
    t = math.exp(nu * log_half - math.lgamma(nu + 1.0)) if half > 0 else \
        (1.0 if nu == 0 else 0.0)
    total = t
    hh = half * half
    for m in range(1, terms):
        t *= -hh / (m * (m + nu))
        total += t
        if abs(t) <= 1e-18 * (abs(total) + 1e-300):
            break
    return total


def _bessel_j_series_dx(nu: float, x: float, terms: int = 120) -> float:
    """Term-by-term derivative of the power series (d/dx)."""
    half = 0.5 * x
    log_half = math.log(half)
    t = math.exp(nu * log_half - math.lgamma(nu + 1.0))
    total = t * nu / x
    hh = half * half
    for m in range(1, terms):
        t *= -hh / (m * (m + nu))
        total += t * (2 * m + nu) / x
        if abs(t * (2 * m + nu) / x) <= 1e-18 * (abs(total) + 1e-300):
            break
    return total


def _hankel_pq(nu: float, x: float, terms: int = 10):
    """Asymptotic corrections P and Q for large x, and the size of the
    first omitted term (their truncation error once the terms decrease)."""
    mu4 = 4.0 * nu * nu
    p, q = 1.0, 0.0
    # P: even k; Q: odd k
    k = 0
    num = 1.0
    while k < 2 * terms:
        k += 1
        num *= (mu4 - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if k % 2 == 1:
            q += (1 if (k // 2) % 2 == 0 else -1) * num
        else:
            p += (-1 if (k // 2) % 2 == 1 else 1) * num
        if abs(num) < 1e-18:
            break
    omitted = abs(num * (mu4 - (2 * k + 1) ** 2) / ((k + 1) * 8.0 * x))
    return p, q, omitted


def _bessel_j_asymptotic(nu: float, x: float) -> float:
    p, q, omitted = _hankel_pq(nu, x)
    amp = math.sqrt(2.0 / (math.pi * x))
    if amp * omitted > _ASYMPTOTIC_TOL:
        raise OracleUnavailableError(
            "Hankel asymptotics of J_%g(%g) are not converged (truncation "
            "error ~%.1e); the order is too large for this argument"
            % (nu, x, amp * omitted))
    chi = x - (0.5 * nu + 0.25) * math.pi
    return amp * (p * math.cos(chi) - q * math.sin(chi))


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for real order nu > -1 and x >= 0; refuses (x > 20) orders
    too large for the asymptotics to reach 1e-8."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if nu <= -1:
        raise ValueError("order must exceed -1")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x <= _SERIES_CUTOFF:
        return _bessel_j_series(nu, x)
    return _bessel_j_asymptotic(nu, x)


def bessel_j_prime(nu: float, x: float) -> float:
    """dJ_nu/dx via the recurrence J'_nu = J_(nu-1) - (nu/x) J_nu."""
    if x == 0.0:
        if nu == 1.0:
            return 0.5
        return 0.0 if nu > 1 else math.inf
    if nu == 0.0:
        return -bessel_j(1.0, x)
    return bessel_j(nu - 1.0, x) - (nu / x) * bessel_j(nu, x)


_SELF_TEST_DONE = False


def _self_test():
    """Accuracy gate run once before the oracle is trusted."""
    global _SELF_TEST_DONE
    if _SELF_TEST_DONE:
        return
    # tabulated first zero of J'_1
    if abs(bessel_j_prime(1.0, _JP1_ZERO)) > 1e-8:
        raise OracleUnavailableError("Bessel series failed the J'_1 zero test")
    # series derivative vs recurrence
    rng = np.random.default_rng(20240817)
    for _ in range(24):
        nu = float(rng.uniform(0.05, 6.0))
        x = float(rng.uniform(0.1, 15.0))
        d1 = _bessel_j_series_dx(nu, x)
        d2 = bessel_j_prime(nu, x)
        if abs(d1 - d2) > 1e-9 * max(1.0, abs(d1)):
            raise OracleUnavailableError(
                "Bessel derivative identities disagree at nu=%g x=%g" % (nu, x))
    # series vs asymptotics in the overlap region (small orders)
    for nu in (0.0, 0.5, 1.5, 3.0):
        for x in (19.0, 19.5, 20.0):
            a = _bessel_j_series(nu, x)
            b = _bessel_j_asymptotic(nu, x)
            if abs(a - b) > 1e-9:
                raise OracleUnavailableError(
                    "Bessel series/asymptotics mismatch at nu=%g x=%g" % (nu, x))
    _SELF_TEST_DONE = True


@dataclass(frozen=True)
class OracleResult:
    """Sorted mode frequencies produced by one oracle."""

    omegas: tuple
    method: str
    discretization: dict
    usable: bool = True
    note: str = ""


def bessel_mode_frequencies(q: float, d: float, K: float) -> OracleResult:
    """Roots of J'_nu(2 d sqrt(Omega q)) = 0 with nu = 2 d sqrt(K - Omega).

    This is the exact trapped-mode condition for mu = 1,
    rho = 1 + q exp(-y/d): substituting x(y) = 2 d sqrt(Omega q)
    exp(-y/(2d)) turns the depth equation into Bessel's equation of
    order nu, the decaying branch is J_nu (nu > 0), and u'(0) = 0
    becomes the stated scalar relation.  Roots are scanned over
    (K/(1+q), K) on a grid refined geometrically toward the cutoff K
    and polished by Brent's method.  When J_nu cannot be evaluated
    accurately somewhere on the scan (large K, see :func:`bessel_j`) the
    result has no roots and ``usable=False``, with the reason in ``note``.
    """
    if not all(0 < v < math.inf for v in (q, d, K)):
        raise ProfileError("need finite q > 0, d > 0, K > 0, got %r"
                           % ((q, d, K),))
    from scipy.optimize import brentq  # kept off shwave's import path

    _self_test()
    lo = K / (1.0 + q)
    hi = K

    def f(omega):
        nu = 2.0 * d * math.sqrt(max(K - omega, 0.0))
        x0 = 2.0 * d * math.sqrt(omega * q)
        return bessel_j_prime(nu, x0)

    left = lo * (1.0 + 1e-9)
    right = hi * (1.0 - _CUTOFF_GUARD)
    base = np.linspace(left, right, _SCAN_N)
    extra = hi - (hi - base[-2]) * 0.5 ** np.arange(1, 24)
    grid = np.unique(np.concatenate([base, extra[extra < right]]))
    discretization = {"q": q, "d": d, "K": K, "scan_n": _SCAN_N,
                      "interval": (lo, hi)}
    try:
        vals = np.array([f(om) for om in grid])
        roots = []
        for i in range(len(grid) - 1):
            va, vb = vals[i], vals[i + 1]
            if va == 0.0:
                roots.append(float(grid[i]))
            elif va * vb < 0:
                roots.append(float(brentq(f, grid[i], grid[i + 1],
                                          xtol=1e-14, rtol=1e-15)))
    except OracleUnavailableError as exc:
        return OracleResult((), "bessel", discretization, False, str(exc))
    return OracleResult(
        omegas=tuple(sorted(set(roots))), method="bessel",
        discretization=discretization)


def bessel_mode_shape(q: float, d: float, K: float, omega: float, y):
    """Normalized trapped-mode displacement J_nu(x(y)) / J_nu(x(0))."""
    _self_test()
    nu = 2.0 * d * math.sqrt(max(K - omega, 0.0))
    x0 = 2.0 * d * math.sqrt(omega * q)
    y = np.asarray(y, dtype=float)
    xs = x0 * np.exp(-y / (2.0 * d))
    u0 = bessel_j(nu, x0)
    return np.array([bessel_j(nu, float(x)) for x in np.atleast_1d(xs)]) / u0


def bessel_residual_check(q: float, d: float, K: float, omega: float) -> float:
    """Max |u'' + gamma_A u| / max|u| of the closed form at 20 random depths.

    Uses the term-differentiated series twice (no reliance on Bessel's
    own differential equation), so it validates both the reduction and
    the series evaluation.
    """
    _self_test()
    ys = np.random.default_rng(7).uniform(0.0, 6.0 * d, 20)
    nu = 2.0 * d * math.sqrt(max(K - omega, 0.0))
    x0 = 2.0 * d * math.sqrt(omega * q)
    worst = 0.0
    umax = 0.0
    h = 1e-5
    for y in ys:
        def u_of(yy):
            x = x0 * math.exp(-yy / (2.0 * d))
            return _bessel_j_series(nu, x)
        # u'' via series-differentiated chain rule, checked with central
        # differences of the series itself
        x = x0 * math.exp(-y / (2.0 * d))
        dxdy = -x / (2.0 * d)
        d2xdy2 = x / (4.0 * d * d)
        j1 = _bessel_j_series_dx(nu, x)
        j2 = (_bessel_j_series_dx(nu, x + h) - _bessel_j_series_dx(nu, x - h)) / (2 * h)
        upp = j2 * dxdy * dxdy + j1 * d2xdy2
        gamma = omega * (1.0 + q * math.exp(-y / d)) - K
        u = u_of(y)
        worst = max(worst, abs(upp + gamma * u))
        umax = max(umax, abs(u))
    return worst / max(umax, 1e-300)


# ---------------------------------------------------------------------------
# finite-difference generalized eigenproblem oracle


def _fd_eigs(profile: MaterialProfile, K: float, L: float, n: int,
             cutoff: float):
    """Eigenvalues below `cutoff` of the symmetric FD discretization.

    Second-order scheme: -(mu u')' + K mu u = Omega rho u on [0, L],
    mirror-point Neumann at 0 (half-weighted first row keeps the matrix
    symmetric), Dirichlet at L.  The generalized problem with diagonal
    mass is folded into a standard symmetric tridiagonal one.
    """
    from scipy.linalg import eigh_tridiagonal  # kept off shwave's import path

    h = L / n
    y = np.linspace(0.0, L, n + 1)
    rho = np.asarray(profile.rho(y), dtype=float)
    mu = np.asarray(profile.mu(y), dtype=float)
    mu_half = np.asarray(profile.mu(y[:-1] + 0.5 * h), dtype=float)

    diag = np.empty(n)
    diag[0] = mu_half[0] / h ** 2 + 0.5 * K * mu[0]
    diag[1:] = (mu_half[:-1] + mu_half[1:]) / h ** 2 + K * mu[1:n]
    off = -mu_half[:-1] / h ** 2
    mass = np.empty(n)
    mass[0] = 0.5 * rho[0]
    mass[1:] = rho[1:n]

    dinv = 1.0 / np.sqrt(mass)
    c_diag = diag * dinv * dinv
    c_off = off * dinv[:-1] * dinv[1:]
    vals = eigh_tridiagonal(c_diag, c_off, select="v",
                            select_range=(0.0, cutoff),
                            eigvals_only=True)
    return np.sort(vals)


def fd_mode_frequencies(profile: MaterialProfile, K: float,
                        L: Optional[float] = None,
                        n: Optional[int] = None) -> OracleResult:
    """Trapped-mode frequencies from the finite-difference discretization.

    Runs the scheme at (L, n) and (L, 2n) and Richardson-extrapolates
    the h^2 error away; a third run at (2L, 2n) (same spacing, doubled
    box) bounds the domain-truncation error.  The result is flagged
    unusable unless both doublings report at least 1e-5 relative
    stability.  Dirichlet truncation is benign because trapped modes
    decay exponentially; L is enlarged once if the slowest found decay
    rate makes exp(-lambda L) > 1e-10.
    """
    if not 0 < K < math.inf:
        raise ProfileError("K must be finite and positive, got %r" % (K,))
    cutoff = K * profile.mu_inf / profile.rho_inf * (1.0 - _CUTOFF_GUARD)
    if L is None:
        L = 60.0
    if n is None:
        n = max(20000, int(500 * L))

    for _ in range(2):
        e1 = _fd_eigs(profile, K, L, n, cutoff)
        if len(e1) == 0:
            break
        # decay rate of the slowest mode found; enlarge the box once if
        # its tail would not have died out by L
        neg_gamma_inf = K * profile.mu_inf - float(np.max(e1)) * profile.rho_inf
        lam_min = math.sqrt(max(neg_gamma_inf, 1e-300) / profile.mu_inf)
        if lam_min * L >= -math.log(1e-10):
            break
        L = float(-math.log(1e-10) / lam_min * 1.1)
        n = max(n, int(500 * L))
    else:
        # the box grew after the last probe; a probe that broke the loop
        # already ran at the final (L, n)
        e1 = _fd_eigs(profile, K, L, n, cutoff)
    e2 = _fd_eigs(profile, K, L, 2 * n, cutoff)
    e3 = _fd_eigs(profile, K, 2 * L, 2 * n, cutoff)

    m = min(len(e1), len(e2))
    extrap = (4.0 * e2[:m] - e1[:m]) / 3.0
    usable = True
    note = ""
    if len(e1) != len(e2) or len(e2) != len(e3):
        usable = False
        note = "eigenvalue count changed under doubling"
    else:
        rel_h = float(np.max(np.abs(e2 - e1) / np.abs(extrap))) if m else 0.0
        rel_L = float(np.max(np.abs(e3[:m] - e1[:m]) / np.abs(extrap))) if m else 0.0
        # |e2-e1| ~ 3/4 of the h-error of e1; the extrapolated values are
        # an order better, so stability is judged on their estimated error
        if rel_h / 3.0 > 1e-5 or rel_L > 1e-5:
            usable = False
            note = ("insufficient stability under doubling: "
                    "h-error %.2e, L-error %.2e" % (rel_h / 3.0, rel_L))
    return OracleResult(
        omegas=tuple(float(v) for v in extrap), method="finite_difference",
        discretization={"L": L, "n": n, "cutoff": cutoff},
        usable=usable, note=note)
