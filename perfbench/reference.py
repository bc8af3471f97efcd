"""Reference spectra computed apart from shwave.

Two routes that share no code with the package:

* the closed form for rho = rho_inf + drho*exp(-y/d), mu = mu_inf: trapped
  modes are the roots of J'_nu(x0) = 0 with x0 = 2d*sqrt(Omega*drho/mu),
  nu = 2d*sqrt((K*mu - Omega*rho_inf)/mu), evaluated with scipy's Bessel
  functions and polished by Brent's method;
* a cell-centred finite-volume eigen-solve of
  -(mu u')' + K mu u = Omega rho u on a truncated box, Neumann at the
  surface and Dirichlet at the far end, Richardson-extrapolated in the
  cell width and gated by a box-doubling stability test.

Every reference reports whether it is usable; callers fail the operation
when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv, jvp

# first positive zero of J'_1 (Abramowitz & Stegun, table 9.5)
JP1_ZERO = 1.8411837813406593

GUARD = 1e-9                 # same guard band below the cutoff as the solver
FD_H_GATE = 1e-5             # relative h-error estimate a usable FD run may have
FD_BOX_GATE = 1e-9           # relative change allowed when the box doubles


class ReferenceError(RuntimeError):
    """A reference failed its own accuracy gate."""


@dataclass(frozen=True)
class Spectrum:
    omegas: tuple             # squared frequencies Omega, ascending
    usable: bool
    note: str = ""
    rel_err: float = 0.0      # estimated relative error of the values


# ---------------------------------------------------------------------------
# closed form for the exponential-density profile


def _exp_orders(rho_inf, drho, d, mu, K, omega):
    nu = 2.0 * d * math.sqrt(max(K * mu - omega * rho_inf, 0.0) / mu)
    x0 = 2.0 * d * math.sqrt(omega * drho / mu)
    return nu, x0


def bessel_spectrum(rho_inf, drho, d, mu, K, scan_n=4000) -> Spectrum:
    """Roots of the traction-free condition J'_nu(x0(Omega)) = 0."""
    lo = K * mu / (rho_inf + drho)
    hi = K * mu / rho_inf

    def f(omega):
        nu, x0 = _exp_orders(rho_inf, drho, d, mu, K, omega)
        return float(jvp(nu, x0, 1))

    right = hi * (1.0 - GUARD)
    base = np.linspace(lo * (1.0 + 1e-12), right, scan_n)
    # the order nu -> 0 at the cutoff, so roots can crowd there
    tail = hi - (hi - base[-2]) * 0.5 ** np.arange(1, 40)
    grid = np.unique(np.concatenate([base, tail[tail < right]]))
    vals = np.array([f(om) for om in grid])
    if not np.all(np.isfinite(vals)):
        return Spectrum((), False, "non-finite J' on the scan grid")
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(brentq(f, a, b, xtol=1e-15, rtol=1e-15))
    return Spectrum(tuple(sorted(roots)), True, rel_err=1e-13)


def bessel_shape(rho_inf, drho, d, mu, K, omega, ys):
    """Mode shape J_nu(x(y)) / J_nu(x0), with x(y) = x0*exp(-y/(2d))."""
    nu, x0 = _exp_orders(rho_inf, drho, d, mu, K, omega)
    xs = x0 * np.exp(-np.asarray(ys, dtype=float) / (2.0 * d))
    return jv(nu, xs) / jv(nu, x0)


# ---------------------------------------------------------------------------
# finite-volume eigen-solve


def _fv_eigs(rho, mu, K, L, n, top):
    """Eigenvalues Omega below ``top`` on n cells of [0, L]."""
    h = L / n
    yc = (np.arange(n) + 0.5) * h
    yf = np.arange(1, n) * h
    mu_c = np.asarray(mu(yc), dtype=float)
    mu_f = np.asarray(mu(yf), dtype=float)
    rho_c = np.asarray(rho(yc), dtype=float)
    diag = K * mu_c
    diag[:-1] += mu_f / h ** 2
    diag[1:] += mu_f / h ** 2
    diag[-1] += 2.0 * float(mu(np.array([L]))[0]) / h ** 2
    off = -mu_f / h ** 2
    s = 1.0 / np.sqrt(rho_c)
    vals = eigh_tridiagonal(diag * s * s, off * s[:-1] * s[1:], select="v",
                            select_range=(0.0, top), eigvals_only=True)
    return np.sort(vals)


def fd_spectrum(rho, mu, rho_inf, mu_inf, K, L=60.0, cells_per_unit=400) -> Spectrum:
    """Trapped-mode Omega of (rho, mu) at K from the finite-volume scheme.

    The box is widened until the slowest mode found has decayed by e^-28
    at its far end.  Runs at cell widths h and h/2 are extrapolated
    (the scheme is second order); a third run on the doubled box at width
    h/2 must reproduce the h/2 values, else the result is unusable.
    """
    top = K * mu_inf / rho_inf * (1.0 - GUARD)
    n = int(cells_per_unit * L)
    for _ in range(4):
        probe = _fv_eigs(rho, mu, K, L, n, top)
        if not len(probe):
            break
        kappa = math.sqrt(max(K * mu_inf - probe[-1] * rho_inf, 1e-300) / mu_inf)
        if kappa * L >= 28.0:
            break
        L = 1.2 * 28.0 / kappa
        n = int(cells_per_unit * L)
    e1 = _fv_eigs(rho, mu, K, L, n, top)
    e2 = _fv_eigs(rho, mu, K, L, 2 * n, top)
    e3 = _fv_eigs(rho, mu, K, 2 * L, 4 * n, top)
    if not (len(e1) == len(e2) == len(e3)):
        return Spectrum((), False, "mode count changed under refinement "
                        "(%d, %d, %d)" % (len(e1), len(e2), len(e3)))
    if not len(e1):
        return Spectrum((), True)
    ext = (4.0 * e2 - e1) / 3.0
    h_err = float(np.max(np.abs(e2 - e1) / ext)) / 3.0
    box_err = float(np.max(np.abs(e3 - e2) / ext))
    if h_err > FD_H_GATE or box_err > FD_BOX_GATE:
        return Spectrum(tuple(ext), False, "unstable: h-error %.2e, box change "
                        "%.2e" % (h_err, box_err))
    return Spectrum(tuple(float(v) for v in ext), True, rel_err=h_err)


# ---------------------------------------------------------------------------
# self-checks, run before any reference is trusted


def self_check():
    """Raise ReferenceError unless both references pass their gates."""
    if abs(float(jvp(1.0, JP1_ZERO, 1))) > 1e-12:
        raise ReferenceError("scipy jvp misses the tabulated zero of J'_1")
    rho_inf, drho, d, mu, K = 1.0, 5.0, 1.0, 1.0, 16.0
    bes = bessel_spectrum(rho_inf, drho, d, mu, K)
    fd = fd_spectrum(lambda y: rho_inf + drho * np.exp(-y / d),
                     lambda y: np.full_like(np.asarray(y, dtype=float), mu),
                     rho_inf, mu, K)
    if not (bes.usable and fd.usable):
        raise ReferenceError("reference unusable in self-check: %s %s"
                             % (bes.note, fd.note))
    if len(bes.omegas) != len(fd.omegas) or not bes.omegas:
        raise ReferenceError("Bessel and FD disagree on the mode count at "
                             "K=16: %d vs %d" % (len(bes.omegas), len(fd.omegas)))
    rel = max(abs(a - b) / b for a, b in zip(fd.omegas, bes.omegas))
    if rel > max(10.0 * fd.rel_err, 1e-9):
        raise ReferenceError("FD misses Bessel at K=16 by %.2e (estimate %.2e)"
                             % (rel, fd.rel_err))
    return {"fd_vs_bessel_rel": rel, "fd_rel_err_estimate": fd.rel_err}
