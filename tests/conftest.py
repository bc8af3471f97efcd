"""Shared fixtures and independent mini-oracles for the test suite."""

import math

import numpy as np
import pytest

import shwave as sw


def ones(y):
    """Constant-one coefficient accessor usable on scalars and arrays."""
    if isinstance(y, float):
        return 1.0
    return np.ones_like(np.asarray(y, dtype=float)) if np.ndim(y) else 1.0


def mu_exp_bump(y):
    y = np.asarray(y, dtype=float)
    out = 1.0 + np.exp(-y)
    return float(out) if out.ndim == 0 else out


def rho_one(y):
    return ones(y)


def sampled_sweep(problem, K, Omega, phi0, y0, y1, n=128):
    """(ys, phi, log_r) of one point (K, Omega) swept from y0 to y1.

    Member j of the ``sweep_phase`` batch reads depth ys[j] of n evenly
    spaced depths, so one sweep samples the whole trajectory.
    """
    from shwave.propagate import sweep_phase

    ys = np.linspace(y0, y1, n)
    phi, log_r = sweep_phase(problem, K, np.full(n, Omega), phi0, y0, ys,
                             want_log_r=True)
    return ys, phi, log_r


@pytest.fixture(scope="session")
def exp_profile():
    """rho = 1 + 5 exp(-y), mu = 1."""
    return sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": 5.0, "d": 1.0})


@pytest.fixture(scope="session")
def shallow_profile():
    """rho = 1 - 0.5 exp(-y), mu = 1: globally negative monotonicity."""
    return sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": -0.5, "d": 1.0})


@pytest.fixture(scope="session")
def stiff_profile():
    """rho = 1, mu = 1 + exp(-y): globally negative monotonicity."""
    return sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)


@pytest.fixture(scope="session")
def constant_profile():
    return sw.from_registry("constant", {"rho": 1.0, "mu": 1.0})


@pytest.fixture(scope="session")
def power_profile():
    """rho = 1 + 3 (1+y)^{-3/2}, mu = 1: oscillatory limit-ray equation."""
    return sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 1.5})


@pytest.fixture(scope="session")
def layer_profile():
    """Soft layer over a homogeneous substrate, constant beyond y = 2."""
    return sw.from_registry("smoothed_layer", {
        "rho_1": 2.5, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0,
        "y_s": 2.0, "width": 1.0})


def rk4_uw(gamma, mu, u0, w0, y0, y1, n=200000, renormalize=False):
    """Fixed-step classical RK4 on the first-order system (u, w).

    u' = w/mu, w' = -gamma*u.

    Returns the trajectory (us, ws), sampled at the n + 1 grid depths
    from y0 to y1 (y1 < y0 steps backward).  ``gamma`` and ``mu`` are
    called on arrays, once at the grid depths and once at the interval
    midpoints.  With ``renormalize``, (u, w) is scaled to unit length
    after every step; the angle only depends on its direction.

    Independent of the package's integrators on purpose: this is the
    dual-formulation oracle for the phase solvers.
    """
    ys = np.linspace(y0, y1, n + 1)
    h = (y1 - y0) / n
    hh, h6 = h / 2, h / 6
    mids = ys[:-1] + hh
    g, gm = gamma(ys).tolist(), gamma(mids).tolist()
    m, mm = mu(ys).tolist(), mu(mids).tolist()
    u, w = float(u0), float(w0)
    us, ws = [u], [w]
    for g0, g_mid, g1, m0, m_mid, m1 in zip(g, gm, g[1:], m, mm, m[1:]):
        k1u, k1w = w / m0, -g0 * u
        k2u, k2w = (w + hh * k1w) / m_mid, -g_mid * (u + hh * k1u)
        k3u, k3w = (w + hh * k2w) / m_mid, -g_mid * (u + hh * k2u)
        k4u, k4w = (w + h * k3w) / m1, -g1 * (u + h * k3u)
        u += h6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        w += h6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        if renormalize:
            s = math.hypot(u, w)
            u, w = u / s, w / s
        us.append(u)
        ws.append(w)
    return np.array(us), np.array(ws)


def lift_from_samples(u, w, phi0):
    """Continuous angle lift of sampled (w, u), pinned to phi0 at the start."""
    raw = np.unwrap(np.arctan2(u, w))
    return raw + (phi0 - raw[0])
