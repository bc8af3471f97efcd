"""Depth-variable substitution: map accuracy, inverse, transformed problem."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import shwave as sw
from shwave.errors import DomainError
from tests.conftest import mu_exp_bump, rho_one


def gl_integral(f, a, b, n=60):
    x, w = leggauss(n)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * float(np.dot(w, f(mid + half * x)))


def test_constant_mu_two():
    p = sw.from_registry("constant", {"rho": 1.0, "mu": 2.0})
    tm = sw.build_tau(p, y_max=20.0)
    ys = np.linspace(0.0, 15.0, 7)
    assert np.max(np.abs(tm.tau(ys) - ys / 2)) < 1e-14
    assert abs(tm.y_of(1.0) - 2.0) < 1e-12


def test_identity_for_unit_mu(exp_profile):
    tm = sw.build_tau(exp_profile, y_max=30.0)
    ys = np.linspace(0.0, 40.0, 11)
    assert np.max(np.abs(tm.tau(ys) - ys)) < 1e-13


def test_varying_mu_against_quadrature_oracle():
    # oracle computed first, independently, by high-order Gauss-Legendre
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    oracle = gl_integral(lambda y: 1.0 / (1.0 + np.exp(-y)), 0.0, 1.0)
    tm = sw.build_tau(p, y_max=40.0)
    assert abs(tm.tau(1.0) - oracle) < 1e-9


def test_fixed_endpoint_and_domain():
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    tm = sw.build_tau(p, y_max=20.0)
    assert tm.tau(0.0) == 0.0
    assert tm.y_of(0.0) == 0.0
    with pytest.raises(DomainError):
        tm.y_of(-0.1)
    with pytest.raises(DomainError):
        tm.tau(-1.0)


def mu_power(y):
    out = 1.0 + 1.0 / (1.0 + np.asarray(y, dtype=float))
    return float(out) if out.ndim == 0 else out


def test_power_law_map_stays_small(power_profile):
    # effective_depth runs to its 2**20 cap on power laws; the map must
    # not tile that depth with fine panels
    tm = sw.build_tau(power_profile)
    assert tm.y_max > 1e6
    assert len(tm.knots_y) < 1000
    ys = np.concatenate([np.linspace(0.0, 300.0, 61), np.geomspace(300.0, 1e6, 61)])
    back = tm.y_of(tm.tau(ys))
    assert np.max(np.abs(back - ys) / np.maximum(ys, 1e-10)) < 1e-10
    # a stiffness that still varies deep down: tau = y - log(1 + y/2)
    tm = sw.build_tau(sw.from_callables(rho_one, mu_power, 1.0, 1.0))
    assert len(tm.knots_y) < 5000
    exact = ys - np.log1p(ys / 2.0)
    assert np.max(np.abs(tm.tau(ys) - exact) / np.maximum(exact, 1.0)) < 1e-10
    back = tm.y_of(tm.tau(ys))
    assert np.max(np.abs(back - ys) / np.maximum(ys, 1e-10)) < 1e-10


def test_round_trip():
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    tm = sw.build_tau(p, y_max=40.0)
    rng = np.random.default_rng(1)
    ys = rng.uniform(0.0, 60.0, 100)
    back = tm.y_of(tm.tau(ys))
    assert np.max(np.abs(back - ys) / np.maximum(ys, 1e-10)) < 1e-10


def test_knots_strictly_increasing():
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    tm = sw.build_tau(p, y_max=30.0)
    assert np.all(np.diff(tm.knots_y) > 0)
    assert np.all(np.diff(tm.knots_tau) > 0)


def test_transform_identity_and_constants(exp_profile):
    med = sw.transform(exp_profile)
    taus = np.linspace(0.0, 10.0, 21)
    gb = np.array([med.gamma_bar((1.0, 0.5), float(t)) for t in taus])
    g = exp_profile.gamma((1.0, 0.5), taus)
    assert np.max(np.abs(gb - g)) < 1e-12   # mu = 1: identity substitution

    p2 = sw.from_registry("constant", {"rho": 1.0, "mu": 2.0})
    med2 = sw.transform(p2)
    assert abs(med2.gamma_bar((1.0, 1.0), 0.7) - (-2.0)) < 1e-14

    assert abs(med.gamma_bar((1.0, 0.5), 0.0) - 2.0) < 1e-13


def test_transform_limit():
    p = sw.from_registry("smoothed_layer", {"rho_1": 2.0, "mu_1": 0.7,
                                            "rho_s": 1.5, "mu_s": 1.2,
                                            "y_s": 2.0, "width": 1.0})
    med = sw.transform(p)
    K, Om = 3.0, 1.0
    expect = Om * p.mu_inf * p.rho_inf - K * p.mu_inf ** 2
    deep = float(med.taumap.tau(30.0))
    assert abs(med.gamma_bar((K, Om), deep) - expect) < 1e-10


def test_arg_preservation():
    p = sw.from_registry("smoothed_layer", {"rho_1": 2.0, "mu_1": 0.7,
                                            "rho_s": 1.0, "mu_s": 1.0,
                                            "y_s": 2.0, "width": 1.0})
    med = sw.transform(p)
    ys = np.linspace(0.01, 6.0, 23)
    taus = med.taumap.tau(ys)
    assert np.max(np.abs(med.arg_a(taus) - p.arg_a(ys))) < 1e-12


def test_assumption_preservation_integrability():
    # the transformed deviation passes the same doubling-window heuristic
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    med = sw.transform(p)
    K, Om = 2.0, 1.0
    ginf = Om * med.rho_inf - K * med.mu_inf

    def dev(tau):
        out = np.array([abs(med.gamma_bar((K, Om), float(t)) - ginf)
                        for t in np.atleast_1d(tau)])
        return out

    a = 4.0
    windows = []
    for _ in range(5):
        ts = np.linspace(a, 2 * a, 257)
        windows.append(np.trapezoid(dev(ts), ts))
        a *= 2
    for j in range(len(windows) - 3):
        assert windows[j + 3] <= 0.5 * windows[j] + 1e-12


def test_tau_breakpoints_mapped():
    p = sw.from_registry("smoothed_layer", {"rho_1": 2.0, "mu_1": 0.7,
                                            "rho_s": 1.0, "mu_s": 1.0,
                                            "y_s": 2.0, "width": 1.0})
    med = sw.transform(p)
    assert len(med.breakpoints) == 2
    assert abs(med.breakpoints[0] - med.taumap.tau(1.0)) < 1e-12
    assert abs(med.breakpoints[1] - med.taumap.tau(2.0)) < 1e-12
