"""Depth-variable substitution: map accuracy, inverse, transformed problem."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    tm = sw.build_tau(p)
    ys = np.linspace(0.0, 15.0, 7)
    assert np.max(np.abs(tm.tau(ys) - ys / 2)) < 1e-14
    assert abs(tm.y_of(1.0) - 2.0) < 1e-12


def test_identity_for_unit_mu(exp_profile):
    tm = sw.build_tau(exp_profile)
    ys = np.linspace(0.0, 40.0, 11)
    assert np.max(np.abs(tm.tau(ys) - ys)) < 1e-13


def test_varying_mu_against_quadrature_oracle():
    # oracle computed first, independently, by high-order Gauss-Legendre
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    oracle = gl_integral(lambda y: 1.0 / (1.0 + np.exp(-y)), 0.0, 1.0)
    tm = sw.build_tau(p)
    assert abs(tm.tau(1.0) - oracle) < 1e-9


def test_fixed_endpoint_and_domain():
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    tm = sw.build_tau(p)
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


# a table whose y(tau) start misses by 1.2e-4 inside a piece: one
# Newton step from it leaves 3.7e-9 relative, two reach the last ulp
STEEP_TABLE = [
    [0.0, 4.796002201837628, 0.32217683120884744],
    [1.1610500675345623, 1.8382173535796051, 2.443908868638456],
    [3.0011234966716156, 2.6654087193775617, 1.325169940652123],
    [5.804239547675616, 2.6487443359209175, 2.138131466299065],
    [7.271425055250762, 0.6979820505456763, 1.504749966827686],
    [8.327470861291843, 0.9764016484117186, 1.6376868244332188]]


def bisect_tau(tm, taus):
    """Smallest float y with tm.tau(y) >= tau, by bisection on the forward map."""
    lo = np.zeros_like(taus)
    hi = tm.y_max + 1.0 + np.maximum(taus - tm.knots_tau[-1], 0.0) / tm.tail_slope
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return hi
        below = tm.tau(mid) < taus
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)


@pytest.mark.parametrize("name", ["exp", "layer", "table", "power", "mu_power",
                                  "stiff", "steep"])
def test_inverse_matches_bisection(name, exp_profile, power_profile):
    profile = {
        "exp": exp_profile,
        "layer": sw.from_registry("smoothed_layer", {
            "rho_1": 2.0, "mu_1": 0.7, "rho_s": 1.0, "mu_s": 1.0,
            "y_s": 2.0, "width": 1.0}),
        "table": sw.from_table([[0, 3, 0.6], [1, 2.5, 0.8], [2, 1.5, 0.9],
                                [4, 1, 1]]),
        "power": power_profile,
        "mu_power": sw.from_callables(rho_one, mu_power, 1.0, 1.0),
        "stiff": sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0),
        "steep": sw.from_table(STEEP_TABLE)}[name]
    tm = sw.build_tau(profile)
    kt = tm.knots_tau
    # knots, piece midpoints, 1e-12 either side of each knot, past the last
    taus = np.concatenate([kt, 0.5 * (kt[:-1] + kt[1:]), kt[1:] - 1e-12,
                           kt + 1e-12, kt[-1] * np.array([1.5, 4.0]),
                           kt[-1] + np.array([1.0, 1e3])])
    ref = bisect_tau(tm, taus)
    ulp = np.finfo(float).eps * np.maximum(1.0, ref)
    assert np.max(np.abs(tm.y_of(taus) - ref) / ulp) <= 4.0
    assert np.array_equal(tm.y_of(kt), tm.knots_y)
    one = tm.y_of(float(kt[len(kt) // 2]))
    assert type(one) is float and one == tm.knots_y[len(kt) // 2]


def test_transformed_coef_pair_rejects_negative_tau(layer_profile):
    med = sw.transform(layer_profile)
    with pytest.raises(DomainError):
        med.coef_pair(-1e-3)
    with pytest.raises(DomainError):
        med.coef_pair(np.array([0.5, -0.1, 2.0]))


def test_round_trip():
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    tm = sw.build_tau(p)
    rng = np.random.default_rng(1)
    ys = rng.uniform(0.0, 60.0, 100)
    back = tm.y_of(tm.tau(ys))
    assert np.max(np.abs(back - ys) / np.maximum(ys, 1e-10)) < 1e-10


def test_knots_strictly_increasing():
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    tm = sw.build_tau(p)
    assert np.all(np.diff(tm.knots_y) > 0)
    assert np.all(np.diff(tm.knots_tau) > 0)


def gamma_bar(med, K, Om, tau):
    """Standard-form coefficient Omega*p - K*q in tau."""
    p, q = med.coef_pair(tau)
    return Om * p - K * q


def test_transform_identity_and_constants(exp_profile):
    med = sw.transform(exp_profile)
    taus = np.linspace(0.0, 10.0, 21)
    gb = np.array([gamma_bar(med, 1.0, 0.5, float(t)) for t in taus])
    g = exp_profile.gamma((1.0, 0.5), taus)
    assert np.max(np.abs(gb - g)) < 1e-12   # mu = 1: identity substitution

    p2 = sw.from_registry("constant", {"rho": 1.0, "mu": 2.0})
    med2 = sw.transform(p2)
    assert abs(gamma_bar(med2, 1.0, 1.0, 0.7) - (-2.0)) < 1e-14

    assert abs(gamma_bar(med, 1.0, 0.5, 0.0) - 2.0) < 1e-13


def test_transform_limit():
    p = sw.from_registry("smoothed_layer", {"rho_1": 2.0, "mu_1": 0.7,
                                            "rho_s": 1.5, "mu_s": 1.2,
                                            "y_s": 2.0, "width": 1.0})
    med = sw.transform(p)
    K, Om = 3.0, 1.0
    expect = Om * p.mu_inf * p.rho_inf - K * p.mu_inf ** 2
    deep = float(med.taumap.tau(30.0))
    assert abs(gamma_bar(med, K, Om, deep) - expect) < 1e-10


def test_arg_preservation():
    p = sw.from_registry("smoothed_layer", {"rho_1": 2.0, "mu_1": 0.7,
                                            "rho_s": 1.0, "mu_s": 1.0,
                                            "y_s": 2.0, "width": 1.0})
    med = sw.transform(p)
    ys = np.linspace(0.01, 6.0, 23)
    taus = med.taumap.tau(ys)
    pp, qq = med.coef_pair(taus)
    assert np.max(np.abs(np.arctan2(qq, pp) - p.arg_a(ys))) < 1e-12


def test_assumption_preservation_integrability():
    # the transformed deviation passes the same doubling-window heuristic
    p = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0)
    med = sw.transform(p)
    K, Om = 2.0, 1.0
    ginf = Om * med.rho_inf - K * med.mu_inf

    def dev(tau):
        out = np.array([abs(gamma_bar(med, K, Om, float(t)) - ginf)
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


@st.composite
def table_maps(draw):
    """Tau map of a PCHIP table with 3-8 rows and a varying stiffness."""
    n = draw(st.integers(3, 8))
    gaps = draw(st.lists(st.floats(0.2, 3.0), min_size=n - 1, max_size=n - 1))
    rho = draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
    mu = draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n))
    assume(max(mu) - min(mu) > 0.1)
    ys = np.concatenate([[0.0], np.cumsum(gaps)])
    return sw.build_tau(sw.from_table(list(zip(ys, rho, mu))))


TAU_MAP_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@TAU_MAP_SETTINGS
@given(table_maps(), st.floats(0.0, 3.0))
def test_property_round_trip(tm, past):
    # depths inside the knots and up to three map lengths past y_max
    ys = np.concatenate([np.linspace(0.0, 4.0 * tm.y_max, 81),
                         [tm.y_max * (1.0 + past)]])
    back = tm.y_of(tm.tau(ys))
    assert np.max(np.abs(back - ys) / np.maximum(ys, 1e-10)) < 1e-10


@TAU_MAP_SETTINGS
@given(table_maps())
def test_property_inverse_increasing(tm):
    taus = np.linspace(0.0, 2.0 * tm.knots_tau[-1], 1001)
    assert np.all(np.diff(tm.y_of(taus)) > 0)


@TAU_MAP_SETTINGS
@given(table_maps())
def test_property_inverse_hits_knots(tm):
    # at a knot the start is exact and the Newton residual is zero
    assert np.array_equal(tm.y_of(tm.knots_tau), tm.knots_y)


@TAU_MAP_SETTINGS
@given(table_maps(), st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
def test_property_scalar_matches_array(tm, fractions):
    taus = np.asarray(fractions) * tm.knots_tau[-1]
    arr = tm.y_of(taus)
    for t, y in zip(taus, arr):
        one = tm.y_of(float(t))
        assert type(one) is float
        assert one == y
