"""Phase integration: closed forms, dual-formulation oracles, invariants."""

import math

import numpy as np
import pytest

import shwave as sw
from shwave.errors import IntegrationError
from shwave.propagate import sweep_phase
from shwave.prufer import (HALF_PI, IntegratorSettings, integrate_phase,
                           phase_batch)
from tests.conftest import lift_from_samples, ones, rk4_uw, sampled_sweep


def _surface(problem, A, y_end):
    """(phi, log r) at y_end of the solution launched from the
    traction-free surface: phi = pi/2 and r = 1 at y = 0."""
    phi, log_r = sweep_phase(problem, A[0], A[1], HALF_PI, 0.0, y_end,
                             want_log_r=True)
    return phi[0], log_r[0]


def test_linear_phase():
    st = integrate_phase(ones, ones, HALF_PI, 0.0, 3.0)
    assert abs(st.phi - (HALF_PI + 3.0)) < 1e-10


def test_stationary_point_backward():
    neg = lambda y: -ones(y)
    st = integrate_phase(neg, ones, 3 * math.pi / 4, 5.0, 0.0)
    assert abs(st.phi - 3 * math.pi / 4) < 1e-12


def test_constant_coefficient_cosine_oracle():
    # oracle: u'' + 4u = 0, u(0)=1, u'(0)=0 -> u = cos 2y; lift computed
    # from the closed form first
    ys = np.linspace(0.0, 1.0, 200001)
    u = np.cos(2 * ys)
    w = -2 * np.sin(2 * ys)
    expected = lift_from_samples(u, w, HALF_PI)[-1]
    st = integrate_phase(lambda y: 4.0 * ones(y), ones, HALF_PI, 0.0, 1.0)
    assert abs(st.phi - expected) < 1e-9


def test_surface_phase_quadrant_invariance(constant_profile):
    phi, _ = _surface(constant_profile, (4.0, 1.0), 6.0)
    assert 0.0 < phi < HALF_PI


def test_surface_phase_linear(constant_profile):
    # gamma = 1, mu = 1 at A=(1,2): phase speed is exactly one and the
    # amplitude stays 1, since (log r)' = (1/mu - gamma) sin(phi) cos(phi)
    phi, log_r = _surface(constant_profile, (1.0, 2.0), math.pi)
    assert abs(phi - 3 * math.pi / 2) < 1e-9
    assert abs(log_r) < 1e-9


def test_surface_phase_dual_formulation_oracle(exp_profile):
    A = (1.0, 0.9)
    y_end = 10.0
    phi, _ = _surface(exp_profile, A, y_end)
    # independent fixed-step RK4 on (u, w), sampled for the lift
    us, ws = rk4_uw(lambda y: exp_profile.gamma(A, y), ones, 1.0, 0.0,
                    0.0, y_end, n=400000)
    expected = lift_from_samples(us, ws, HALF_PI)[-1]
    assert abs(phi - expected) < 1e-7


def test_phase_batch_matches_scalar(exp_profile):
    A_list = [(1.0, 0.4), (1.0, 0.7), (4.0, 2.0)]
    omegas = np.array([a[1] for a in A_list])
    batch = phase_batch(exp_profile, np.array([1.0, 1.0, 4.0]), omegas,
                        np.full(3, HALF_PI), 0.0, 6.0)
    for j, (K, Om) in enumerate(A_list):
        # the scalar Runge-Kutta integration of the same coefficients
        st = integrate_phase(lambda y: exp_profile.gamma((K, Om), y),
                             exp_profile.stiffness, HALF_PI, 0.0, 6.0)
        assert abs(batch[j] - st.phi) < 5e-8


def test_phase_batch_read_at(exp_profile):
    omegas = np.array([0.4, 0.7])
    reads = np.array([2.0, 5.0])
    vals = phase_batch(exp_profile, 1.0, omegas, np.full(2, HALF_PI),
                       0.0, reads)
    for j, (om, r) in enumerate(zip(omegas, reads)):
        st = integrate_phase(lambda y: exp_profile.gamma((1.0, om), y),
                             exp_profile.stiffness, HALF_PI, 0.0, float(r))
        assert abs(vals[j] - st.phi) < 5e-8


def test_propagator_vs_rk_engines_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        K = rng.uniform(0.5, 50)
        Om = rng.uniform(0.3, 1.2) * K
        q = rng.uniform(0.5, 8.0)
        d = rng.uniform(0.4, 2.0)

        def gam(y):
            return Om * (1 + q * np.exp(-np.asarray(y, dtype=float) / d)) - K

        # the same gamma from rho = 1 + q exp(-y/d), mu = 1
        prof = sw.from_registry("exp_density",
                                {"rho_inf": 1.0, "drho": q, "d": d})
        y1 = rng.uniform(0.5, 10.0)
        st = integrate_phase(gam, ones, HALF_PI, 0.0, y1)
        pb = phase_batch(prof, K, [Om], [HALF_PI], 0.0, y1)
        assert abs(st.phi - pb[0]) < 2e-7


def test_propagator_constant_coefficient_exact(constant_profile):
    g = 4000.0                    # = Omega - K with rho = mu = 1
    om = math.sqrt(g)
    ys = np.linspace(0.0, 5.43, 4000001)
    u = np.cos(om * ys)
    w = -om * np.sin(om * ys)
    truth = lift_from_samples(u, w, HALF_PI)[-1]
    pb = phase_batch(constant_profile, 1.0, [g + 1.0], [HALF_PI], 0.0, 5.43)
    assert abs(pb[0] - truth) < 1e-9


def test_monotone_where_gamma_nonnegative(exp_profile):
    # phase is nondecreasing wherever gamma >= 0 along the trajectory
    A = (1.0, 0.8)
    ys, phis, _ = sampled_sweep(exp_profile, *A, HALF_PI, 0.0, 8.0)
    g = exp_profile.gamma(A, ys)
    inc = np.diff(phis)
    both_nonneg = (g[:-1] >= 0) & (g[1:] >= 0)
    assert np.all(inc[both_nonneg] >= -1e-9)


def test_barrier_no_downward_pi_crossing(exp_profile):
    A = (4.0, 3.0)
    ys, phis, _ = sampled_sweep(exp_profile, *A, HALF_PI, 0.0, 12.0)
    run_max_band = np.maximum.accumulate(np.floor(phis / math.pi))
    assert np.all(phis >= math.pi * run_max_band - 1e-8)


def test_uw_nondecreasing_where_gamma_nonpositive(exp_profile):
    A = (1.0, 0.3)
    ys, phis, logr = sampled_sweep(exp_profile, *A, HALF_PI, 0.0, 9.0)
    uw = np.exp(2 * logr) * 0.5 * np.sin(2 * phis)
    g = exp_profile.gamma(A, ys)
    both_nonpos = (g[:-1] <= 0) & (g[1:] <= 0)
    duw = np.diff(uw)
    scale = 1e-8 * (1.0 + np.abs(uw[:-1]))
    assert np.all(duw[both_nonpos] >= -scale[both_nonpos])


def test_prufer_agrees_with_uw_system(exp_profile):
    # forward integration of the raw first-order system gives the same
    # lift as the direct phase equation
    A = (1.0, 0.6)
    us, ws = rk4_uw(lambda y: exp_profile.gamma(A, y), ones, 1.0, 0.0,
                    0.0, 6.0, n=200000)
    expected = lift_from_samples(us, ws, HALF_PI)[-1]
    phi, _ = _surface(exp_profile, A, 6.0)
    assert abs(phi - expected) < 1e-8


def test_integration_failure_carries_state():
    def bad(y):
        return float("nan") if y > 1.0 else 1.0

    with pytest.raises(IntegrationError) as exc:
        integrate_phase(bad, ones, HALF_PI, 0.0, 3.0)
    assert exc.value.last_state is not None
    assert exc.value.last_state.y <= 1.0 + 1e-6


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(rel_tol=-1.0)


def test_mode_shape_normalization_and_decay(exp_profile):
    res = sw.find_modes(exp_profile, 1.0)
    mode = res.modes[0]
    ys = np.linspace(0.0, 25.0, 400)
    u = sw.reconstruct_mode_shape(exp_profile, mode, ys)
    assert abs(u[0] - 1.0) < 1e-9
    assert np.max(np.abs(u)) < 10.0
    assert abs(u[-1]) < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_mode_shape_rejects_bad_depths(exp_profile, bad):
    mode = sw.find_modes(exp_profile, 1.0).modes[0]
    with pytest.raises(sw.errors.DomainError, match="finite and non-negative"):
        sw.reconstruct_mode_shape(exp_profile, mode, [bad, 0.5])


@pytest.mark.parametrize("y0, read", [(0.0, math.nan), (0.0, math.inf),
                                      (math.nan, 1.0), (math.inf, 1.0)])
def test_sweep_rejects_nonfinite_depths(constant_profile, y0, read):
    with pytest.raises(ValueError, match="must be finite"):
        sweep_phase(constant_profile, 1.0, np.array([2.0, 2.0]), HALF_PI,
                    y0, np.array([read, 1.0]))


def test_mode_shape_sweep_count(exp_profile, monkeypatch):
    # the surface sweep, the decaying sweep and its tail check share one
    # sweep_phase call, however many depths the grid has
    import shwave.propagate as propagate

    mode = sw.find_modes(exp_profile, 1.0).modes[0]
    calls = []
    sweep = propagate.sweep_phase

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(propagate, "sweep_phase", counted)
    sw.reconstruct_mode_shape(exp_profile, mode, np.linspace(0.0, 30.0, 300))
    assert len(calls) == 1


def test_mode_shape_sign_change_count(exp_profile):
    res = sw.find_modes(exp_profile, 4.0)
    for mode in res.modes:
        ys = np.linspace(0.0, mode.matching.y_tail, 4000)
        u = sw.reconstruct_mode_shape(exp_profile, mode, ys)
        signs = np.sign(u[np.abs(u) > 1e-9])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == int(math.floor(mode.phi_surface / math.pi))
        assert changes == mode.m - 1


def test_mode_shape_against_bessel_oracle(exp_profile):
    from shwave.oracle import bessel_mode_shape

    res = sw.find_modes(exp_profile, 1.0)
    mode = res.modes[0]
    ys = np.linspace(0.0, 12.0, 200)
    u = sw.reconstruct_mode_shape(exp_profile, mode, ys)
    u_oracle = bessel_mode_shape(5.0, 1.0, 1.0, mode.Omega, ys)
    assert np.max(np.abs(u - u_oracle)) < 1e-5


@pytest.fixture(scope="module")
def exp_k16_shapes(exp_profile):
    """(u, Bessel u) of every exp K=16 mode on a 200-depth grid."""
    from shwave.oracle import bessel_mode_shape

    ys = np.linspace(0.0, 12.0, 200)
    return [(sw.reconstruct_mode_shape(exp_profile, mode, ys),
             bessel_mode_shape(5.0, 1.0, 16.0, mode.Omega, ys))
            for mode in sw.find_modes(exp_profile, 16.0).modes]


@pytest.mark.parametrize("m", range(1, 7))
def test_high_mode_shapes_against_bessel_oracle(exp_k16_shapes, m):
    # every mode of exp K=16, gated like the benchmark's shape checks
    assert len(exp_k16_shapes) == 6
    u, u_oracle = exp_k16_shapes[m - 1]
    assert np.max(np.abs(u - u_oracle)) <= 1e-6 * np.max(np.abs(u_oracle))


def test_high_mode_shapes_tight_bessel(exp_k16_shapes):
    # at the default tolerances every exp K=16 shape, log amplitude
    # included, stays well inside the oracle's own accuracy
    for u, u_oracle in exp_k16_shapes:
        assert np.max(np.abs(u - u_oracle)) <= 1.5e-8 * np.max(np.abs(u_oracle))
