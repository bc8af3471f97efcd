"""End-to-end edge cases: sampled tables in the solver, engine corners."""

import math

import numpy as np
import pytest

import shwave as sw
from shwave.dispersion import SearchOptions
from shwave.prufer import HALF_PI, IntegratorSettings, integrate_phase, phase_batch
from shwave.propagate import sweep_phase
from tests.conftest import ones


def test_sampled_table_reproduces_analytic_modes(exp_profile):
    # tabulate the exponential profile and solve the table instead;
    # counts must match and frequencies agree to the interpolation level
    ys = np.linspace(0.0, 22.0, 221)
    rho = 1.0 + 5.0 * np.exp(-ys)
    rho[-1] = 1.0
    rows = [(float(y), float(r), 1.0) for y, r in zip(ys, rho)]
    table = sw.from_table(rows, rho_inf=1.0, mu_inf=1.0)
    opts = SearchOptions(omega_grid_n=64,
                         settings=IntegratorSettings(rel_tol=1e-8, abs_tol=1e-10),
                         root_tol=1e-8, residual_tol=1e-3)
    res_t = sw.find_modes(table, 1.0, opts)
    res_a = sw.find_modes(exp_profile, 1.0, opts)
    assert len(res_t.modes) == len(res_a.modes)
    for a, b in zip(res_t.modes, res_a.modes):
        assert abs(a.Omega - b.Omega) / b.Omega < 2e-3


def test_find_modes_deterministic(exp_profile):
    r1 = sw.find_modes(exp_profile, 4.0)
    r2 = sw.find_modes(exp_profile, 4.0)
    assert [m.Omega for m in r1.modes] == [m.Omega for m in r2.modes]
    assert [m.residual for m in r1.modes] == [m.residual for m in r2.modes]


def test_param_point_validation():
    with pytest.raises(sw.errors.ProfileError):
        sw.ParamPoint(-1.0, 1.0)
    with pytest.raises(sw.errors.ProfileError):
        sw.ParamPoint(1.0, 0.0)


def test_sweep_reads_beyond_target_extend():
    # a read past the nominal end extends the sweep to reach it
    phi, _ = sweep_phase(lambda y: np.array([1.0, 1.0]), lambda y: 1.0,
                         np.array([HALF_PI, HALF_PI]), 0.0, 2.0,
                         read_at=np.array([2.0, 5.0]))
    assert abs(phi[0] - (HALF_PI + 2.0)) < 1e-9
    assert abs(phi[1] - (HALF_PI + 5.0)) < 1e-9


def test_sweep_backward_reads():
    phi, _ = sweep_phase(lambda y: np.array([-1.0]), lambda y: 1.0,
                         np.array([3 * math.pi / 4]), 6.0, 1.0,
                         read_at=np.array([1.0]))
    assert abs(phi[0] - 3 * math.pi / 4) < 1e-10   # stationary angle


def test_sweep_zero_span_read_at_start():
    phi, _ = sweep_phase(lambda y: np.array([2.0]), lambda y: 1.0,
                         np.array([0.3]), 1.0, 1.0, read_at=np.array([1.0]))
    assert phi[0] == 0.3


def test_phase_batch_log_r_consistency(exp_profile):
    # the batch engine and the scalar integrator agree on the angle and,
    # with want_log_r, on the log-amplitude; (16, 10) at y=4 ends on a
    # nearly degenerate hyperbolic step
    for A in ((1.0, 0.5), (16.0, 10.0)):
        gam = lambda y: np.atleast_1d(exp_profile.gamma(A, y))
        for y_end in (4.0, 6.0, 9.0, 12.0):
            st = sw.surface_phase(exp_profile, A, y_end)
            pb = phase_batch(gam, exp_profile.stiffness, [HALF_PI], 0.0, y_end)
            assert abs(pb[0] - st.phi) < 1e-7
            phi, log_r = sweep_phase(gam, lambda y: 1.0 / exp_profile.stiffness(y),
                                     np.array([HALF_PI]), 0.0, y_end,
                                     want_log_r=True)
            assert abs(phi[0] - st.phi) < 1e-7
            assert abs(log_r[0] - st.log_r) < 1e-7


def test_breakpoints_force_landings():
    # a coefficient with a hidden kink is integrated exactly when the
    # kink is declared, and the declared path differs from the blind one
    def rho(y):
        yy = np.asarray(y, dtype=float)
        out = np.where(yy < 3.0, 2.0, 1.0 + np.exp(-(yy - 3.0) * 4.0))
        return float(out) if out.ndim == 0 else out

    blind = sw.from_callables(rho, ones, 1.0, 1.0)
    declared = sw.from_callables(rho, ones, 1.0, 1.0, breakpoints=(3.0,))
    A = (2.0, 1.5)

    def gv(p):
        def g(y, _p=p):
            r, m = _p.coef_pair(y)
            return np.atleast_1d(1.5 * r - 2.0 * m)
        return g

    ref = integrate_phase(lambda y: float(gv(declared)(y)[0]), ones,
                          HALF_PI, 0.0, 6.0,
                          settings=IntegratorSettings(rel_tol=1e-12,
                                                      abs_tol=1e-14))
    got = phase_batch(gv(declared), ones, [HALF_PI], 0.0, 6.0,
                      breakpoints=declared.breakpoints)
    assert abs(got[0] - ref.phi) < 1e-7


def test_mode_search_result_iteration(exp_profile):
    res = sw.find_modes(exp_profile, 1.0)
    assert len(res) == len(res.modes)
    assert [m.m for m in res] == [m.m for m in res.modes]


def test_branch_gap_bookkeeping():
    # synthetic check of the gap accounting using the public API surface
    from shwave.dispersion import Branch

    b = Branch(m=2, points=((2.0, 3.1), (4.0, 6.0)), gaps=(3.0,))
    assert b.gaps == (3.0,)
    assert b.points[0][0] < b.points[1][0]
