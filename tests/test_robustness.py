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
    for K, Omega in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                     (1.0, math.nan)):
        with pytest.raises(sw.errors.ProfileError, match="finite"):
            sw.ParamPoint(K, Omega)


def test_sweep_reads_beyond_target_extend(constant_profile):
    # the farthest read ends the sweep, and a nearer one is read on the
    # way; gamma = 2 - 1 = 1, mu = 1
    phi, _ = sweep_phase(constant_profile, 1.0, np.array([2.0, 2.0]),
                         np.array([HALF_PI, HALF_PI]), 0.0,
                         np.array([2.0, 5.0]))
    assert abs(phi[0] - (HALF_PI + 2.0)) < 1e-9
    assert abs(phi[1] - (HALF_PI + 5.0)) < 1e-9


def test_sweep_backward_reads(constant_profile):
    # gamma = 1 - 2 = -1, mu = 1
    phi, _ = sweep_phase(constant_profile, 2.0, np.array([1.0]),
                         np.array([3 * math.pi / 4]), 6.0, np.array([1.0]))
    assert abs(phi[0] - 3 * math.pi / 4) < 1e-10   # stationary angle


def test_sweep_zero_span_read_at_start(constant_profile):
    # gamma = 3 - 1 = 2, mu = 1
    phi, _ = sweep_phase(constant_profile, 1.0, np.array([3.0]),
                         np.array([0.3]), 1.0, np.array([1.0]))
    assert phi[0] == 0.3


def test_sweep_rejects_reads_behind_start(constant_profile):
    # gamma = mu = 1; the reads set the direction of the sweep, so a
    # read behind the start is one on the other side of the rest
    for reads in ([1.0, 4.0], [4.0, 1.0], [2.0, 4.0, 1.0]):
        with pytest.raises(ValueError, match="both sides of the sweep start"):
            sweep_phase(constant_profile, 1.0, np.full(len(reads), 2.0),
                        np.ones(len(reads)), 2.0, np.array(reads))


def test_sweep_one_coef_call_per_attempt(exp_profile, monkeypatch):
    # each step attempt evaluates the coefficients of the whole batch
    # once, on its 10 depths, and the stiffness once, on its 9 Gauss
    # nodes; one more call of each picks the initial step
    import shwave.propagate as propagate

    class Counting:
        breakpoints = ()

        def __init__(self):
            self.sizes, self.stiffness_sizes = [], []

        def coef_pair(self, y):
            self.sizes.append(np.size(y))
            return exp_profile.coef_pair(y)

        def stiffness(self, y):
            self.stiffness_sizes.append(np.size(y))
            return exp_profile.stiffness(y)

    attempts = []
    step = propagate._frozen_step

    def counted(*args):
        attempts.append(1)
        return step(*args)

    monkeypatch.setattr(propagate, "_frozen_step", counted)
    prof = Counting()
    sweep_phase(prof, 4.0, np.linspace(1.0, 3.5, 8), np.full(8, HALF_PI),
                0.0, 9.0)
    assert len(attempts) > 10
    assert len(prof.sizes) == len(attempts) + 1
    assert prof.sizes[1:] == [10] * len(attempts)
    assert prof.stiffness_sizes == [1] + [9] * len(attempts)


def test_sweep_identical_members_swept_once(exp_profile, monkeypatch):
    # members that differ only in their read depth share one trajectory:
    # the steps carry two rows until the 0.4 row's last read (5.85), then
    # the 0.7 row alone, and each member reads what a sweep of its own
    # point alone reads at its depth
    import shwave.propagate as propagate

    rows = []
    step = propagate._frozen_step

    def counted(*args):
        rows.append(args[4].size)
        return step(*args)

    monkeypatch.setattr(propagate, "_frozen_step", counted)
    reads = np.linspace(0.0, 6.0, 40)
    omegas = np.where(np.arange(40) % 2, 0.7, 0.4)
    phi, log_r = sweep_phase(exp_profile, 1.0, omegas, HALF_PI, 0.0, reads,
                             want_log_r=True)
    assert set(rows) == {1, 2} and rows == sorted(rows, reverse=True)
    for om in (0.4, 0.7):
        sel = omegas == om
        phi1, log_r1 = sweep_phase(exp_profile, 1.0, omegas[sel], HALF_PI,
                                   0.0, reads[sel], want_log_r=True)
        assert np.max(np.abs(phi[sel] - phi1)) < 1e-10
        assert np.max(np.abs(log_r[sel] - log_r1)) < 1e-8


def test_sweep_lanes_match_separate_sweeps(monkeypatch):
    # one call holds three lanes: a forward lane from the surface, a
    # backward lane from y = 6 and a lane from y = 0.5 that crosses both
    # breakpoints of the layer (1 and 2); each member gets bit for bit
    # what a sweep of its own lane alone gives, log r included, in any
    # order of the members, and every attempt advances all unfinished
    # lanes
    import shwave.propagate as propagate

    layer = sw.from_registry("smoothed_layer", {
        "rho_1": 2.5, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0, "y_s": 2.0,
        "width": 1.0})
    assert layer.breakpoints == (1.0, 2.0)
    lanes = [  # K, Omega, phi0, y0, reads
        (4.0, [5.0, 8.0, 5.0], HALF_PI, 0.0, [0.4, 0.9, 0.7]),
        (9.0, [3.0, 4.0], [2.0, 2.5], 6.0, [3.0, 4.5]),
        (1.0, [1.5, 2.0], 0.8, 0.5, [2.5, 1.5]),
    ]
    attempts = []
    step = propagate._frozen_step

    def counted(*args):
        attempts.append(len(args[2]))
        return step(*args)

    monkeypatch.setattr(propagate, "_frozen_step", counted)
    alone = []
    for K, om, phi0, y0, reads in lanes:
        del attempts[:]
        alone.append(sweep_phase(layer, K, om, phi0, y0, reads,
                                 want_log_r=True) + (len(attempts),))
    cols = [np.concatenate([np.broadcast_to(np.asarray(lane[i], dtype=float),
                                            np.shape(lane[1]))
                            for lane in lanes]) for i in range(5)]
    del attempts[:]
    phi, log_r = sweep_phase(layer, *cols, want_log_r=True)
    assert attempts[0] == 3 and len(attempts) == max(n for *_, n in alone)
    phi1, log_r1 = (np.concatenate([a[i] for a in alone]) for i in (0, 1))
    assert np.array_equal(phi, phi1) and np.array_equal(log_r, log_r1)
    # the same members shuffled: lanes interleaved, the deepest start first
    order = [3, 0, 5, 4, 1, 6, 2]
    phi, log_r = sweep_phase(layer, *(c[order] for c in cols), want_log_r=True)
    assert np.array_equal(phi, phi1[order])
    assert np.array_equal(log_r, log_r1[order])


def test_phase_batch_log_r_consistency(exp_profile):
    # the batch engine and the scalar integrator agree on the angle and,
    # with want_log_r, on the log-amplitude; (16, 10) at y=4 ends on a
    # nearly degenerate hyperbolic step
    for A in ((1.0, 0.5), (16.0, 10.0)):
        for y_end in (4.0, 6.0, 9.0, 12.0):
            st = integrate_phase(lambda y: exp_profile.gamma(A, y),
                                 exp_profile.stiffness, HALF_PI, 0.0, y_end)
            pb = phase_batch(exp_profile, A[0], [A[1]], [HALF_PI], 0.0, y_end)
            assert abs(pb[0] - st.phi) < 1e-7
            phi, log_r = sweep_phase(exp_profile, A[0], [A[1]],
                                     np.array([HALF_PI]), 0.0, y_end,
                                     want_log_r=True)
            assert abs(phi[0] - st.phi) < 1e-7
            assert abs(log_r[0] - st.log_r) < 1e-7


def test_sweep_log_r_at_reads(constant_profile):
    # gamma = 1 - 2 = -1, mu = 1: u = cosh y, w = sinh y, so each
    # member's log r at its own read depth is log cosh(2y) / 2
    reads = np.array([1.0, 2.0, 3.0])
    _, log_r = sweep_phase(constant_profile, 2.0, np.ones(3),
                           np.full(3, HALF_PI), 0.0, reads, want_log_r=True)
    assert np.max(np.abs(log_r - 0.5 * np.log(np.cosh(2.0 * reads)))) < 1e-9


class _Straddles:
    """A profile wrapper counting coef_pair calls whose depths straddle y_k."""

    def __init__(self, profile, y_k):
        self.profile, self.y_k, self.count = profile, y_k, 0
        self.breakpoints = profile.breakpoints

    def coef_pair(self, y):
        y = np.atleast_1d(y)
        self.count += int(np.min(y) < self.y_k < np.max(y))
        return self.profile.coef_pair(y if y.size > 1 else float(y[0]))

    def stiffness(self, y):
        return self.profile.stiffness(y)


def _kinked_rho(y_k, rate):
    """rho = 2 for y < y_k, then 1 + exp(-rate (y - y_k)): a kink at y_k."""
    def rho(y):
        yy = np.asarray(y, dtype=float)
        out = np.where(yy < y_k, 2.0, 1.0 + np.exp(-(yy - y_k) * rate))
        return float(out) if out.ndim == 0 else out
    return rho


def test_breakpoints_force_landings():
    # a coefficient with a hidden kink off the natural step grid: the
    # blind sweep samples across it, the declared one never does and
    # lands on the exact solution
    y_k = 2.93
    rho = _kinked_rho(y_k, 4.0)
    blind = _Straddles(sw.from_callables(rho, ones, 1.0, 1.0), y_k)
    declared = _Straddles(sw.from_callables(rho, ones, 1.0, 1.0,
                                            breakpoints=(y_k,)), y_k)
    A = (2.0, 1.5)
    ref = integrate_phase(lambda y: declared.profile.gamma(A, y), ones,
                          HALF_PI, 0.0, 6.0,
                          settings=IntegratorSettings(rel_tol=1e-12,
                                                      abs_tol=1e-14))
    got = phase_batch(declared, A[0], [A[1]], [HALF_PI], 0.0, 6.0)
    assert declared.count == 0
    assert abs(got[0] - ref.phi) < 1e-7
    phase_batch(blind, A[0], [A[1]], [HALF_PI], 0.0, 6.0)
    assert blind.count > 0


@pytest.mark.parametrize("rate", [4.0, 40.0])
@pytest.mark.parametrize("y_k", [0.77, 1.37, 2.93, 4.41])
def test_undeclared_kink_accuracy(y_k, rate):
    # the kink of test_breakpoints_force_landings, not declared: the
    # endpoint guard must keep the blind sweep accurate wherever the
    # kink falls between the Gauss nodes of a step
    profile = sw.from_callables(_kinked_rho(y_k, rate), ones, 1.0, 1.0)
    A = (2.0, 1.5)
    ref = integrate_phase(lambda y: profile.gamma(A, y), ones, HALF_PI, 0.0,
                          6.0, settings=IntegratorSettings(rel_tol=1e-12,
                                                           abs_tol=1e-14))
    got = phase_batch(profile, A[0], [A[1]], [HALF_PI], 0.0, 6.0)
    assert abs(got[0] - ref.phi) < 2e-7


def _constant_pieces_phi(phi, pieces):
    """Lifted angle after constant (gamma = k^2, mu = 1) pieces (k, length).

    With u = sin(theta), w = k cos(theta) the angle is atan2(sin theta,
    k cos theta), which meets the multiples of pi where theta does.
    """
    for k, length in pieces:
        n = math.floor(phi / math.pi)
        theta = n * math.pi + math.atan2(k * math.sin(phi - n * math.pi),
                                         math.cos(phi - n * math.pi)) + k * length
        n = math.floor(theta / math.pi)
        phi = n * math.pi + math.atan2(math.sin(theta - n * math.pi),
                                       k * math.cos(theta - n * math.pi))
    return phi


def test_step_landing_on_declared_jump(monkeypatch):
    # rho jumps from 2.5 to 2 at a declared breakpoint: the step that
    # lands there must judge its end by its own side of the jump, so the
    # endpoint guard does not shrink it toward the breakpoint
    import shwave.propagate as propagate

    def rho(y):
        out = np.where(np.asarray(y, dtype=float) < 2.0, 2.5, 2.0)
        return float(out) if out.ndim == 0 else out

    attempts = []
    step = propagate._frozen_step

    def counted(*args):
        attempts.append(1)
        return step(*args)

    monkeypatch.setattr(propagate, "_frozen_step", counted)
    profile = sw.from_callables(rho, ones, 2.0, 1.0, breakpoints=(2.0,))
    phi, _ = sweep_phase(profile, 2.0, [1.5], HALF_PI, 0.0, 6.0)
    # gamma = 1.5 rho - 2: 1.75 for y < 2, then 1 (expected 8.0912941295572)
    expected = _constant_pieces_phi(HALF_PI, [(math.sqrt(1.75), 2.0), (1.0, 4.0)])
    assert len(attempts) <= 5
    assert abs(phi[0] - expected) < 1e-10


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
