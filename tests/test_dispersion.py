"""Mode search, branch tracing, count estimate, oscillation verdicts."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shwave as sw
from shwave import dispersion, liouville
from shwave.decay import decaying_phase_batch, matching_config
from shwave.dispersion import DEFAULT_OPTIONS, SearchOptions
from shwave.prufer import IntegratorSettings

FIXTURES = Path(__file__).parent / "fixtures"


def _mismatch(problem, K, Omega, cfg=None, settings=IntegratorSettings()):
    """Phi(Omega) of one point, in its own matching window unless ``cfg``
    is given."""
    cfg = cfg or matching_config(problem, (K, Omega))
    return float(dispersion._mismatch_batch(problem, K, [Omega], cfg,
                                            settings)[0][0])


@pytest.fixture(scope="module")
def bessel_fixture():
    return json.loads((FIXTURES / "bessel_exp_q5_d1_K1.json").read_text())


def test_mismatch_constant_medium(constant_profile):
    # no modes in a constant half-space: the surface angle stays in the
    # first quadrant while the decay angle sits in the second
    cfg = matching_config(constant_profile, (4.0, 1.0))
    phi = _mismatch(constant_profile, 4.0, 1.0, cfg=cfg)
    assert -3 * math.pi / 4 < phi < -math.pi / 4
    assert abs(phi / math.pi - round(phi / math.pi)) > 0.2


def test_mismatch_vanishes_at_oracle_root(exp_profile, bessel_fixture):
    om = bessel_fixture["omegas"][0]
    phi = _mismatch(exp_profile, 1.0, om,
                    settings=IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14))
    assert abs(phi - round(phi / math.pi) * math.pi) < 1e-9


def test_mismatch_batch_one_sweep(exp_profile, monkeypatch):
    # the surface sweep, the decaying sweep and the tail check of two K,
    # each in its own window, share one sweep_phase call when the check
    # passes
    import shwave.propagate as propagate

    cfgs = [matching_config(exp_profile, (K, 0.9 * K)) for K in (1.0, 4.0)]
    calls = []
    sweep = propagate.sweep_phase

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(propagate, "sweep_phase", counted)
    phi, _, _, windows = dispersion._mismatch_batch(
        exp_profile, [1.0, 1.0, 4.0, 4.0], [0.5, 0.9, 2.0, 3.6],
        [cfgs[0]] * 2 + [cfgs[1]] * 2, IntegratorSettings())
    assert len(calls) == 1
    assert windows == [cfgs[0]] * 2 + [cfgs[1]] * 2
    assert np.all(np.isfinite(phi))


def test_mismatch_tau_coordinates_agree(exp_profile):
    K, om = 1.0, 0.62
    phi_y = _mismatch(exp_profile, K, om)
    phi_t = _mismatch(liouville.transform(exp_profile), K, om)
    assert abs(phi_y - phi_t) < 1e-8


def test_mismatch_tau_agrees_with_varying_mu():
    layer = sw.from_registry("smoothed_layer", {"rho_1": 2.0, "mu_1": 0.7,
                                                "rho_s": 1.0, "mu_s": 1.0,
                                                "y_s": 2.0, "width": 1.0})
    # a PCHIP table whose stiffness varies at every row
    table = sw.from_table([[0, 3, 0.6], [1, 2.5, 0.8], [2, 1.5, 0.9], [4, 1, 1]])
    for p, K in ((layer, 25.0), (table, 9.0)):
        ry = sw.find_modes(p, K)
        rt = sw.find_modes(p, K, SearchOptions(space="tau"))
        assert len(ry.modes) == len(rt.modes) > 0
        assert [m.m for m in ry.modes] == [m.m for m in rt.modes]
        rel = max(abs(a.Omega - b.Omega) / a.Omega
                  for a, b in zip(ry.modes, rt.modes))
        assert rel < 1e-8


def test_find_modes_empty_constant(constant_profile):
    for K in (1.0, 4.0, 9.0):
        res = sw.find_modes(constant_profile, K)
        assert len(res.modes) == 0
        assert res.nonexistence_reason


def test_find_modes_empty_globally_negative(shallow_profile, stiff_profile):
    for K in (1.0, 9.0):
        assert len(sw.find_modes(shallow_profile, K).modes) == 0
        assert len(sw.find_modes(stiff_profile, K).modes) == 0


@pytest.mark.parametrize("call", [
    lambda p: sw.find_modes(p, math.inf),
    lambda p: sw.find_modes(p, math.nan),
    lambda p: sw.trace_branches(p, [1.0, math.inf]),
    lambda p: sw.trace_branches(p, [1.0, math.nan]),
    lambda p: sw.trace_branches(p, [1.0, 1e200]),
    lambda p: sw.estimate_mode_count(p, math.inf),
    lambda p: sw.estimate_mode_count(p, math.nan),
], ids=["find_modes_inf", "find_modes_nan", "trace_inf", "trace_nan",
        "trace_square_overflows", "estimate_inf", "estimate_nan"])
def test_non_finite_wavenumber_rejected(exp_profile, call):
    # inf once gave 0 modes (and N(k) = [2, 0] in a trace), nan a
    # ProfileError from deep inside or a nan estimate; a finite k whose
    # square overflows raised OverflowError
    with pytest.raises(ValueError, match="finite"):
        call(exp_profile)


def test_find_modes_against_bessel_fixture(exp_profile, bessel_fixture):
    res = sw.find_modes(exp_profile, 1.0)
    expect = bessel_fixture["omegas"]
    assert len(res.modes) == len(expect)
    for mode, om in zip(res.modes, expect):
        assert abs(mode.Omega - om) / om < 1e-6
        assert mode.residual <= 1e-8


def test_find_modes_live_bessel(exp_profile):
    oracle = sw.bessel_mode_frequencies(5.0, 1.0, 4.0)
    res = sw.find_modes(exp_profile, 4.0)
    assert len(res.modes) == len(oracle.omegas)
    for mode, om in zip(res.modes, oracle.omegas):
        assert abs(mode.Omega - om) / om < 1e-6


@pytest.mark.parametrize("K", [1.0, 4.0, 16.0])
def test_find_modes_tight_bessel(exp_profile, K):
    # the kept local-Richardson value brings every root within 1e-10
    # relative of the Bessel roots (the plain halved value gave 3e-10
    # to 6e-10, above root_tol)
    oracle = sw.bessel_mode_frequencies(5.0, 1.0, K)
    res = sw.find_modes(exp_profile, K)
    assert oracle.usable and len(res.modes) == len(oracle.omegas)
    rel = max(abs(m.Omega - om) / om for m, om in zip(res.modes, oracle.omegas))
    assert rel < 1e-10


def test_phi_independent_of_batch_mates(exp_profile):
    # one adaptive step sequence serves a whole batch, so a member's
    # Phi moves with the steps its batch mates force; the kept local-
    # Richardson value holds that spread far below residual_tol (the
    # plain halved value spread 3e-8 here)
    K, om = 4.0, 1.0880614858
    lo, hi = sw.admissible_interval(exp_profile, K)
    cfg = matching_config(exp_profile, (K, hi * (1.0 - 1e-6)))   # scan top
    phis = []
    for n in (1, 2, 3, 21, 64):
        omegas = np.concatenate([[om], np.linspace(lo, hi, n + 1)[1:n]])
        reads = np.full(n, 2.0)
        phi_plus, _, _, (phi0, _) = decaying_phase_batch(
            exp_profile, K, omegas, cfg, settings=IntegratorSettings(),
            y_bars=reads, surface=(K, omegas, reads))
        phis.append(phi0[0] - phi_plus[0])
    assert max(phis) - min(phis) < 1e-10


def test_mode_indices_and_bands(exp_profile):
    res = sw.find_modes(exp_profile, 16.0)
    assert [m.m for m in res.modes] == list(range(1, len(res.modes) + 1))
    for m in res.modes:
        tail = (m.m - 1) * math.pi + m.phi_decay
        assert (m.m - 0.5) * math.pi < tail < m.m * math.pi


def test_monotone_mismatch_sampled(exp_profile):
    K = 4.0
    lo, hi = sw.admissible_interval(exp_profile, K)
    oms = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 12)
    cfg = matching_config(exp_profile, (K, float(oms[-1])))
    vals = [_mismatch(exp_profile, K, float(om), cfg=cfg) for om in oms]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def power_modes_k4(power_profile):
    return sw.find_modes(power_profile, 4.0, SearchOptions(max_modes=8))


def test_interval_containment(exp_profile, power_profile, power_modes_k4):
    lo, hi = sw.admissible_interval(exp_profile, 4.0)
    for m in sw.find_modes(exp_profile, 4.0).modes:
        assert lo < m.Omega < hi
    lo, hi = sw.admissible_interval(power_profile, 4.0)
    for m in power_modes_k4.modes:
        assert lo < m.Omega < hi


def test_accumulation_ordering(power_modes_k4):
    res = power_modes_k4
    oms = [m.Omega for m in res.modes]
    assert len(oms) >= 6
    assert all(a < b for a, b in zip(oms, oms[1:]))
    gaps = [4.0 - om for om in oms]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert res.truncated


def test_trace_branches_constant(constant_profile):
    branches, results = sw.trace_branches(constant_profile, [1.0, 2.0, 3.0])
    assert branches == []


def test_trace_branches_exponential(exp_profile):
    ks = np.arange(1.0, 11.0)
    opts = SearchOptions(omega_grid_n=64, root_tol=1e-8,
                         settings=IntegratorSettings(rel_tol=1e-8, abs_tol=1e-10),
                         residual_tol=1e-4)
    branches, results = sw.trace_branches(exp_profile, ks, opts)
    counts = [len(r.modes) for r in results]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    cls = sw.classify(exp_profile)
    c_lo = math.sqrt(cls.min_mu_over_rho)
    c_hi = math.sqrt(exp_profile.mu_inf / exp_profile.rho_inf)
    for b in branches:
        ws = [w for _, w in b.points]
        ks_b = [k for k, _ in b.points]
        assert all(a < bb for a, bb in zip(ws, ws[1:]))
        for k, w in b.points:
            assert c_lo < w / k < c_hi
        assert b.gaps == ()


# the options of the benchmark's CLI branches run
LOOSE = SearchOptions(omega_grid_n=128, root_tol=1e-6, residual_tol=1e-2,
                      settings=IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9))
# a fast top over a buried slow layer: no mode at k = 0.3, two or more
# at k = 4, so max_modes 2 truncates there
BURIED = sw.from_table([(0.0, 0.4, 1.0), (3.0, 0.4, 1.0), (3.5, 2.0, 1.0),
                        (4.5, 2.0, 1.0), (5.0, 1.0, 1.0), (6.0, 1.0, 1.0)])


TRACES = pytest.mark.parametrize("profile, ks, opts", [
    (sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": 5.0, "d": 1.0}),
     np.arange(1.0, 9.0), LOOSE),
    (sw.from_registry("smoothed_layer", {
        "rho_1": 2.5, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0, "y_s": 2.0,
        "width": 1.0}), np.arange(1.0, 6.0), SearchOptions()),
    (BURIED, [0.3, 1.0, 4.0], SearchOptions(max_modes=2)),
], ids=["exp", "layer", "empty_and_truncated"])


@TRACES
def test_trace_branches_matches_find_modes(profile, ks, opts):
    # the trace sweeps every k in shared batches, but each k on lanes
    # of its own and in its own window, so per k it gives exactly what
    # find_modes at that k alone gives
    _, results = sw.trace_branches(profile, ks, opts)
    assert len(results) == len(ks)
    for k, res in zip(ks, results):
        alone = sw.find_modes(profile, float(k) ** 2, opts)
        assert res.K == alone.K
        assert res.truncated == alone.truncated
        assert res.nonexistence_reason == alone.nonexistence_reason
        assert res.scan_ceiling == alone.scan_ceiling
        assert [(m.m, m.flag, m.Omega, m.residual, m.matching.y_bar,
                 m.matching.y_tail) for m in res.modes] == \
            [(m.m, m.flag, m.Omega, m.residual, m.matching.y_bar,
              m.matching.y_tail) for m in alone.modes]
    if profile is BURIED:
        assert [len(r.modes) for r in results] == [0, 1, 2]
        assert [r.truncated for r in results] == [False, False, True]


def test_trace_branches_one_refinement_batch(exp_profile, monkeypatch):
    refine = dispersion._refine_brackets
    batches = []

    def spy(*args):
        batches.append(len(args[2]))
        return refine(*args)

    monkeypatch.setattr(dispersion, "_refine_brackets", spy)
    _, results = sw.trace_branches(exp_profile, np.arange(1.0, 9.0), LOOSE)
    assert batches == [54]
    assert sum(len(r.modes) for r in results) == 54


def _spy_callers(monkeypatch, caller):
    """Count the _mismatch_batch calls made directly from ``caller``."""
    sweep = dispersion._mismatch_batch
    calls = []

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == caller:
            calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(dispersion, "_mismatch_batch", counted)
    return calls


def test_trace_branches_one_scan_batch_per_chunk(exp_profile, monkeypatch):
    # the scans of all eight k share one sweep per chunk: the uniform
    # grid, then the geometric one
    calls = _spy_callers(monkeypatch, "_scan")
    _, results = sw.trace_branches(exp_profile, np.arange(1.0, 9.0), LOOSE)
    assert len(calls) == 2
    assert sum(len(r.modes) for r in results) == 54


def test_trace_branches_refine_rounds(exp_profile, monkeypatch):
    # ITP slack n0 = 3 keeps brackets whose residual is small but whose
    # width is not off plain bisection (with n0 = 1 they bisect: 16);
    # the straddle pair then closes the far end (ITP alone: 9)
    rounds = _spy_callers(monkeypatch, "_refine_brackets")
    _, results = sw.trace_branches(exp_profile, np.arange(1.0, 9.0), LOOSE)
    assert sum(len(r.modes) for r in results) == 54
    assert 1 <= len(rounds) <= 6


@TRACES
def test_fused_scan_matches_one_k_scans(profile, ks, opts, monkeypatch):
    # a K scanned among others gets what a scan of that K alone gives it
    scan = dispersion._scan
    fused = []

    def spy(problem, jobs, opts):
        out = scan(problem, jobs, opts)
        fused.append((problem, jobs, out))
        return out

    monkeypatch.setattr(dispersion, "_scan", spy)
    sw.trace_branches(profile, ks, opts)
    (problem, jobs, scans), = fused
    assert [sc.K for sc in scans] == [job[0] for job in jobs]
    for job, sc in zip(jobs, scans):
        alone, = scan(problem, [job], opts)
        assert sc.brackets == alone.brackets      # noisy flags included
        assert sc.truncated == alone.truncated
        assert sc.scan_ceiling == alone.scan_ceiling
        assert sc.cfg == alone.cfg


def test_estimate_mode_count(exp_profile, constant_profile, power_profile):
    assert sw.estimate_mode_count(constant_profile, 4.0) == 0.0
    for K in (1.0, 16.0):
        est = sw.estimate_mode_count(exp_profile, K)
        assert abs(est - 2 * math.sqrt(5 * K) / math.pi) < 1e-7
    assert math.isinf(sw.estimate_mode_count(power_profile, 4.0))


def test_estimate_against_solver_count(exp_profile):
    K = 64.0
    est = sw.estimate_mode_count(exp_profile, K)
    res = sw.find_modes(exp_profile, K, SearchOptions(omega_grid_n=64))
    assert abs(len(res.modes) - est) <= max(2.0, 0.15 * est)


POWER_P3 = sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 3.0})


@pytest.mark.parametrize("profile", [
    "exp_profile", "layer_profile", "constant_profile", "shallow_profile",
    *(sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": p})
      for p in (1.5, 2.0, 2.5, 3.0, 4.0))],
    ids=["exp", "layer", "constant", "shallow",
         "p1.5", "p2", "p2.5", "p3", "p4"])
def test_estimate_infinite_iff_not_convergent(request, profile):
    if isinstance(profile, str):
        profile = request.getfixturevalue(profile)
    convergent = sw.oscillation_test(profile).verdict == "non_oscillatory"
    assert math.isinf(sw.estimate_mode_count(profile, 4.0)) == (not convergent)


@pytest.mark.parametrize("K, n_modes", [(4.0, 2), (16.0, 4)])
def test_estimate_convergent_power_law(K, n_modes):
    # rho = 1 + 3 (1+y)^{-3}: the limit-ray phase integral converges, so
    # the count is finite and follows the phase integral
    est = sw.estimate_mode_count(POWER_P3, K)
    found = len(sw.find_modes(POWER_P3, K).modes)
    assert found == n_modes
    assert math.isfinite(est) and abs(found - est) <= max(2.0, 0.15 * est)


def test_estimate_linear_in_k(exp_profile):
    per_k = [sw.estimate_mode_count(exp_profile, K) / math.sqrt(K)
             for K in (1.0, 16.0, 1600.0)]
    assert max(abs(v - per_k[0]) for v in per_k) <= 1e-13 * per_k[0]


def test_oscillation_verdicts(exp_profile, shallow_profile, power_profile):
    assert sw.oscillation_test(power_profile).verdict == "oscillatory"
    assert sw.oscillation_test(exp_profile).verdict == "non_oscillatory"
    assert sw.oscillation_test(shallow_profile).verdict == "non_oscillatory"
    v = sw.oscillation_test(power_profile)
    assert len(v.windows) > 4


def test_layer_modes_against_fd(layer_profile):
    res = sw.find_modes(layer_profile, 25.0)
    fd = sw.fd_mode_frequencies(layer_profile, 25.0)
    assert fd.usable
    assert len(res.modes) == len(fd.omegas) >= 1
    rel = max(abs(m.Omega - o) / o for m, o in zip(res.modes, fd.omegas))
    assert rel < 1e-4


SHARP_LAYER = {"rho_1": 2.5, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0,
               "y_s": 2.0, "width": 0.05}
EXP_TABLE = ([(float(y), 1.0 + 5.0 * math.exp(-y), 1.0) for y in range(12)]
             + [(12.0, 1.0, 1.0)])


@pytest.mark.parametrize("profile, K, n_modes", [
    (sw.from_registry("smoothed_layer", SHARP_LAYER), 25.0, 4),
    (sw.from_table(EXP_TABLE), 16.0, 6),
], ids=["sharp_layer", "table"])
def test_breakpoint_profiles_unflagged(profile, K, n_modes):
    # ramp edges and table rows are breakpoints; sweeps that step across
    # them miss the residual tolerance on some modes
    res = sw.find_modes(profile, K)
    assert [m.flag for m in res.modes] == [None] * n_modes
    fd = sw.fd_mode_frequencies(profile, K)
    assert fd.usable and len(fd.omegas) == n_modes
    rel = max(abs(m.Omega - o) / o for m, o in zip(res.modes, fd.omegas))
    assert rel < 1e-8


@st.composite
def random_layers(draw):
    """A soft smoothed layer over the unit substrate, and a K in [1, 30]."""
    y_s = draw(st.floats(0.5, 3.0))
    p = {"rho_1": draw(st.floats(1.2, 4.0)), "mu_1": draw(st.floats(0.5, 1.0)),
         "rho_s": 1.0, "mu_s": 1.0, "y_s": y_s,
         "width": y_s * draw(st.floats(0.1, 1.0))}
    return sw.from_registry("smoothed_layer", p), draw(st.floats(1.0, 30.0))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(random_layers())
def test_property_layer_spectra(case):
    # the y and tau spectra agree, every mode lies strictly inside the
    # admissible interval, the indices are 1..N and no mode is flagged
    profile, K = case
    lo, hi = sw.admissible_interval(profile, K)
    y_res = sw.find_modes(profile, K)
    tau_res = sw.find_modes(profile, K, SearchOptions(space="tau"))
    assert len(y_res.modes) == len(tau_res.modes)
    for res in (y_res, tau_res):
        assert [m.m for m in res.modes] == list(range(1, len(res.modes) + 1))
        assert all(m.flag is None and lo < m.Omega < hi for m in res.modes)
    for a, b in zip(y_res.modes, tau_res.modes):
        assert abs(a.Omega - b.Omega) <= 1e-8 * a.Omega


@pytest.mark.parametrize("profile, K, space", [
    ("exp_profile", 16.0, "y"), ("layer_profile", 25.0, "y"),
    ("exp_profile", 1.0, "tau")], ids=["exp", "layer", "tau_exp"])
def test_one_matching_depth_rule(request, profile, K, space):
    # a bracket is refined at the depth matching_config gives its top,
    # capped at the scan window's, and gamma_A < 0 from there on
    profile = request.getfixturevalue(profile)
    problem = dispersion._problem_for(profile, space)
    lo, hi = sw.admissible_interval(profile, K)
    sc, = dispersion._scan(problem, [(K, lo, hi)], SearchOptions(space=space))
    tops = [b[1] for b in sc.brackets]
    assert tops
    depths = dispersion._polish_depths(problem, K, tops, sc.cfg)
    for top, y_bar in zip(tops, depths):
        own = matching_config(problem, (K, top)).y_bar
        assert abs(y_bar - min(own, sc.cfg.y_bar)) <= 1e-6
        p, q = problem.coef_pair(np.linspace(y_bar, sc.cfg.y_tail, 20001))
        assert np.all(top * p - K * q < 0)


def test_band_check_covers_refinement(exp_profile, monkeypatch):
    # each bracket's window carries its polished matching depth, so the
    # angles that become phi_decay are band-checked; a depth in front of
    # every turning point puts them outside (pi/2, pi)
    res = sw.find_modes(exp_profile, 16.0)
    depths = [md.matching.y_bar for md in res.modes]
    assert len(res.modes) == 6 and depths == sorted(set(depths))
    monkeypatch.setattr(dispersion, "_polish_depths",
                        lambda problem, K, tops, cfg: np.full(len(tops), 0.5))
    with pytest.raises(sw.errors.TailConvergenceError, match="band"):
        sw.find_modes(exp_profile, 16.0)


def test_scan_tail_limit_prefix(monkeypatch):
    # rho = 1 + 3 (1+y)^{-3}: no tail start is reachable for the top of
    # the geometric chunk, so the scan stops at its feasible prefix
    profile = sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 3.0})
    tops, failed = [], []
    config = dispersion.matching_config

    def spy(problem, A):
        tops.append(A[1])
        try:
            return config(problem, A)
        except (sw.errors.TailSelectionError, sw.errors.NoNegativeTailError):
            failed.append(A[1])
            raise

    monkeypatch.setattr(dispersion, "matching_config", spy)
    res = sw.find_modes(profile, 4.0)
    assert len(res.modes) == 2 and not res.truncated
    assert max(tops) in failed
    assert res.scan_ceiling < max(tops)
    fd = sw.fd_mode_frequencies(profile, 4.0)
    assert fd.usable and len(fd.omegas) == 2
    rel = np.abs(np.array([md.Omega for md in res.modes]) / fd.omegas - 1.0)
    assert np.max(rel) < 1e-8


def test_tail_stretch_stability(exp_profile):
    base = sw.find_modes(exp_profile, 4.0)
    far = sw.find_modes(exp_profile, 4.0, SearchOptions(tail_stretch=2.0))
    assert len(base.modes) == len(far.modes)
    for a, b in zip(base.modes, far.modes):
        assert abs(a.Omega - b.Omega) / a.Omega <= 1e-8


def test_tail_window_kept_after_check(exp_profile):
    # the first refinement round's tail check widens a short window by
    # doubling; the later rounds must sweep the widened one
    opts = SearchOptions()
    base = sw.find_modes(exp_profile, 4.0, opts)
    short = sw.find_modes(exp_profile, 4.0, replace(opts, tail_stretch=0.2))
    assert len(base.modes) == len(short.modes) == 3
    for a, b in zip(base.modes, short.modes):
        assert abs(a.Omega - b.Omega) / a.Omega <= 2 * opts.root_tol


def test_duplicate_mode_index_flagged(exp_profile, monkeypatch):
    refine = dispersion._refine_brackets
    found = []

    def doubled(*args):
        found.extend(refine(*args))
        slip = replace(found[0], Omega=found[0].Omega * (1 + 1e-6),
                       residual=found[0].residual + 1e-9)
        return found + [slip]

    monkeypatch.setattr(dispersion, "_refine_brackets", doubled)
    res = sw.find_modes(exp_profile, 1.0)
    assert [m.m for m in res.modes] == [1, 2]
    assert res.modes[0] == replace(found[0], flag="duplicate mode index")
    assert res.modes[1] == found[1]


EXP = sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": 5.0, "d": 1.0})
SHARP = sw.from_registry("smoothed_layer", SHARP_LAYER)


@pytest.mark.parametrize("profile, K, opts, most", [
    (EXP, 16.0, SearchOptions(), 5),
    (SHARP, 25.0, SearchOptions(), 7),
    (EXP, 1.0, SearchOptions(space="tau"), 4),
    (sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 1.5}),
     4.0, SearchOptions(max_modes=8), 15),
], ids=["exp", "sharp_layer", "tau_exp", "power"])
def test_refine_round_count(profile, K, opts, most, monkeypatch):
    # each refinement round is one batched sweep called from
    # _refine_brackets.  With the straddle pair: 4, 6, 3 and 14 rounds;
    # ITP alone needs 9, 9, 8 and 35 (24 of them on the power law's
    # m = 8 bracket, where g jumps by about 3 near its top), and a
    # bracket that stalls just above the tolerance (no guard) or plain
    # bisection needs 26-28 on the first two
    rounds = _spy_callers(monkeypatch, "_refine_brackets")
    res = sw.find_modes(profile, K, opts)
    assert res.modes and all(m.flag is None for m in res.modes)
    assert 1 <= len(rounds) <= most


@pytest.mark.parametrize("profile, K", [(EXP, 16.0), (SHARP, 25.0)],
                         ids=["exp", "sharp_layer"])
def test_roots_certified_by_sign(profile, K):
    # no oracle: each root sits inside a sign change of its own mismatch
    # g = Phi - (m-1) pi that is 2 root_tol wide, in the window of the mode
    res = sw.find_modes(profile, K)
    assert res.modes
    tol = DEFAULT_OPTIONS.root_tol
    for md in res.modes:
        phi = dispersion._mismatch_batch(
            profile, K, md.Omega * np.array([1.0 - tol, 1.0 + tol]),
            md.matching, DEFAULT_OPTIONS.settings)[0]
        g = phi - (md.m - 1) * math.pi
        assert g[0] < 0.0 < g[1], (md.m, g)


@pytest.mark.parametrize("bad", [
    {"max_modes": 0}, {"omega_grid_n": 0}, {"omega_grid_n": 7},
    {"root_tol": -1.0}, {"residual_tol": 0.0}, {"tail_stretch": float("nan")},
    {"root_tol": float("nan")}, {"space": "z"},
    {"max_modes": 2.5}, {"max_modes": True}, {"omega_grid_n": 8.5},
    {"root_tol": math.inf}, {"residual_tol": True},
    {"tail_stretch": math.inf}, {"settings": None},
    {"settings": {"rel_tol": 1e-6}}])
def test_search_options_validation(bad):
    with pytest.raises(ValueError):
        SearchOptions(**bad)


@pytest.mark.parametrize("bad", [
    {"rel_tol": 0.0}, {"abs_tol": -1e-12}, {"rel_tol": True},
    {"abs_tol": True}, {"rel_tol": math.inf}, {"abs_tol": float("nan")}])
def test_integrator_settings_validation(bad):
    with pytest.raises(ValueError):
        IntegratorSettings(**bad)


def test_invalid_inputs(exp_profile):
    with pytest.raises(ValueError):
        sw.find_modes(exp_profile, -1.0)
    with pytest.raises(ValueError):
        sw.trace_branches(exp_profile, [2.0, 1.0])
