"""Mode search, branch tracing, count estimate, oscillation verdicts."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shwave as sw
from shwave import dispersion
from shwave.decay import matching_config
from shwave.dispersion import SearchOptions, mismatch
from shwave.prufer import IntegratorSettings

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def bessel_fixture():
    return json.loads((FIXTURES / "bessel_exp_q5_d1_K1.json").read_text())


def test_mismatch_constant_medium(constant_profile):
    # no modes in a constant half-space: the surface angle stays in the
    # first quadrant while the decay angle sits in the second
    cfg = matching_config(constant_profile, (4.0, 1.0))
    phi = mismatch(constant_profile, 4.0, 1.0, cfg=cfg)
    assert -3 * math.pi / 4 < phi < -math.pi / 4
    assert abs(phi / math.pi - round(phi / math.pi)) > 0.2


def test_mismatch_vanishes_at_oracle_root(exp_profile, bessel_fixture):
    from shwave.prufer import IntegratorSettings

    om = bessel_fixture["omegas"][0]
    phi = mismatch(exp_profile, 1.0, om,
                   settings=IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14))
    assert abs(phi - round(phi / math.pi) * math.pi) < 1e-9


def test_mismatch_tau_coordinates_agree(exp_profile):
    K, om = 1.0, 0.62
    phi_y = mismatch(exp_profile, K, om, space="y")
    phi_t = mismatch(exp_profile, K, om, space="tau")
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
    vals = [mismatch(exp_profile, K, float(om), cfg=cfg) for om in oms]
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


def test_trace_branches_parallel_identical(exp_profile):
    ks = [1.0, 2.0, 3.0]
    opts = SearchOptions(omega_grid_n=64)
    b1, r1 = sw.trace_branches(exp_profile, ks, opts, workers=1)
    b2, r2 = sw.trace_branches(exp_profile, ks, opts, workers=2)
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        assert x.m == y.m
        assert x.points == y.points


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


@pytest.mark.parametrize("profile, K", [
    (sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": 5.0, "d": 1.0}),
     16.0),
    (sw.from_registry("smoothed_layer", SHARP_LAYER), 25.0),
], ids=["exp", "sharp_layer"])
def test_refine_round_count(profile, K, monkeypatch):
    # each refinement round is one batched sweep called from
    # _refine_brackets; ITP needs 9 here, and a bracket that stalls just
    # above the tolerance (no guard) or plain bisection needs 26-28
    sweep = dispersion._mismatch_batch
    rounds = []

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_refine_brackets":
            rounds.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(dispersion, "_mismatch_batch", counted)
    res = sw.find_modes(profile, K)
    assert res.modes and all(m.flag is None for m in res.modes)
    assert 1 <= len(rounds) <= 12


def test_invalid_inputs(exp_profile):
    with pytest.raises(ValueError):
        sw.find_modes(exp_profile, -1.0)
    with pytest.raises(ValueError):
        sw.trace_branches(exp_profile, [2.0, 1.0])
