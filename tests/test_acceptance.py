"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test asserts its stated tolerance and runtime budget.
Criteria that produce modes register them so the interval-containment
criterion can sweep everything found by the whole suite.
"""

import math
import time

import numpy as np
import pytest

import shwave as sw
from shwave import dispersion
from shwave.decay import matching_config
from shwave.dispersion import SearchOptions, _mismatch_batch
from shwave.prufer import IntegratorSettings
from shwave.profile import classify, admissible_interval
from tests.conftest import sampled_sweep

EXP = sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": 5.0, "d": 1.0})
POWER = sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 1.5})
LAYER = sw.from_registry("smoothed_layer", {"rho_1": 2.5, "mu_1": 1.0,
                                            "rho_s": 1.0, "mu_s": 1.0,
                                            "y_s": 2.0, "width": 1.0})

# modes gathered by earlier criteria, checked wholesale by criterion 8
_FOUND = []          # (profile, ModeSearchResult)
_C2_RESULTS = {}     # K -> ModeSearchResult (criterion 2, reused by 7 and 9)


def _register(profile, result):
    _FOUND.append((profile, result))
    return result


def _line(num, label, t0):
    print("criterion %d (%s): PASS (%.1fs)" % (num, label, time.monotonic() - t0))


def test_criterion_01_nonexistence():
    t0 = time.monotonic()
    profiles = [
        sw.from_registry("constant", {"rho": 1.0, "mu": 1.0}),
        sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": -0.5, "d": 1.0}),
        sw.from_callables(
            lambda y: np.ones_like(np.asarray(y, dtype=float)) if np.ndim(y) else 1.0,
            lambda y: 1.0 + np.exp(-np.asarray(y, dtype=float)),
            1.0, 1.0),
    ]
    for p in profiles:
        cls = classify(p)
        assert cls.global_negative
        for K in (1.0, 4.0, 9.0, 25.0):
            res = _register(p, sw.find_modes(p, K, classification=cls))
            assert len(res.modes) == 0
            assert res.nonexistence_reason is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _line(1, "nonexistence for globally negative profiles", t0)


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    cls = classify(EXP)
    for K in (1.0, 4.0, 16.0):
        res = _register(EXP, sw.find_modes(EXP, K, classification=cls))
        _C2_RESULTS[K] = res
        bes = sw.bessel_mode_frequencies(5.0, 1.0, K)
        fd = sw.fd_mode_frequencies(EXP, K)
        assert fd.usable
        assert len(res.modes) == len(bes.omegas) == len(fd.omegas)
        rel_b = max(abs(m.Omega - o) / o for m, o in zip(res.modes, bes.omegas))
        rel_f = max(abs(m.Omega - o) / o for m, o in zip(res.modes, fd.omegas))
        assert rel_b < 1e-6
        assert rel_f < 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _line(2, "solver equals both oracles on the exponential profile", t0)


def test_criterion_03_count_growth_and_estimate():
    t0 = time.monotonic()
    # counting crossings of the monotone mismatch is exact on any grid,
    # so the sweep runs with documented loosened options for speed
    opts = SearchOptions(
        omega_grid_n=128, root_tol=1e-6, residual_tol=1e-2,
        settings=IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9))
    ks = np.arange(1.0, 41.0)
    _, results = sw.trace_branches(EXP, ks, opts)
    counts = [len(r.modes) for r in results]
    for p_res in results:
        _register(EXP, p_res)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    est = 2.0 * math.sqrt(5.0 * 1600.0) / math.pi
    assert abs(counts[-1] - est) <= max(2.0, 0.15 * est)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _line(3, "mode count nondecreasing, matches the phase-integral estimate", t0)


def test_criterion_04_oscillatory_case():
    t0 = time.monotonic()
    verdict = sw.oscillation_test(POWER)
    assert verdict.verdict == "oscillatory"
    res = _register(POWER, sw.find_modes(POWER, 4.0, SearchOptions(max_modes=8)))
    oms = [m.Omega for m in res.modes]
    assert len(oms) >= 6
    assert all(a < b for a, b in zip(oms, oms[1:]))
    gaps = [4.0 - om for om in oms]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for m in res.modes:
        tail = (m.m - 1) * math.pi + m.phi_decay
        assert (m.m - 0.5) * math.pi <= tail <= m.m * math.pi
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _line(4, "oscillatory regime: accumulation toward the cutoff", t0)


def _random_profile(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return sw.from_registry("exp_density", {
            "rho_inf": 1.0, "drho": float(rng.uniform(-0.8, 8.0)),
            "d": float(rng.uniform(0.3, 2.5))})
    if kind == 1:
        return sw.from_registry("power_density", {
            "rho_inf": 1.0, "c": float(rng.uniform(-0.7, 6.0)),
            "p": float(rng.uniform(1.1, 3.0))})
    if kind == 2:
        y_s = float(rng.uniform(1.0, 3.0))
        return sw.from_registry("smoothed_layer", {
            "rho_1": float(rng.uniform(0.5, 3.0)),
            "mu_1": float(rng.uniform(0.5, 2.0)),
            "rho_s": 1.0, "mu_s": 1.0, "y_s": y_s,
            "width": float(rng.uniform(0.3, y_s))})
    return sw.from_registry("constant", {"rho": float(rng.uniform(0.5, 2.0)),
                                         "mu": float(rng.uniform(0.5, 2.0))})


def test_criterion_05_phase_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(20250808)
    tol = 1e-8
    violations = 0
    cases = 0
    while cases < 200:
        p = _random_profile(rng)
        K = float(rng.uniform(0.2, 25.0))
        omega_bar = K * p.mu_inf / p.rho_inf
        Om = float(rng.uniform(0.1, 1.3) * omega_bar)
        if Om <= 0:
            continue
        cases += 1
        y_end = float(rng.uniform(3.0, 9.0))
        ys, phis, logr = sampled_sweep(p, K, Om, math.pi / 2, 0.0, y_end)
        g = p.gamma((K, Om), ys)
        # (a) nondecreasing where gamma >= 0
        inc = np.diff(phis)
        nonneg = (g[:-1] >= 0) & (g[1:] >= 0)
        violations += int(np.sum(inc[nonneg] < -tol))
        # (b) no downward crossing of m*pi
        run_band = np.maximum.accumulate(np.floor(phis / math.pi))
        violations += int(np.sum(phis < math.pi * run_band - tol))
        # (d) uw nondecreasing where gamma <= 0
        uw = np.exp(2 * logr) * 0.5 * np.sin(2 * phis)
        nonpos = (g[:-1] <= 0) & (g[1:] <= 0)
        duw = np.diff(uw)
        scale = tol * (1.0 + np.abs(uw[:-1]))
        violations += int(np.sum(duw[nonpos] < -scale[nonpos]))
        # (c) decay angle stays inside (pi/2, pi) on negative tails
        if Om < omega_bar * (1.0 - 1e-6):
            try:
                cfg = matching_config(p, (K, Om))
            except sw.errors.ShwaveError:
                continue
            seed = sw.decaying_phase_at_tail(p, (K, Om), cfg.y_tail)
            _, dphis, _ = sampled_sweep(p, K, Om, seed, cfg.y_tail, cfg.y_bar)
            violations += int(np.sum(dphis < math.pi / 2 - tol))
            violations += int(np.sum(dphis > math.pi + tol))
    assert cases == 200
    assert violations == 0
    _line(5, "phase invariants over 200 randomized cases", t0)


def test_criterion_06_monotone_mismatch():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 50:
        p = _random_profile(rng)
        cls = classify(p)
        if cls.global_negative:
            continue
        K = float(rng.uniform(0.3, 30.0))
        lo, hi = admissible_interval(p, K, cls)
        if sw.interval_is_empty(lo, hi):
            continue
        width = hi - lo
        oms = np.linspace(lo + 0.04 * width, hi - 0.04 * width, 20)
        cfg = matching_config(p, (K, float(oms[-1])))
        phi = _mismatch_batch(p, K, oms, cfg, IntegratorSettings())[0]
        assert np.all(np.diff(phi) > 0), (p.name, p.params, K)
        checked += 1
    _line(6, "mismatch strictly increasing in frequency (50 cases)", t0)


def test_criterion_07_coordinate_invariance():
    t0 = time.monotonic()
    for K in (1.0, 4.0, 16.0):
        res_y = _C2_RESULTS[K]
        res_t = sw.find_modes(EXP, K, SearchOptions(space="tau"))
        assert len(res_y.modes) == len(res_t.modes)
        for a, b in zip(res_y.modes, res_t.modes):
            assert abs(a.Omega - b.Omega) / a.Omega <= 1e-8
    res_y = sw.find_modes(POWER, 4.0, SearchOptions(max_modes=8))
    res_t = sw.find_modes(POWER, 4.0, SearchOptions(max_modes=8, space="tau"))
    assert len(res_y.modes) == len(res_t.modes)
    for a, b in zip(res_y.modes, res_t.modes):
        assert abs(a.Omega - b.Omega) / a.Omega <= 1e-8
    _line(7, "same spectra in physical and transformed coordinates", t0)


def test_criterion_09_tail_robustness(monkeypatch):
    t0 = time.monotonic()
    # every window the search builds, with its tail twice as long
    monkeypatch.setattr(
        dispersion, "matching_config",
        lambda problem, A: matching_config(problem, A).stretched(2.0))
    for K in (1.0, 4.0, 16.0):
        base = _C2_RESULTS[K]
        far = sw.find_modes(EXP, K)
        assert len(base.modes) == len(far.modes)
        for a, b in zip(base.modes, far.modes):
            assert abs(a.Omega - b.Omega) / a.Omega <= 1e-8
    _line(9, "doubling the tail window leaves every frequency fixed", t0)


def test_criterion_10_homogeneous_substrate():
    t0 = time.monotonic()
    cls = classify(LAYER)
    assert not cls.global_negative
    res = _register(LAYER, sw.find_modes(LAYER, 25.0, classification=cls))
    assert len(res.modes) >= 1
    fd = sw.fd_mode_frequencies(LAYER, 25.0)
    assert fd.usable
    assert len(fd.omegas) == len(res.modes)
    rel = max(abs(m.Omega - o) / o for m, o in zip(res.modes, fd.omegas))
    assert rel < 1e-4
    _line(10, "soft layer over homogeneous substrate traps modes; fd agrees", t0)


def test_criterion_08_interval_containment():
    # runs last: sweeps every mode registered by the criteria above
    t0 = time.monotonic()
    assert _FOUND, "earlier criteria must have registered their results"
    total = 0
    for profile, res in _FOUND:
        lo, hi = res.interval
        for m in res.modes:
            assert lo < m.Omega < hi
            total += 1
    assert total > 100
    _line(8, "all %d modes strictly inside their admissible interval" % total, t0)
