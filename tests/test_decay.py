"""Tail construction: matching point, tail start, decaying angle."""

import math

import numpy as np
import pytest

import shwave as sw
from shwave.decay import (MatchingConfig, decaying_phase, decaying_phase_at_tail,
                          decaying_phase_batch, matching_config)
from shwave.errors import TailConvergenceError, ThresholdError
from tests.conftest import lift_from_samples, ones, rk4_uw, sampled_sweep


def test_matching_point_negative_everywhere(constant_profile):
    assert matching_config(constant_profile, (4.0, 1.0)).y_bar == 1.0


def test_matching_point_exponential(exp_profile):
    y_bar = matching_config(exp_profile, (1.0, 0.5)).y_bar
    assert abs(y_bar - (math.log(5.0) + 0.5)) < 0.02


def test_matching_point_threshold_guard(exp_profile):
    with pytest.raises(ThresholdError):
        matching_config(exp_profile, (1.0, 1.0))
    with pytest.raises(ThresholdError):
        matching_config(exp_profile, (1.0, 1.0 - 1e-12))


def test_matching_point_deep_single_crossing():
    # rho = 1 + 30 (1+y)^{-3/2}: gamma_A changes sign once, at y* ~ 6.08e6,
    # where the outward samples lie ~1,000 apart; y_bar sits just behind
    # the bisected crossing and gamma_A stays negative up to y_tail
    p = sw.from_registry("power_density", {"rho_inf": 1.0, "c": 30.0, "p": 1.5})
    K, Om = 4.0, 4.0 * (1.0 - 2e-9)
    y_star = (Om * 30.0 / (K - Om)) ** (1.0 / 1.5) - 1.0
    cfg = matching_config(p, (K, Om))
    assert y_star < cfg.y_bar <= y_star + 0.51
    ys = np.linspace(cfg.y_bar, cfg.y_tail, 200001)
    assert np.all(p.gamma((K, Om), ys) < 0)


def test_tail_start_clamped_table():
    table = sw.from_table([(0.0, 3.0, 1.0), (1.5, 1.0, 1.0)], rho_inf=1.0)
    cfg = matching_config(table, (1.0, 0.5))
    assert cfg.y_tail == 1.5
    assert cfg.strict_tail


def test_tail_start_exponential_formula(exp_profile):
    cfg = matching_config(exp_profile, (1.0, 0.5))
    # |beta(Y)| = 2.5 exp(-Y) <= 1e-8 * 0.5  =>  Y >= ln(5e8)
    assert cfg.strict_tail
    assert math.log(5e8) - 1e-9 <= cfg.y_tail <= math.log(5e8) + 0.1


def test_tail_start_constant(constant_profile):
    assert matching_config(constant_profile, (4.0, 1.0)).y_tail == 1.0


def test_tail_start_power_law_fallback(power_profile):
    # the literal residual criterion is unattainable for (1+y)^{-3/2};
    # the contraction-budget fallback must fire instead of erroring
    cfg = matching_config(power_profile, (4.0, 3.5))
    assert not cfg.strict_tail
    assert cfg.y_tail > cfg.y_bar


def test_decaying_phase_at_tail_values(constant_profile):
    # gamma(Y) = -1: w/u = -1, angle 3pi/4
    p = sw.from_registry("constant", {"rho": 1.0, "mu": 1.0})
    assert abs(decaying_phase_at_tail(p, (2.0, 1.0), 1.0) - 3 * math.pi / 4) < 1e-14
    # gamma(Y) = -3: angle 5pi/6
    assert abs(decaying_phase_at_tail(p, (4.0, 1.0), 1.0) - 5 * math.pi / 6) < 1e-14
    # slow-decay limit: angle approaches pi/2 from above
    phi = decaying_phase_at_tail(p, (1.0, 1.0 - 1e-8), 1.0)
    assert 0 < phi - math.pi / 2 < 1e-3
    with pytest.raises(ThresholdError):
        decaying_phase_at_tail(p, (1.0, 2.0), 1.0)


def test_decaying_phase_constant_exact(constant_profile):
    cfg = matching_config(constant_profile, (4.0, 1.0))
    st = decaying_phase(constant_profile, (4.0, 1.0), cfg)
    assert abs(st.phi - 5 * math.pi / 6) < 1e-12


def test_decaying_phase_dual_formulation_oracle(exp_profile):
    A = (1.0, 0.5)
    cfg = matching_config(exp_profile, A)
    st = decaying_phase(exp_profile, A, cfg)
    # independent backward fixed-step RK4 on (u, w) from the frozen seed
    gam = lambda y: exp_profile.gamma(A, y)
    w0 = -math.sqrt(-gam(cfg.y_tail))
    us, ws = rk4_uw(gam, ones, 1.0, w0, cfg.y_tail, cfg.y_bar, n=400000,
                    renormalize=True)
    expected = lift_from_samples(us, ws, math.atan2(1.0, w0))[-1]
    assert abs(st.phi - expected) < 1e-7


def test_decaying_phase_bessel_oracle(exp_profile):
    # the exact decaying solution is a Bessel function; its logarithmic
    # derivative fixes the angle at the matching depth
    from shwave.oracle import bessel_j, bessel_j_prime

    K = 1.0
    res = sw.find_modes(exp_profile, K)
    mode = res.modes[0]
    Om = mode.Omega
    cfg = mode.matching
    st = decaying_phase(exp_profile, (K, Om), cfg)
    nu = 2.0 * math.sqrt(K - Om)
    x = 2.0 * math.sqrt(5.0 * Om) * math.exp(-cfg.y_bar / 2.0)
    u = bessel_j(nu, x)
    w = -0.5 * x * bessel_j_prime(nu, x)    # du/dy by the chain rule
    expected = math.atan2(u, w) % math.pi
    if expected <= math.pi / 2:
        expected += math.pi
    assert abs(st.phi - expected) < 1e-7


def test_band_invariant(exp_profile):
    rng = np.random.default_rng(3)
    for _ in range(20):
        K = rng.uniform(0.3, 20.0)
        Om = rng.uniform(0.2, 0.95) * K
        cfg = matching_config(exp_profile, (K, Om))
        seed = decaying_phase_at_tail(exp_profile, (K, Om), cfg.y_tail)
        _, phis, _ = sampled_sweep(exp_profile, K, Om, seed, cfg.y_tail,
                                   cfg.y_bar)
        assert np.all(phis > math.pi / 2 - 1e-9)
        assert np.all(phis < math.pi + 1e-9)


def test_monotone_response_to_omega(exp_profile):
    # decaying angle is nonincreasing in Omega at a common matching point
    K = 4.0
    oms = np.array([1.2, 1.8, 2.4, 3.0, 3.5])
    cfg = matching_config(exp_profile, (K, float(oms[-1])))
    phis = [decaying_phase(exp_profile, (K, float(om)), cfg).phi for om in oms]
    assert all(a >= b - 1e-10 for a, b in zip(phis, phis[1:]))


def test_tail_insensitivity(exp_profile):
    A = (1.0, 0.5)
    cfg = matching_config(exp_profile, A)
    st1 = decaying_phase(exp_profile, A, cfg)
    st2 = decaying_phase(exp_profile, A, cfg.stretched(2.0))
    assert abs(st1.phi - st2.phi) <= 1e-8


def test_failed_tail_check_resweeps_its_own_k(exp_profile, monkeypatch):
    # K = 4 gets a window 3 deep, too short for its check: only its
    # member is swept again, from the doubled window, while K = 1 keeps
    # its window and the angle it gets alone
    import shwave.propagate as propagate

    c1, c4 = (matching_config(exp_profile, A) for A in ((1.0, 0.5), (4.0, 3.0)))
    short = MatchingConfig(y_bar=c4.y_bar, y_tail=c4.y_bar + 3.0)
    calls = []
    sweep = propagate.sweep_phase

    def counted(problem, K, *args, **kwargs):
        calls.append(sorted(set(np.atleast_1d(K).tolist())))
        return sweep(problem, K, *args, **kwargs)

    monkeypatch.setattr(propagate, "sweep_phase", counted)
    phi, _, windows, _ = decaying_phase_batch(exp_profile, [1.0, 4.0],
                                              [0.5, 3.0], [c1, short])
    assert calls == [[1.0, 4.0], [4.0]]
    assert windows == [c1, short.stretched(2.0)]
    assert phi[0] == decaying_phase_batch(exp_profile, 1.0, 0.5, c1)[0][0]


def test_tail_check_shares_one_lane_per_k(exp_profile, monkeypatch):
    # windows of one K and y_tail at two matching depths (two brackets of
    # one K in the refinement) keep their own y_bar, and their check
    # sweeps start at one depth: the deeper of their doubled windows
    import shwave.propagate as propagate

    cfg = matching_config(exp_profile, (16.0, 15.0))
    wins = [MatchingConfig(y_bar=y, y_tail=cfg.y_tail)
            for y in (cfg.y_bar - 1.0, cfg.y_bar)]
    starts = []
    sweep = propagate.sweep_phase

    def spy(problem, K, Omega, phi0, y0, *args, **kwargs):
        starts.append(set(np.atleast_1d(y0).tolist()))
        return sweep(problem, K, Omega, phi0, y0, *args, **kwargs)

    monkeypatch.setattr(propagate, "sweep_phase", spy)
    _, _, windows, _ = decaying_phase_batch(exp_profile, 16.0, [14.0, 15.0],
                                            wins)
    assert windows == wins
    assert starts == [{cfg.y_tail, wins[0].stretched(2.0).y_tail}]


def test_band_check_on_the_batch_path(exp_profile):
    # at (16, 12) gamma_A turns negative at y = ln 15 = 2.7; a window
    # whose y_bar sits in front of that leaves the angle outside
    # (pi/2, pi) at y_bar, while a read above a valid window's y_bar is
    # not checked
    A = (16.0, 12.0)
    cfg = matching_config(exp_profile, A)
    front = MatchingConfig(y_bar=1.0, y_tail=cfg.y_tail)
    with pytest.raises(TailConvergenceError, match="band"):
        decaying_phase_batch(exp_profile, *A, front)
    phi = decaying_phase_batch(exp_profile, *A, cfg, y_bars=1.0)[0]
    assert not math.pi / 2 < phi[0] < math.pi


def test_matching_config_verifies_negativity(exp_profile):
    cfg = matching_config(exp_profile, (1.0, 0.5))
    assert 0 < cfg.y_bar <= cfg.y_tail
    ys = np.linspace(cfg.y_bar, cfg.y_tail, 500)
    assert np.all(exp_profile.gamma((1.0, 0.5), ys) < 0)
