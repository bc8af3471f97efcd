"""Oracle self-tests and cross-validation between the two oracles."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import shwave as sw
from shwave.errors import OracleUnavailableError
from shwave.oracle import (_bessel_j_series, _bessel_j_series_dx,
                           bessel_j, bessel_j_prime, bessel_residual_check)

FIXTURES = Path(__file__).parent / "fixtures"


def test_bessel_known_zero_of_jprime1():
    # standard tabulated first zero of J'_1, confirmed by the series
    assert abs(bessel_j_prime(1.0, 1.8411837813406593)) < 1e-8


def test_bessel_series_derivative_identity():
    rng = np.random.default_rng(2)
    for _ in range(40):
        nu = rng.uniform(0.05, 6.0)
        x = rng.uniform(0.1, 15.0)
        d_series = _bessel_j_series_dx(nu, x)
        d_recur = bessel_j_prime(nu, x)
        assert abs(d_series - d_recur) < 1e-10 * max(1.0, abs(d_series))


def test_bessel_series_asymptotic_overlap():
    for nu in (0.0, 0.7, 1.5, 3.2):
        for x in (18.5, 19.5, 20.5, 22.0):
            a = _bessel_j_series(nu, min(x, 20.0)) if x <= 20 else None
            full = bessel_j(nu, x)
            # compare against an independent library implementation
            from scipy.special import jv

            assert abs(full - jv(nu, x)) < 5e-9


def test_bessel_vs_scipy_broad():
    from scipy.special import jv

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        nu = rng.uniform(0.0, 8.0)
        x = rng.uniform(0.01, 40.0)
        worst = max(worst, abs(bessel_j(nu, x) - jv(nu, x)))
    assert worst < 1e-9


def test_bessel_refuses_unconverged_asymptotics():
    # order comparable to the argument: the Hankel sum has not converged
    # (scipy's jv(38, 80) is -0.0854; the truncated sum gives -0.0705)
    with pytest.raises(OracleUnavailableError):
        bessel_j(38.0, 80.0)
    res = sw.bessel_mode_frequencies(5.0, 1.0, 400.0)
    assert not res.usable
    assert res.omegas == ()
    assert "Hankel" in res.note
    # K = 100 still evaluates J_nu within the accepted truncation error
    assert sw.bessel_mode_frequencies(5.0, 1.0, 100.0).usable


def test_bessel_mode_frequencies_fixture_regression():
    fx = json.loads((FIXTURES / "bessel_exp_q5_d1_K1.json").read_text())
    res = sw.bessel_mode_frequencies(5.0, 1.0, 1.0)
    assert len(res.omegas) == len(fx["omegas"])
    for a, b in zip(res.omegas, fx["omegas"]):
        assert abs(a - b) < 1e-12
    lo, hi = 1.0 / 6.0, 1.0
    assert all(lo < om < hi for om in res.omegas)
    assert list(res.omegas) == sorted(res.omegas)


def test_bessel_mode_residuals():
    res = sw.bessel_mode_frequencies(5.0, 1.0, 1.0)
    for om in res.omegas:
        assert bessel_residual_check(5.0, 1.0, 1.0, om) < 1e-9


def test_bessel_degenerate_contrast():
    res = sw.bessel_mode_frequencies(1e-8, 1.0, 1.0)
    assert res.omegas == ()


def test_fd_constant_medium_empty(constant_profile):
    fd = sw.fd_mode_frequencies(constant_profile, 4.0, L=40.0, n=20000)
    assert fd.omegas == ()


def test_fd_cross_validates_bessel(exp_profile):
    bes = sw.bessel_mode_frequencies(5.0, 1.0, 1.0)
    fd = sw.fd_mode_frequencies(exp_profile, 1.0)
    assert fd.usable
    assert len(fd.omegas) == len(bes.omegas)
    rel = max(abs(a - b) / b for a, b in zip(fd.omegas, bes.omegas))
    assert rel < 1e-4


def test_fd_oscillatory_count_grows_with_box(power_profile):
    # discretization study on single solves: the finite box truncates the
    # infinite family, and widening it admits more trapped modes
    from shwave.oracle import _fd_eigs

    cutoff = 4.0 * (1.0 - 1e-9)
    e200 = _fd_eigs(power_profile, 4.0, 200.0, 60000, cutoff)
    e400 = _fd_eigs(power_profile, 4.0, 400.0, 120000, cutoff)
    assert len(e400) >= 4
    assert len(e400) > len(e200)
    assert all(om < 4.0 for om in e400)


def test_fd_flags_nonconverged():
    # a profile sampled on a coarse box whose eigenvalues depend on L is
    # flagged rather than silently trusted
    fd = sw.fd_mode_frequencies(
        sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 1.5}),
        4.0, L=30.0, n=3000)
    assert (not fd.usable) or len(fd.omegas) == 0 or fd.note == ""


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("slot", ["q", "d", "K"])
def test_bessel_rejects_nonfinite(slot, bad):
    args = {"q": 5.0, "d": 1.0, "K": 1.0}
    args[slot] = bad
    with pytest.raises(sw.errors.ProfileError, match="finite"):
        sw.bessel_mode_frequencies(**args)


@pytest.mark.parametrize("K", [math.inf, math.nan, -1.0])
def test_fd_rejects_nonfinite_K(exp_profile, K):
    with pytest.raises(sw.errors.ProfileError, match="finite"):
        sw.fd_mode_frequencies(exp_profile, K)


@pytest.mark.parametrize("profile, K, calls", [
    ("layer_profile", 25.0, 3), ("exp_profile", 1.0, 4)], ids=["layer", "exp"])
def test_fd_reuses_last_probe(request, monkeypatch, profile, K, calls):
    # a probe that ends the box search already ran at the final (L, n);
    # the result equals the three solves (L, n), (L, 2n), (2L, 2n) bit
    # for bit (the exp box grows once, so it probes twice)
    from shwave import oracle

    profile = request.getfixturevalue(profile)
    solve = oracle._fd_eigs
    seen = []

    def counted(*args):
        seen.append(args[2:4])
        return solve(*args)

    monkeypatch.setattr(oracle, "_fd_eigs", counted)
    res = sw.fd_mode_frequencies(profile, K)
    assert res.usable and len(seen) == calls
    L, n, cutoff = (res.discretization[k] for k in ("L", "n", "cutoff"))
    e1, e2, _ = (solve(profile, K, LL, nn, cutoff)
                 for LL, nn in ((L, n), (L, 2 * n), (2 * L, 2 * n)))
    assert [v.hex() for v in res.omegas] == \
        [float(v).hex() for v in (4.0 * e2 - e1) / 3.0]


def test_oracle_kernel_independence():
    # the oracle module must not import the solver's integration kernels
    import shwave.oracle as oracle_mod

    src = Path(oracle_mod.__file__).read_text()
    imports = [ln.strip() for ln in src.splitlines()
               if ln.strip().startswith(("import ", "from "))]
    for banned in ("rk", "prufer", "propagate", "decay", "dispersion"):
        for ln in imports:
            assert ".%s" % banned not in ln and " %s" % banned not in ln, ln
