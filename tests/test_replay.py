"""The refinement's fixed mesh: ``propagate.replay_phase`` against the
adaptive sweep that recorded it, and the certification of its roots."""

import numpy as np
import pytest

import shwave as sw
from shwave import dispersion
from shwave.decay import (MatchingConfig, decaying_phase_at_tail,
                          decaying_phase_batch)
from shwave.dispersion import DEFAULT_OPTIONS, SearchOptions
from shwave.propagate import replay_phase
from shwave.prufer import HALF_PI, IntegratorSettings

EXP = sw.from_registry("exp_density", {"rho_inf": 1.0, "drho": 5.0, "d": 1.0})
SHARP = sw.from_registry("smoothed_layer", {
    "rho_1": 2.5, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0, "y_s": 2.0,
    "width": 0.05})
LOOSE = SearchOptions(omega_grid_n=128, root_tol=1e-6, residual_tol=1e-2,
                      settings=IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9))


def _round0(monkeypatch, search):
    """(args, result) of the round-0 sweep of the refinement ``search``
    runs: the one _mismatch_batch call that records a mesh with the tail
    check on (the certification sweep records one without it)."""
    sweep = dispersion._mismatch_batch
    seen = []

    def spy(*args, **kwargs):
        out = sweep(*args, **kwargs)
        if kwargs.get("want_mesh") and kwargs.get("tail_check"):
            seen.append((args, out))
        return out

    monkeypatch.setattr(dispersion, "_mismatch_batch", spy)
    search()
    monkeypatch.undo()
    (got,) = seen
    return got


def _replay(problem, K, omegas, windows, mesh):
    """(phi0, phi+) of the members replayed on ``mesh``: the surface
    sweep from 0 and the decaying sweep from each accepted y_tail."""
    K = np.broadcast_to(K, omegas.shape)
    y_bar = np.array([w.y_bar for w in windows])
    y_tail = np.array([w.y_tail for w in windows])
    phi0 = replay_phase(problem, mesh, K, omegas, HALF_PI, 0.0, y_bar)
    phip = replay_phase(problem, mesh, K, omegas,
                        decaying_phase_at_tail(problem, (K, omegas), y_tail),
                        y_tail, y_bar)
    return phi0, phip


@pytest.mark.parametrize("profile, K", [(EXP, 16.0), (SHARP, 25.0)],
                         ids=["exp", "sharp_layer"])
def test_replay_matches_round0(profile, K, monkeypatch):
    # replayed on its own mesh, every round-0 member gets its adaptive
    # angles back: the Richardson propagator differs from the adaptive
    # angle's Richardson value only beyond the local error
    (problem, Ks, omegas, _, _), (_, phi0, phip, windows, mesh) = _round0(
        monkeypatch, lambda: sw.find_modes(profile, K))
    if profile is SHARP:     # the surface lane steps onto both breakpoints
        assert {1.95, 2.0} <= set(mesh[(0.0, K)].tolist())
    r0, rp = _replay(problem, Ks, omegas, windows, mesh)
    assert np.max(np.abs(r0 - phi0)) < 1e-12
    assert np.max(np.abs(rp - phip)) < 1e-12


def test_replay_independent_of_batch_mates(monkeypatch):
    # one K's lanes replayed alone and beside another K's lanes agree bit
    # for bit, so a trace equals find_modes at each k
    (problem, Ks, omegas, _, _), (_, _, _, windows, mesh) = _round0(
        monkeypatch, lambda: sw.trace_branches(EXP, [1.0, 2.0], LOOSE))
    assert set(Ks.tolist()) == {1.0, 4.0}
    one = Ks == 1.0
    beside = _replay(problem, Ks, omegas, windows, mesh)
    alone = _replay(problem, Ks[one], omegas[one],
                    [w for w, s in zip(windows, one) if s], mesh)
    for b, a in zip(beside, alone):
        assert np.array_equal(b[one], a)


def test_coarse_mesh_is_flagged(monkeypatch):
    # a mesh too coarse for the roots moves g_mesh by far more than
    # residual_tol; the certification sweep then flags the modes instead
    # of reporting roots of the coarse mesh as certified
    sweep = dispersion._mismatch_batch
    moved = []

    def coarse(problem, K, omegas, cfg, settings, tail_check=True,
               want_mesh=False):
        out = sweep(problem, K, omegas, cfg, settings, tail_check, want_mesh)
        if not want_mesh:
            return out
        reads = {w.y_bar for w in out[3]}
        mesh = {key: np.array([y for i, y in enumerate(b)
                               if i % 4 == 0 or y in reads or i == b.size - 1])
                for key, b in out[4].items()}
        g_fine = dispersion._mesh_mismatch(problem, K, omegas, out[3], out[4])
        g_coarse = dispersion._mesh_mismatch(problem, K, omegas, out[3], mesh)
        moved.append(np.max(np.abs(g_fine - g_coarse)))
        return out[:4] + (mesh,)

    monkeypatch.setattr(dispersion, "_mismatch_batch", coarse)
    res = sw.find_modes(EXP, 16.0)
    assert moved[0] > DEFAULT_OPTIONS.residual_tol
    flagged = [md for md in res.modes
               if md.flag and "mesh mismatch differs from adaptive" in md.flag]
    assert flagged


def test_read_off_the_mesh_raises(monkeypatch):
    (problem, Ks, omegas, _, _), (_, _, _, windows, mesh) = _round0(
        monkeypatch, lambda: sw.find_modes(EXP, 16.0))
    b = mesh[(0.0, 16.0)]
    off = 0.5 * (b[1] + b[2])
    with pytest.raises(ValueError, match="not a boundary"):
        replay_phase(problem, mesh, 16.0, omegas[:1], HALF_PI, 0.0, off)
    with pytest.raises(ValueError, match="no mesh"):
        replay_phase(problem, mesh, 9.0, omegas[:1], HALF_PI, 0.0, b[2])


def test_mesh_of_the_accepted_tail():
    # windows too short for the tail check move to the deepest doubled
    # window; the mesh passed out is that sweep's tail lane, not the
    # first sweep's tail or check lane, and it replays the accepted angles
    cfg = sw.matching_config(EXP, (16.0, 15.0))
    wins = [MatchingConfig(y_bar=y, y_tail=cfg.y_bar + 3.0)
            for y in (cfg.y_bar - 1.0, cfg.y_bar)]
    omegas = np.array([14.0, 15.0])
    y_bar = np.array([w.y_bar for w in wins])
    phip, _, windows, (phi0, _), mesh = decaying_phase_batch(
        EXP, 16.0, omegas, wins, surface=(16.0, omegas, y_bar), want_mesh=True)
    deepest = wins[0].stretched(2.0).y_tail
    assert [w.y_tail for w in windows] == [deepest, deepest]
    assert set(mesh) == {(0.0, 16.0), (deepest, 16.0)}
    r0, rp = _replay(EXP, 16.0, omegas, windows, mesh)
    assert np.max(np.abs(r0 - phi0)) < 1e-12
    assert np.max(np.abs(rp - phip)) < 1e-12
