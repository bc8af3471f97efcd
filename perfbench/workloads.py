"""The workloads: inputs, the operations of one pass, and their checks.

One operation is one call into shwave's public surface (``find_modes``,
``reconstruct_mode_shape`` or the CLI's ``main``).  Each is checked against
references from ``reference.py``, never against stored solver output.  An
operation fails when it raises, when its mode count differs from the
reference, when a frequency or shape misses the reference tolerance, when a
mode carries a flag, when a mode lies outside the admissible interval, or
when the mode indices are not 1..N.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import reference as ref

# Tolerances, relative in Omega.  The solver certifies roots to 1e-10 at its
# default settings; the FD reference is trusted to 1e-6 once its gates pass.
TOL_BESSEL = 1e-8
TOL_FD = 1e-6
TOL_BESSEL_LOOSE = 1e-5           # the CLI run's root_tol is 1e-6
TOL_SHAPE = 1e-6                  # absolute, relative to max |u|

EXP = {"name": "exp_density", "params": {"rho_inf": 1.0, "drho": 5.0, "d": 1.0}}
EXP_ARGS = (1.0, 5.0, 1.0, 1.0)   # rho_inf, drho, d, mu of EXP
EXP_LO = 1.0 / 6.0                # min mu/rho of EXP, at the surface
LAYER = {"name": "smoothed_layer",
         "params": {"rho_1": 2.5, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0,
                    "y_s": 2.0, "width": 1.0}}
SHARP = {"name": "smoothed_layer",
         "params": dict(LAYER["params"], width=0.05)}

BRANCH_KS = [float(k) for k in range(1, 9)]
LOOSE = {"omega_grid_n": 128, "root_tol": 1e-6, "residual_tol": 1e-2,
         "rel_tol": 1e-6, "abs_tol": 1e-9}


class CheckFailed(Exception):
    """An operation's output missed its reference."""


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]            # timed: the solver call
    check: Callable[[Any, dict], int]     # returns the modes it verified
    setup: Optional[Callable[[dict], None]] = None      # untimed
    teardown: Optional[Callable[[dict], None]] = None   # untimed
    expect_failure: bool = False          # a known fault, failing every pass


@dataclass
class Workload:
    profiles: list                        # specs built during set-up
    ops: list


# ---------------------------------------------------------------------------
# checks


def _check_spectrum(K, found, refspec, tol, lo_ratio, hi_ratio):
    """found: [(m, Omega, flag)] in ascending Omega."""
    if not refspec.usable:
        raise CheckFailed("reference unusable at K=%g: %s" % (K, refspec.note))
    flagged = [(m, flag) for m, _, flag in found if flag]
    if flagged:
        raise CheckFailed("K=%g flagged modes %s" % (K, flagged))
    if len(found) != len(refspec.omegas):
        raise CheckFailed("K=%g: %d modes, reference has %d"
                          % (K, len(found), len(refspec.omegas)))
    if [m for m, _, _ in found] != list(range(1, len(found) + 1)):
        raise CheckFailed("K=%g: indices %s are not 1..N"
                          % (K, [m for m, _, _ in found]))
    for (m, om, _), om_ref in zip(found, refspec.omegas):
        if not lo_ratio * K < om < hi_ratio * K:
            raise CheckFailed("K=%g mode %d: Omega=%r outside (%r, %r)"
                              % (K, m, om, lo_ratio * K, hi_ratio * K))
        if abs(om - om_ref) > tol * om_ref:
            raise CheckFailed("K=%g mode %d: Omega=%r, reference %r (rel %.2e)"
                              % (K, m, om, om_ref, abs(om - om_ref) / om_ref))
    return len(found)


def _modes_op(sw, name, profile, K, refspec, tol, lo_ratio, hi_ratio,
              space="y", key=None, expect_failure=False):
    opts = sw.SearchOptions(space=space)

    def run(state):
        res = sw.find_modes(profile, K, opts)
        if key:
            state[key] = res
        return res

    def check(res, state):
        found = [(m.m, m.Omega, m.flag) for m in res.modes]
        return _check_spectrum(K, found, refspec, tol, lo_ratio, hi_ratio)

    return Op(name, run, check, expect_failure=expect_failure)


def _shape_op(sw, profile, K, key, m, ys):
    def run(state):
        return sw.reconstruct_mode_shape(profile, state[key].modes[m - 1], ys)

    def check(u, state):
        mode = state[key].modes[m - 1]
        u_ref = ref.bessel_shape(*EXP_ARGS, K, mode.Omega, ys)
        err = float(np.max(np.abs(u - u_ref)))
        if not err <= TOL_SHAPE * float(np.max(np.abs(u_ref))):
            raise CheckFailed("shape m=%d misses J_nu by %.2e" % (m, err))
        return 0

    return Op("shape exp K=%g m=%d" % (K, m), run, check)


def _layer_ratios(spec):
    """(min mu/rho, mu_inf/rho_inf) of a smoothed layer."""
    p = spec["params"]
    substrate = p["mu_s"] / p["rho_s"]
    return min(p["mu_1"] / p["rho_1"], substrate), substrate


def _fd(profile, K):
    return ref.fd_spectrum(profile.rho_fn, profile.mu_fn, profile.rho_inf,
                           profile.mu_inf, K)


# ---------------------------------------------------------------------------
# workloads


def modes_exp(sw, seed, out_dir):
    """find_modes on the exponential profile at K=16, then every mode shape."""
    K = 16.0
    profile = sw.from_registry(EXP["name"], EXP["params"])
    bes = ref.bessel_spectrum(*EXP_ARGS, K)
    rng = np.random.default_rng(seed)
    ys = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 8.0, 32))])
    ops = [_modes_op(sw, "find_modes exp K=16", profile, K, bes, TOL_BESSEL,
                     EXP_LO, 1.0, key="exp16")]
    ops += [_shape_op(sw, profile, K, "exp16", m, ys)
            for m in range(1, len(bes.omegas) + 1)]
    return Workload([EXP], ops)


def branches_cli(sw, seed, out_dir):
    """CLI branches task on the exponential profile, k = 1..8, loosened."""
    import shwave.cli

    refs = {k: ref.bessel_spectrum(*EXP_ARGS, k * k) for k in BRANCH_KS}
    config = {"schema": "shwave-run/1", "profile": EXP, "task": "branches",
              "k_grid": BRANCH_KS, "tolerances": LOOSE, "space": "y",
              "output": {"basename": "branches"}, "workers": 1}

    def setup(state):
        d = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        (d / "run.json").write_text(json.dumps(config))
        state["cli_dir"] = d

    def run(state):
        d = state["cli_dir"]
        return shwave.cli.main(["--config", str(d / "run.json"),
                                "--output-dir", str(d / "out")])

    def check(code, state):
        if code != 0:
            raise CheckFailed("shwave exited with %r" % code)
        out = state["cli_dir"] / "out"
        report = json.loads((out / "branches.json").read_text())
        gaps = [b["gaps"] for b in report["branches"] if b["gaps"]]
        if gaps:
            raise CheckFailed("branches with gaps: %s" % gaps)
        with open(out / "branches.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_k = {k: [] for k in BRANCH_KS}
        for r in rows:
            if float(r["residual"]) > LOOSE["residual_tol"]:
                raise CheckFailed("k=%s mode %s residual %s" % (
                    r["k"], r["mode_index"], r["residual"]))
            by_k[float(r["k"])].append((int(r["mode_index"]),
                                        float(r["Omega"]), None))
        counts = []
        for k in BRANCH_KS:
            found = sorted(by_k[k], key=lambda t: t[1])
            counts.append(_check_spectrum(k * k, found, refs[k],
                                          TOL_BESSEL_LOOSE, EXP_LO, 1.0))
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise CheckFailed("N(k) decreases: %s" % counts)
        return sum(counts)

    def teardown(state):
        shutil.rmtree(state.pop("cli_dir"), ignore_errors=True)

    return Workload([EXP], [Op("cli branches k=1..8", run, check, setup,
                                teardown)])


def modes_tau(sw, seed, out_dir):
    """The same spectra through the tau coordinate."""
    exp = sw.from_registry(EXP["name"], EXP["params"])
    layer = sw.from_registry(LAYER["name"], LAYER["params"])
    ops = [
        _modes_op(sw, "find_modes tau exp K=1", exp, 1.0,
                  ref.bessel_spectrum(*EXP_ARGS, 1.0), TOL_BESSEL, EXP_LO, 1.0,
                  space="tau"),
        _modes_op(sw, "find_modes tau layer K=4", layer, 4.0, _fd(layer, 4.0),
                  TOL_FD, *_layer_ratios(LAYER), space="tau"),
    ]
    return Workload([EXP, LAYER], ops)


def modes_layered(sw, seed, out_dir):
    """Piecewise layers with breakpoints and exactly constant tails."""
    layer = sw.from_registry(LAYER["name"], LAYER["params"])
    sharp = sw.from_registry(SHARP["name"], SHARP["params"])
    ops = [
        _modes_op(sw, "find_modes layer K=25", layer, 25.0, _fd(layer, 25.0),
                  TOL_FD, *_layer_ratios(LAYER)),
        # breakpoints never reach the scan and refine sweeps, so modes 1
        # and 3 come back flagged "residual above tolerance"
        _modes_op(sw, "find_modes sharp layer K=25", sharp, 25.0,
                  _fd(sharp, 25.0), TOL_FD, *_layer_ratios(SHARP),
                  expect_failure=True),
    ]
    return Workload([LAYER, SHARP], ops)


WORKLOADS = {
    "modes-exp": modes_exp,
    "branches-cli": branches_cli,
    "modes-tau": modes_tau,
    "modes-layered": modes_layered,
}
