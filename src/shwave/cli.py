"""Command-line entry point.

Reads a JSON run configuration, executes one task (classify, modes,
branches, estimate, oscillation) and writes a JSON report, a CSV of
matched modes for the mode/branch tasks, and optionally an SVG plot of
the dispersion branches.  Reports are byte-deterministic for a given
config (modulo the ``generated_at`` field).

Exit codes: 0 success, 1 configuration/validation error, 2 solver
error (a diagnostic report is still written), 3 the modes task hit a
proven non-existence verdict (a distinct outcome, not a failure).

Config schema ("schema": "shwave-run/1")::

    {
      "schema": "shwave-run/1",
      "profile": {"name": "exp_density",
                  "params": {"rho_inf": 1.0, "drho": 5.0, "d": 1.0, "mu": 1.0}},
      "task": "modes" | "branches" | "classify" | "estimate" | "oscillation",
      "k": 2.0,                  # modes/estimate/...
      "k_grid": [1, 2, 3]        # branches/estimate; or {"start","stop","num"}
      "tolerances": {"rel_tol":..., "abs_tol":..., "root_tol":...,
                     "residual_tol":..., "max_modes":..., "omega_grid_n":...},
      "space": "y" | "tau",
      "output": {"basename": "run"},
      "workers": 1
    }

Table profiles: ``{"name": "table", "params": {"rows": [[y, rho, mu], ...]}}``
or ``{"name": "table", "path": "samples.txt"}`` with whitespace-separated
``y rho mu`` rows.  A ``tolerances`` key other than the six above is a
configuration error, as are values that ``SearchOptions`` rejects; a
key left out keeps the ``SearchOptions`` default.
Counts must be integers, and tolerances and wavenumbers finite
numbers; a JSON boolean is neither.
``workers`` and the ``--workers`` flag are still accepted and must be a
positive integer, but they have no effect: the branches task refines
the brackets of its whole k-grid in one batch, in one process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import (SearchOptions, estimate_mode_count, find_modes,
                         oscillation_test, trace_branches)
from .errors import ProfileError, ShwaveError
from .profile import check_assumptions, classify, from_registry
from .prufer import IntegratorSettings

SCHEMA = "shwave-run/1"


def _integer(value):
    """int(value) for a count, refusing a bool or a fractional number."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError("expected an integer count, got %r" % (value,))
    return int(value)


def _number(value):
    """float(value) for a tolerance or wavenumber, refusing a bool or a
    non-finite number."""
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError("expected a finite number, got %r" % (value,))
    return float(value)


_TOLERANCES = {"abs_tol": _number, "max_modes": _integer,
               "omega_grid_n": _integer, "rel_tol": _number,
               "residual_tol": _number, "root_tol": _number}


class ConfigError(ValueError):
    pass


def _load_table_file(path: Path):
    rows = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("cannot read table file %s: %s" % (path, exc))
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) != 3:
            raise ConfigError(
                "%s:%d: expected 3 columns (y rho mu), got %d"
                % (path, lineno, len(parts)))
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ConfigError("%s:%d: non-numeric value" % (path, lineno))
    if len(rows) < 2:
        raise ConfigError("%s: table needs at least two rows" % path)
    return rows


def _build_profile(spec, base_dir: Path):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("config 'profile' must be {'name': ..., 'params': ...}")
    name = spec["name"]
    params = dict(spec.get("params") or {})
    if name == "table" and "path" in spec:
        params["rows"] = _load_table_file(base_dir / spec["path"])
    return from_registry(name, params)


def _k_grid(cfg):
    grid = cfg.get("k_grid")
    if grid is None:
        raise ConfigError("task requires 'k_grid'")
    try:
        if isinstance(grid, dict):
            ks = np.linspace(_number(grid["start"]), _number(grid["stop"]),
                             _integer(grid["num"]))
        else:
            ks = np.asarray([_number(k) for k in grid])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("k_grid must be a list of numbers or an object "
                          "with numeric start, stop and num: %r" % (exc,))
    if len(ks) == 0 or not np.all(ks > 0) or not np.all(np.diff(ks) > 0):
        raise ConfigError("k_grid must be positive and strictly increasing")
    with np.errstate(over="ignore"):
        if not np.all(np.square(ks) < math.inf):
            raise ConfigError("k_grid entries must have a finite square")
    return ks


def _k_single(cfg):
    if "k" not in cfg:
        raise ConfigError("task requires 'k'")
    try:
        k = _number(cfg["k"])
    except (TypeError, ValueError):
        raise ConfigError("k must be a finite number, got %r" % (cfg["k"],))
    if not k > 0:
        raise ConfigError("k must be positive")
    if not k * k < math.inf:
        raise ConfigError("k must have a finite square, got %r" % (k,))
    return k


def _options(cfg) -> SearchOptions:
    tol = dict(cfg.get("tolerances") or {})
    unknown = sorted(set(tol) - set(_TOLERANCES))
    if unknown:
        raise ConfigError("unknown tolerances key(s) %s; accepted: %s"
                          % (", ".join(unknown), ", ".join(_TOLERANCES)))
    try:
        values = {key: _TOLERANCES[key](value) for key, value in tol.items()}
        settings = IntegratorSettings(**{key: values.pop(key)
                                         for key in ("abs_tol", "rel_tol")
                                         if key in values})
        return SearchOptions(settings=settings,
                             space=str(cfg.get("space", "y")), **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid tolerances or space: %s" % exc)


def _check_workers(workers):
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer, got %r"
                          % (workers,))


def _mode_row(k, mode):
    return {
        "k": k, "omega": mode.omega, "K": mode.K, "Omega": mode.Omega,
        "mode_index": mode.m, "residual": mode.residual,
        "y_bar": mode.matching.y_bar, "y_tail": mode.matching.y_tail,
        "flag": mode.flag,
    }


def _csv_lines(rows):
    header = "k,omega,K,Omega,mode_index,residual,y_bar,y_tail"
    lines = [header]
    for r in sorted(rows, key=lambda r: (r["k"], r["mode_index"])):
        lines.append("%r,%r,%r,%r,%d,%r,%r,%r" % (
            r["k"], r["omega"], r["K"], r["Omega"], r["mode_index"],
            r["residual"], r["y_bar"], r["y_tail"]))
    return "\n".join(lines) + "\n"


def _svg_plot(branches, profile, cls, k_lo, k_hi):
    """Dispersion plot: one polyline per branch plus the two speed lines."""
    width, height, ml, mb, mt, mr = 800, 600, 70, 50, 20, 20
    c_hi = math.sqrt(profile.mu_inf / profile.rho_inf)
    c_lo = math.sqrt(cls.min_mu_over_rho)
    w_max = k_hi * c_hi * 1.05
    if not branches:
        w_max = max(w_max, 1.0)

    def sx(k):
        return ml + (k / k_hi) * (width - ml - mr)

    def sy(w):
        return height - mb - (w / w_max) * (height - mb - mt)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#17becf"]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    # axes
    parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                 % (ml, height - mb, width - mr, height - mb))
    parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                 % (ml, height - mb, ml, mt))
    for i in range(6):
        k = k_hi * i / 5.0
        w = w_max * i / 5.0
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                     % (sx(k), height - mb, sx(k), height - mb + 5))
        parts.append('<text x="%g" y="%g" font-size="12" text-anchor="middle">'
                     '%.3g</text>' % (sx(k), height - mb + 18, k))
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                     % (ml - 5, sy(w), ml, sy(w)))
        parts.append('<text x="%g" y="%g" font-size="12" text-anchor="end">'
                     '%.3g</text>' % (ml - 8, sy(w) + 4, w))
    parts.append('<text x="%g" y="%g" font-size="14" text-anchor="middle">k'
                 '</text>' % (0.5 * (ml + width - mr), height - 8))
    parts.append('<text x="16" y="%g" font-size="14" text-anchor="middle" '
                 'transform="rotate(-90 16 %g)">omega</text>'
                 % (0.5 * (mt + height - mb), 0.5 * (mt + height - mb)))
    # cutoff and floor speed lines
    for c, label in ((c_hi, "substrate speed"), (c_lo, "minimum speed")):
        parts.append(
            '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="gray" '
            'stroke-dasharray="6 4"/>' % (sx(0), sy(0), sx(k_hi),
                                          sy(min(k_hi * c, w_max))))
        parts.append('<text x="%g" y="%g" font-size="11" fill="gray">%s</text>'
                     % (sx(k_hi) - 120, sy(min(k_hi * c, w_max)) - 5, label))
    for b in branches:
        pts = " ".join("%g,%g" % (sx(k), sy(w)) for k, w in b.points)
        color = palette[(b.m - 1) % len(palette)]
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_fixtures(path: Path):
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    out = []
    for f in files:
        try:
            out.append((f.name, json.loads(f.read_text())))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("bad fixture %s: %s" % (f, exc))
    return out


def _oracle_comparison(fixtures, profile_spec, results_by_K):
    rows = []
    for fname, fx in fixtures:
        if fx.get("profile") != profile_spec:
            rows.append({"fixture": fname, "status": "profile mismatch"})
            continue
        K = float(fx["K"])
        match = results_by_K.get(K)
        if match is None:
            rows.append({"fixture": fname, "status": "no matching K in run"})
            continue
        ours = [m.Omega for m in match.modes]
        theirs = [float(v) for v in fx["omegas"]]
        row = {"fixture": fname, "K": K, "method": fx.get("method"),
               "count_solver": len(ours), "count_oracle": len(theirs)}
        if len(ours) == len(theirs) and ours:
            rel = max(abs(a - b) / abs(b) for a, b in zip(ours, theirs))
            row["max_rel_diff"] = rel
            row["status"] = "compared"
        elif not ours and not theirs:
            row["status"] = "both empty"
        else:
            row["status"] = "count mismatch"
        rows.append(row)
    return rows


def run(config: dict, base_dir: Path, out_dir: Path, plot: bool = False,
        workers: int | None = None, fixtures_path: Path | None = None) -> int:
    """Execute one configured task; returns the process exit code.

    ``workers`` (else the config's ``workers``) must be a positive
    integer if given; it has no effect.
    """
    if config.get("schema") != SCHEMA:
        raise ConfigError("config schema must be %r" % SCHEMA)
    task = config.get("task")
    if task not in ("classify", "modes", "branches", "estimate", "oscillation"):
        raise ConfigError("unknown task %r" % task)
    profile_spec = config.get("profile")
    profile = _build_profile(profile_spec, base_dir)
    _check_workers(config.get("workers", 1) if workers is None else workers)
    basename = (config.get("output") or {}).get("basename", "shwave_" + task)
    opts = _options(config)

    report = {
        "schema": SCHEMA,
        "version": __version__,
        "task": task,
        "inputs": config,
        "tolerances": {
            "rel_tol": opts.settings.rel_tol, "abs_tol": opts.settings.abs_tol,
            "root_tol": opts.root_tol, "residual_tol": opts.residual_tol,
            "max_modes": opts.max_modes, "omega_grid_n": opts.omega_grid_n,
        },
    }
    exit_code = 0
    csv_rows = []
    branches = results_by_K = None
    cls = classify(profile)
    report["classification"] = asdict(cls)

    if task == "classify":
        report["assumptions"] = asdict(check_assumptions(profile))
    elif task == "modes":
        k = _k_single(config)
        res = find_modes(profile, k * k, opts, classification=cls)
        report["interval"] = list(res.interval)
        report["truncated"] = res.truncated
        report["modes"] = [_mode_row(k, m) for m in res.modes]
        csv_rows = report["modes"]
        if res.nonexistence_reason:
            report["verdict"] = res.nonexistence_reason
            exit_code = 3
        results_by_K = {k * k: res}
    elif task == "branches":
        ks = _k_grid(config)
        branches, results = trace_branches(profile, ks, opts,
                                           classification=cls)
        report["branches"] = [
            {"mode_index": b.m,
             "points": [[k, w] for k, w in b.points],
             "gaps": list(b.gaps)}
            for b in branches
        ]
        for k, res in zip(ks, results):
            csv_rows.extend(_mode_row(float(k), m) for m in res.modes)
        results_by_K = {res.K: res for res in results}
    elif task == "estimate":
        ks = _k_grid(config) if "k_grid" in config else [_k_single(config)]
        report["estimates"] = [
            {"k": float(k),
             "estimate": estimate_mode_count(profile, float(k) ** 2)}
            for k in ks
        ]
    elif task == "oscillation":
        report["oscillation"] = asdict(oscillation_test(profile))
    if fixtures_path is not None and results_by_K is not None:
        report["oracle_comparison"] = _oracle_comparison(
            _load_fixtures(fixtures_path), profile_spec, results_by_K)

    out_dir.mkdir(parents=True, exist_ok=True)
    if csv_rows or task in ("modes", "branches"):
        (out_dir / (basename + ".csv")).write_text(_csv_lines(csv_rows))
    if plot and branches is not None:
        svg = _svg_plot(branches, profile, cls, float(ks[0]), float(ks[-1]))
        (out_dir / (basename + ".svg")).write_text(svg)
    report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _write_report(out_dir / (basename + ".json"), report)
    return exit_code


def _write_report(path: Path, report: dict):
    def clean(x):
        if isinstance(x, float) and (math.isinf(x) or math.isnan(x)):
            return repr(x)
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        return x

    path.write_text(json.dumps(clean(report), indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shwave",
        description="Surface shear-wave dispersion for depth-graded half-spaces")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--plot", action="store_true",
                        help="write an SVG dispersion plot (branches task)")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility, no effect; must be "
                             "a positive integer")
    parser.add_argument("--output-dir", default=".")
    parser.add_argument("--fixtures", default=None,
                        help="fixture file or directory for oracle comparison")
    args = parser.parse_args(argv)

    cfg_path = Path(args.config)
    out_dir = Path(args.output_dir)
    try:
        config = json.loads(cfg_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print("error: cannot load config %s: %s" % (cfg_path, exc),
              file=sys.stderr)
        return 1

    try:
        return run(config, cfg_path.parent, out_dir, plot=args.plot,
                   workers=args.workers,
                   fixtures_path=Path(args.fixtures) if args.fixtures else None)
    except (ConfigError, ProfileError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ShwaveError as exc:
        diag = {
            "schema": SCHEMA,
            "task": config.get("task"),
            "inputs": config,
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "traceback": traceback.format_exc()},
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        basename = (config.get("output") or {}).get(
            "basename", "shwave_" + str(config.get("task")))
        _write_report(out_dir / (basename + ".json"), diag)
        print("solver error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
