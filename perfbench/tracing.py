"""Spans and counts at shwave's layer boundaries, installed from outside.

The package is not edited: ``install`` replaces module-level functions and
class methods with timing wrappers.  A name imported by value (for example
``matching_config`` inside ``dispersion``) is replaced wherever a module of
the package holds the same function object, so the wrapper runs whichever
namespace the caller looks the name up in.

Every wrapped call updates per-name call counts, self time (duration minus
the wrapped calls it made) and inclusive time.  Calls of the "hot" leaves
(one Magnus step, one profile or tau-map evaluation, hundreds of thousands
per pass) are only aggregated; every other call is also kept as a span
(op, id, parent, name, start, end) and written out at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path



class Tracer:
    def __init__(self):
        self.spans = []                    # (op, id, parent, name, t0, t1)
        self.calls = Counter()
        self.counts = Counter()            # work counts reported by callbacks
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.op = 0
        self._stack = []                   # [span id, name, child seconds]
        self._ids = itertools.count(1)

    def reset_totals(self):
        self.calls.clear()
        self.counts.clear()
        self.self_s.clear()
        self.total_s.clear()

    def wrap(self, name, fn, hot=False, count=None):
        """``fn`` timed as span ``name``; ``count(counts, args, kwargs,
        result, parent_name)`` adds the call's work counts."""
        stack, calls, counts = self._stack, self.calls, self.counts
        self_s, total_s, spans = self.self_s, self.total_s, self.spans
        ids, perf = self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0 if hot else next(ids), name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[2]
                total_s[name] += dur
                if parent is not None:
                    parent[2] += dur
                if not hot:
                    spans.append((self.op, frame[0],
                                  parent[0] if parent else 0, name, t0, t1))
            if count is not None:
                count(counts, args, kwargs, result,
                      parent[1] if parent else None)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new operation."""
        self.op += 1
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


def _report_bytes(counts, args, kwargs, result, parent):
    out_dir = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    counts["cli.report_bytes"] += sum(f.stat().st_size for f in out_dir.iterdir())


def _refine_or_scan(counts, args, kwargs, result, parent):
    if parent == "dispersion._refine_brackets":
        counts["dispersion.refine_rounds"] += 1
    elif parent == "dispersion.find_modes":
        counts["dispersion.scan_sweeps"] += 1


def _modes(counts, args, kwargs, result, parent):
    counts["dispersion.modes"] += len(result.modes)


def _brackets(counts, args, kwargs, result, parent):
    counts["dispersion.brackets"] += len(args[2])


def _tail_sweep(counts, args, kwargs, result, parent):
    if parent == "decay.decaying_phase_batch":
        counts["decay.tail_sweeps"] += 1


def _rk_work(counts, args, kwargs, result, parent):
    counts["rk.steps"] += result.nsteps
    counts["rk.fevals"] += result.nfev


def _members(counts, args, kwargs, result, parent):
    counts["propagate.members"] += args[4].size


def _tau_points(counts, args, kwargs, result, parent):
    counts["liouville.y_of_points"] += getattr(args[1], "size", 1)


def _coef_points(counts, args, kwargs, result, parent):
    counts["profile.coef_points"] += getattr(args[1], "size", 1)


# (module, attribute or Class.method, span name, hot, count callback)
_TARGETS = (
    ("cli", "run", "cli.run", False, _report_bytes),
    ("dispersion", "trace_branches", "dispersion.trace_branches", False, None),
    ("dispersion", "find_modes", "dispersion.find_modes", False, _modes),
    ("dispersion", "_mismatch_batch", "dispersion._mismatch_batch", False,
     _refine_or_scan),
    ("dispersion", "_refine_brackets", "dispersion._refine_brackets", False,
     _brackets),
    ("dispersion", "_polish_depths", "dispersion._polish_depths", False, None),
    ("decay", "matching_config", "decay.matching_config", False, None),
    ("decay", "decaying_phase_batch", "decay.decaying_phase_batch", False, None),
    ("decay", "decaying_phase", "decay.decaying_phase", False, None),
    ("prufer", "phase_batch", "prufer.phase_batch", False, _tail_sweep),
    ("prufer", "integrate_phase", "prufer.integrate_phase", False, None),
    ("prufer", "reconstruct_mode_shape", "prufer.reconstruct_mode_shape", False,
     None),
    ("rk", "solve", "rk.solve", False, _rk_work),
    ("propagate", "sweep_phase", "propagate.sweep_phase", False, None),
    ("propagate", "_frozen_step", "propagate._frozen_step", True, _members),
    ("liouville", "build_tau", "liouville.build_tau", False, None),
    ("liouville", "TauMap.y_of", "liouville.y_of", True, _tau_points),
    ("profile", "classify", "profile.classify", False, None),
) + tuple(
    ("profile", "MaterialProfile." + meth, "profile.coef", True, _coef_points)
    for meth in ("coef_pair", "stiffness", "eval", "rho", "mu"))


def install(tracer: Tracer, shwave):
    """Wrap every target in every module of the package that holds it."""
    import importlib

    modules = [shwave] + [importlib.import_module("shwave." + m)
                          for m in ("cli", "decay", "dispersion", "liouville",
                                    "profile", "propagate", "prufer", "rk")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    for mod_name, attr, name, hot, count in _TARGETS:
        home = by_name[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hot, count))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, hot, count)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``_s`` is self time, ``_total_s`` inclusive time; every metric whose
    unit is not a time is an exact count that a repeat pass must match.
    """
    c, n, s, t = tr.counts, tr.calls, tr.self_s, tr.total_s
    steps = n["propagate._frozen_step"]
    return {
        "dispersion.refine_rounds": (c["dispersion.refine_rounds"], "count"),
        "dispersion.refine_total_s": (t["dispersion._refine_brackets"], "s"),
        "dispersion.brackets": (c["dispersion.brackets"], "count"),
        "dispersion.polish_s": (s["dispersion._polish_depths"], "s"),
        "dispersion.scan_sweeps": (c["dispersion.scan_sweeps"], "count"),
        "dispersion.find_modes_calls": (n["dispersion.find_modes"], "count"),
        "dispersion.modes": (c["dispersion.modes"], "count"),
        "propagate.sweeps": (n["propagate.sweep_phase"], "count"),
        "propagate.sweep_s": (s["propagate.sweep_phase"], "s"),
        "propagate.members_per_step":
            (c["propagate.members"] / steps if steps else 0.0, "members"),
        "propagate.frozen_steps": (steps, "count"),
        "propagate.frozen_step_s": (s["propagate._frozen_step"], "s"),
        "propagate.frozen_step_us":
            (1e6 * s["propagate._frozen_step"] / steps if steps else 0.0, "us"),
        "prufer.phase_batch_calls": (n["prufer.phase_batch"], "count"),
        "prufer.integrate_phase_calls": (n["prufer.integrate_phase"], "count"),
        "rk.solves": (n["rk.solve"], "count"),
        "rk.steps": (c["rk.steps"], "count"),
        "rk.fevals": (c["rk.fevals"], "count"),
        "rk.solve_s": (s["rk.solve"], "s"),
        "decay.matching_config_calls": (n["decay.matching_config"], "count"),
        "decay.matching_config_s": (s["decay.matching_config"], "s"),
        "decay.tail_batches": (n["decay.decaying_phase_batch"], "count"),
        "decay.tail_sweeps": (c["decay.tail_sweeps"], "count"),
        "liouville.build_tau_calls": (n["liouville.build_tau"], "count"),
        "liouville.build_tau_s": (s["liouville.build_tau"], "s"),
        "liouville.y_of_points": (c["liouville.y_of_points"], "count"),
        "liouville.y_of_s": (s["liouville.y_of"], "s"),
        "profile.coef_calls": (n["profile.coef"], "count"),
        "profile.coef_points": (c["profile.coef_points"], "count"),
        "profile.coef_s": (s["profile.coef"], "s"),
        "profile.classify_calls": (n["profile.classify"], "count"),
        "cli.run_s": (s["cli.run"], "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
        "trace.wrapped_calls": (sum(n.values()), "count"),
    }
