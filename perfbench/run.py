"""shwave benchmark: one workload, one process, one JSON line of results.

    python3 perfbench/run.py --workload modes-exp --seed 1 --seconds 10 --trace 0

Runs whole passes over the workload's operations, starting a pass only
while one of the usual length still ends within ``--seconds`` (at least one
pass), and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  Times are wall times
scaled to a fixed speed of the host (see clock.py).  With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, solve_s, modes_per_s,
peak_rss_mb).  With ``--trace 1`` one untraced pass is followed by at least
two passes with the layer boundaries wrapped, and the metrics are the
per-layer ones plus the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 9

# BLAS threads capped at the cores this process may use, before numpy loads
_NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _NPROC

# process start to ready: interpreter, ``import shwave``, profile construction
_PROBE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import shwave; "
          "[shwave.from_registry(p['name'], p['params']) "
          "for p in json.loads(sys.argv[2])]; print('ready', flush=True)")


def measure_setup(profiles, clock):
    """Median scaled time of SETUP_PROBES fresh processes' start to ready.

    The probes are scaled together, by the median calibration around them:
    the child's imports keep both cores busy, so no sample may run during a
    probe, and one probe's own calibrations follow its time too loosely to
    scale it alone.
    """
    from clock import CALIB_REF_S

    walls, calibs = [], [clock.calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC),
                               json.dumps(profiles)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        walls.append(t1 - t0)
        calibs.append(clock.calibrate())
    return statistics.median(walls) * CALIB_REF_S / statistics.median(calibs)


def run_pass(ops, clock, tracer=None):
    """One pass over the operations: (scaled solve s, wall solve s, modes,
    failures)."""
    state = {}
    solve_s, wall_s, modes, failures = 0.0, 0.0, 0, []
    for op in ops:
        try:
            if op.setup:
                op.setup(state)
            if tracer is None:
                result, error, wall, scaled = clock.time(op.run, state)
            else:
                result, error, wall, scaled = clock.time(
                    tracer.span, "op", op.run, state)
            solve_s += scaled
            wall_s += wall
            if error is not None:
                raise error
            modes += op.check(result, state)
        except Exception as exc:   # any failure of an operation is counted
            failures.append((op, "%s: %s" % (type(exc).__name__, exc)))
        finally:
            if op.teardown:
                op.teardown(state)
    return solve_s, wall_s, modes, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shwave" / "__init__.py").is_file():
        print("error: no shwave sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shwave

    import reference
    import tracing
    from clock import Clock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; known: %s"
              % (args.workload, sorted(WORKLOADS)), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    checks = reference.self_check()
    print("reference self-check: FD vs Bessel at K=16 rel %.2e"
          % checks["fd_vs_bessel_rel"])
    workload = WORKLOADS[args.workload](shwave, args.seed, OUT)
    clock = Clock()
    setup_s = None if args.trace else measure_setup(workload.profiles, clock)

    passes = []            # (scaled solve_s, wall solve_s, modes, failures, layers)
    durations = []         # wall time of each whole pass, checks included
    tracer = None
    start = time.perf_counter()

    def one_pass():
        t0 = time.perf_counter()
        if tracer:
            tracer.reset_totals()
        result = run_pass(workload.ops, clock, tracer)
        layers = tracing.layer_metrics(tracer) if tracer else None
        passes.append(result + (layers,))
        durations.append(time.perf_counter() - t0)
        report_pass(passes)

    if args.trace:
        one_pass()
        tracer = tracing.Tracer()
        tracing.install(tracer, shwave)
    min_passes = 3 if args.trace else 1
    # a pass starts only if a pass of the usual length ends within --seconds
    while len(passes) < min_passes or (time.perf_counter() - start
                                       + statistics.median(durations)
                                       <= args.seconds):
        one_pass()

    attempted = len(workload.ops) * len(passes)
    failed = sum(len(p[3]) for p in passes)
    unexpected = [(op.name, why) for p in passes for op, why in p[3]
                  if not op.expect_failure]
    for name, why in unexpected:
        print("UNEXPECTED FAILURE %s: %s" % (name, why), file=sys.stderr)
    correct = not unexpected

    if tracer is None:
        solve_total = sum(p[0] for p in passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (statistics.median(p[0] for p in passes), "s"),
            "modes_per_s": (sum(p[2] for p in passes) / solve_total, "modes/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        metrics = trace_metrics(passes)
        path = OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        print("spans written to %s" % path)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report_pass(passes):
    solve_s, wall_s, modes, failures, layers = passes[-1]
    print("pass %d%s: %.3f s scaled, %.3f s wall, %d modes, failed: %s"
          % (len(passes), "" if layers is None else " (traced)", solve_s,
             wall_s, modes, [(op.name, why) for op, why in failures] or "none"),
          flush=True)


def trace_metrics(passes):
    """Counts from the first traced pass, which every later traced pass
    must repeat exactly; times are medians over the traced passes."""
    layers = [p[4] for p in passes[1:]]
    first = layers[0]
    out, drift = {}, []
    for k, (v, unit) in first.items():
        if unit in ("s", "us"):
            v = statistics.median(lay[k][0] for lay in layers)
        elif any(lay[k][0] != v for lay in layers[1:]):
            drift.append(k)
            print("COUNT DRIFT %s: %s" % (k, [lay[k][0] for lay in layers]),
                  file=sys.stderr)
        out[k] = (v, unit)
    traced = statistics.median(p[0] for p in passes[1:])
    out["trace.solve_s"] = (traced, "s")
    out["trace.untraced_solve_s"] = (passes[0][0], "s")
    out["trace.overhead_s"] = (traced - passes[0][0], "s")
    out["trace.count_drift"] = (len(drift), "count")
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
