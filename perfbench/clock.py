"""Times scaled to a fixed speed of the host.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a factor of two within seconds (one ``find_modes`` call, repeated in one
process, took from 1.0 s to 2.3 s).  A run median of wall times then says
more about the neighbours than about the program.  So the speed is measured
alongside every timed call with a calibration loop: small-array numpy
arithmetic in the style of the solver's inner step, written here and
sharing no code with shwave, so no change to shwave can change its time.
The loop runs before and after the call, and during it one short chunk
every ``SAMPLE_PERIOD_S`` on a timer signal.  A call's scaled time is its
wall time, less the samples, times ``CALIB_REF_S`` over the mean chunk
time: the time the call would have taken at the speed at which one chunk
takes ``CALIB_REF_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

CALIB_ITERS = 1500        # one chunk, about 0.03 s
CALIB_CHUNKS = 3          # a calibration is the median of this many chunks
SAMPLE_ITERS = 200        # one chunk while a call runs, about 5 ms
SAMPLE_PERIOD_S = 0.2
# the median chunk time on the machine of README.md at its fast speed
CALIB_REF_S = 0.025


def _chunk(n=CALIB_ITERS):
    x = np.linspace(0.1, 1.0, 8)
    phi = np.linspace(0.0, 3.0, 8)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(n):
        g = x * (1.0 + 1e-4 * i)
        disc = g * g - 0.5 * x
        s = np.sqrt(np.abs(disc))
        hyp = disc > 0.0
        e2 = np.exp(-2.0 * np.minimum(np.where(hyp, s, 0.0), 350.0))
        c = np.where(hyp, 0.5 * (1.0 + e2), np.cos(s))
        f = np.where(hyp, 0.5 * (1.0 - e2), np.sin(s))
        w = c * np.cos(phi) + f * np.sin(phi)
        acc += float(np.max(np.abs(w))) + math.sqrt(i + 1.0)
    return time.perf_counter() - t0


class Clock:
    """Wall and scaled times of calls.

    A calibration runs before and after every timed call, and during the
    call a timer signal runs one short chunk every ``SAMPLE_PERIOD_S``, so
    that a long call is scaled by the speed the host gave it throughout.
    The time spent in those samples is taken out of the call's wall time.
    """

    def __init__(self):
        self.last = self.calibrate()
        self._samples = []
        self._sampled_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def calibrate(self):
        return statistics.median(_chunk() for _ in range(CALIB_CHUNKS))

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(_chunk(SAMPLE_ITERS) * (CALIB_ITERS / SAMPLE_ITERS))
        self._sampled_s += time.perf_counter() - t0

    def time(self, fn, *args):
        """(result or None, exception or None, wall s, scaled s)."""
        before = self.last
        self._samples, self._sampled_s = [], 0.0
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:   # the caller counts it as a failed call
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - t0 - self._sampled_s
        self.last = self.calibrate()
        speed = statistics.fmean([before, self.last] + self._samples)
        return result, error, wall, wall * CALIB_REF_S / speed
