"""The machine's speed, sampled while the benchmark runs.

Some machines switch between speed states: a 2-CPU virtual machine
went between states about 1.5x apart, each lasting from seconds to
minutes, and the same round of operations took from 0.48 s to 0.90 s
within one process. A timer signal therefore interrupts the measured
process every PERIOD_S seconds and times a fixed piece of pure-Python
work, calibration(), that uses no code of the package. Each sample is that work's duration. A measured
interval is then scaled by REFERENCE_S over the mean sample taken
within WINDOW_S of it: the time the interval would have taken at the
speed where the calibration takes REFERENCE_S. The time the handler
itself runs is taken out of every interval it falls in.

    meter = speed.Meter(); meter.start()
    t0 = time.perf_counter(); work(); t1 = time.perf_counter()
    meter.stop()
    meter.scaled(t0, t1)   # reference-speed seconds of work()
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.1
WINDOW_S = 0.5
REFERENCE_S = 0.002
CALIBRATION_ROUNDS = 6


def calibration():
    """Dictionary, tuple, frozenset and sorting work, the kind of work
    the package's evaluators do; it tracked the speed states better than
    an arithmetic loop."""
    for _ in range(CALIBRATION_ROUNDS):
        d = {}
        for i in range(400):
            d[(i, str(i))] = frozenset((i, i + 1))
        sorted(d, key=lambda t: t[1])


class Meter:
    """Speed samples of one process, and intervals scaled by them."""

    def __init__(self):
        self.starts = []     # handler start times, ascending
        self.ends = []       # handler end times
        self.cal = []        # calibration durations

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        calibration()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.cal.append(t1 - t0)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def raw(self, t0, t1):
        """Seconds from t0 to t1 without the handler's own time."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        stolen = sum(min(e, t1) - s for s, e in
                     zip(self.starts[lo:hi], self.ends[lo:hi]))
        return t1 - t0 - stolen

    def factor(self, t0, t1):
        """REFERENCE_S over the mean calibration sampled within WINDOW_S
        of the interval."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.cal[lo:hi] or self.cal
        return REFERENCE_S * len(near) / sum(near)

    def scaled(self, t0, t1):
        return self.raw(t0, t1) * self.factor(t0, t1)


class Plain:
    """Unscaled time, for the traced run: a timer signal would land in
    the layers' spans."""

    def raw(self, t0, t1):
        return t1 - t0

    scaled = raw
