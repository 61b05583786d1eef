"""Machine-speed normalisation of wall times.

The CPU speed a process sees in a shared VM swings by up to 1.7x over
seconds to tens of seconds (measured on a shared 2-vCPU x86-64 VM: a fixed
loop took 20 ms or 32 ms per iteration depending on when it ran), so wall
times of identical runs spread far beyond any useful regression bound. A fixed
pure-Python probe (dict stores and integer arithmetic, like the program's
scalar paths) is timed before, during (every INTERVAL_S, from a SIGALRM
handler) and after each measured block. The block's wall time minus the
time spent in probes is its raw time; multiplied by REFERENCE_S over the
mean probe time it is the time at the reference speed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PROBE_N = 6000
REFERENCE_S = 0.0009   # the probe on an idle 2-vCPU x86-64 VM
INTERVAL_S = 0.1


def probe():
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_N):
        table[(i * 7919) % 100003] = i
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedMeter:
    """`with meter.measure(): ...` sets `meter.raw` (seconds, probes
    excluded) and `meter.scaled` (seconds at the reference speed)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.raw = self.scaled = None

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def measure(self):
        self.samples = [probe()]
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(probe())
            self.raw = elapsed - self.spent
            self.scaled = self.raw * REFERENCE_S / statistics.fmean(
                self.samples)
