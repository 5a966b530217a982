"""Scaling measured times to a reference machine speed.

The benchmark's host is shared: its speed drifts by 10-40% over seconds to
minutes under load from other tenants, and the library's hot paths are
interpreter-bound.  So the benchmark times a fixed pure-Python loop
(``calibrate``) next to the work it measures and scales each timed interval
by ``CALIBRATION_REF_S / calibration``.  The library's own speed is kept
(the loop calls no library code) and most of the host's drift cancels.

Long operations are sampled from inside: while a ``SpeedSampler`` is active,
a timer signal interrupts the main thread every ``SAMPLE_INTERVAL_S``
seconds of work to run one calibration.  The pause is cut out of the
operation's time, and each stretch of work between two samples is scaled by
their mean.  (Calibrations only before and after an operation spread far
more: the host's speed changes during a 15 s operation; see README.md.)
"""
from __future__ import annotations

import math
import signal
import time

# Seconds one calibration takes on the reference machine (2 vCPU Xeon,
# Python 3.11, unloaded).
CALIBRATION_REF_S = 0.03
CALIBRATION_ROUNDS = 240_000
SAMPLE_INTERVAL_S = 0.3


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python loop."""
    start = time.perf_counter()
    cells = [0.0] * 16
    best = 0.0
    for i in range(CALIBRATION_ROUNDS):
        a = i & 15
        cells[a] += math.exp(-1e-6 * i)
        if cells[a] > best:
            best = cells[a]
    return time.perf_counter() - start


def bracketed(times: list[float], calibrations: list[float]) -> list[float]:
    """Scale interval i, which ran between calibrations i and i + 1."""
    return [t * 2 * CALIBRATION_REF_S / (before + after)
            for t, before, after in zip(times, calibrations, calibrations[1:])]


class SpeedSampler:
    """Calibration samples taken on a timer while active, and the scaling of
    intervals between them.  Use as a context manager in the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, end, s
        self._previous_handler = None

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = calibrate()
        self.samples.append((start, time.perf_counter(), seconds))

    def _on_timer(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def __enter__(self):
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def work_seconds(self, start: float, end: float) -> float:
        """Seconds of [start, end] not spent in samples."""
        return (end - start) - sum(e - s for s, e, _ in self.samples
                                   if start <= s and e <= end)

    def scaled_seconds(self, start: float, end: float) -> float:
        """Seconds of work in [start, end] at the reference speed."""
        before = [x for x in self.samples if x[1] <= start][-1]
        inside = [x for x in self.samples if start <= x[0] and x[1] <= end]
        after = [x for x in self.samples if x[0] >= end][0]
        total, cursor = 0.0, start
        for prev, nxt in zip([before] + inside, inside + [after]):
            stop = end if nxt is after else nxt[0]
            total += (stop - cursor) * 2 * CALIBRATION_REF_S / (prev[2] + nxt[2])
            cursor = nxt[1]
        return total
