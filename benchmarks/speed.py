"""A clock that reads seconds at a fixed reference speed.

The machines this benchmark runs on are shared, and the speed of one
interpreter thread drifts by a third within a minute as neighbours come
and go. Wall time alone then spreads more between runs than any
regression worth catching. This clock divides the drift out.

While it runs, a timer signal interrupts the benchmark every
``INTERVAL_S`` seconds of wall time and runs a fixed slice of reference
work in the signal handler, on the same thread. The slice's duration
against its nominal duration samples the current slowdown; until the
next slice the clock advances by wall time divided by the median of the
last ``WINDOW`` samples.
Time spent in slices is never counted. Before ``start`` the clock is
plain wall time; after ``stop`` it keeps the last slowdown it measured.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
WINDOW = 5
# Duration of one reference slice on an idle 2.1 GHz x86-64 core under
# CPython 3.11; it only sets the scale of the normalized seconds.
NOMINAL_SLICE_S = 0.00095
_KEYS = tuple((i % 7, i) for i in range(64))
_ROUNDS = 200


def reference_slice() -> int:
    """Fixed interpreter work: dictionary updates keyed by small tuples."""
    table: dict = {}
    total = 0
    for _ in range(_ROUNDS):
        for key in _KEYS:
            table[key] = table.get(key, 0) + key[1]
        total += len(table)
    return total


class SpeedClock:
    def __init__(self):
        # (normalized seconds at the last slice, wall time after it, slowdown)
        self._state = (0.0, time.perf_counter(), 1.0)
        self.slowdowns: list[float] = []
        self._previous = None

    def _slice(self, *_) -> None:
        start = time.perf_counter()
        reference_slice()
        end = time.perf_counter()
        self.slowdowns.append((end - start) / NOMINAL_SLICE_S)
        # One slice is a noisy sample; the median of the last few tracks
        # drift over a quarter of a second.
        slowdown = statistics.median(self.slowdowns[-WINDOW:])
        norm, since, previous = self._state
        # The interval since the last slice ran at the speed the clock has
        # been reading at, so readings never jump.
        self._state = (norm + (start - since) / previous, time.perf_counter(), slowdown)

    def start(self) -> None:
        for _ in range(WINDOW):
            self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __call__(self) -> float:
        """Normalized seconds since the clock was made."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:
                norm, since, slowdown = state
                return norm + (now - since) / slowdown
