"""Reference clock: wall time scaled to the machine's speed of the moment.

The benchmark's host is a shared virtual machine whose processor speed
switches between spells (a fixed pure-Python loop runs about 1.6 times
slower in its slow spells than in its fast ones, spells lasting from a
fraction of a second to minutes).  A run sees whichever mix of spells it
meets, so raw wall times of the same code spread by up to a half between
runs.  The program's own calls slow down in step with a fixed reference
loop, so the benchmark reports times in *reference seconds*: wall time
divided by the reference loop's round time measured around it, times
``ROUND_S``, the nominal length of one round.

``RefClock`` samples the round time every ``INTERVAL_S`` of wall time
from a ``SIGALRM`` handler, inside ops as well as between them, and
``scaled(t0, t1)`` integrates the wall interval against that track.  The
probes' own time is left out of every interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# nominal seconds of one reference round: the unit the scaled times are in
ROUND_S = 1e-3
# wall seconds between two probes
INTERVAL_S = 0.025


def reference_round() -> int:
    """A fixed slice of the interpreter work exact rational code does:
    integer arithmetic, a Euclidean gcd, tuples, frozensets and a dict.
    Builtins only, so a fresh interpreter can run it before any import."""
    acc = {}
    num, den = 0, 1
    for i in range(1, 1000):
        a, b = i % 7 + 1, i % 5 + 2
        num, den = num * b + a * den, den * b
        x, y = num, den
        while y:
            x, y = y, x % y
        num, den = num // x, den // x
        acc[frozenset((i, i % 13))] = (num, den)
    return len(acc)


class RefClock:
    """Probes of the reference round, taken every ``INTERVAL_S`` while the
    clock runs (``with clock:``), and the scaled length of any interval
    between the first and the last probe."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each round
        self._starts: list[float] = []
        self._speed: list[float] = []  # smoothed round time of each probe
        self._busy = False

    def probe(self, *_) -> None:
        # a tick that was held up (signals wait while C code runs) can land
        # inside the round it started; that round is already measuring
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_round()
        self.probes.append((start, time.perf_counter()))
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probe()
        self.settle()
        return False

    def settle(self) -> None:
        """Index the probes taken so far for ``scaled``."""
        # a round that caught an interrupt or a garbage collection reads
        # slow once; the median of three neighbours drops it
        rounds = [b - a for a, b in self.probes]
        self._speed = [statistics.median(rounds[max(0, k - 1):k + 2]) for k in range(len(rounds))]
        self._starts = [a for a, _ in self.probes]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in the wall interval [t0, t1]:
        each stretch between two probes is scaled by the mean of their
        round times, and the probes themselves count for nothing."""
        total = 0.0
        k = max(0, bisect.bisect_right(self._starts, t0) - 1)
        while k + 1 < len(self.probes):
            gap_lo, gap_hi = self.probes[k][1], self.probes[k + 1][0]
            if gap_lo >= t1:
                break
            lo, hi = max(t0, gap_lo), min(t1, gap_hi)
            if hi > lo:
                total += (hi - lo) * 2 * ROUND_S / (self._speed[k] + self._speed[k + 1])
            k += 1
        return total
