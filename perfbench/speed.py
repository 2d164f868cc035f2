"""The machine's speed during a run, from a reference loop timed between
operations.

This machine's two cores are shared with other tenants, and identical work
runs up to 1.6x slower while they are busy: within seconds on one core, and
on average over minutes on both.  Over 30-second runs that moved the
seed-free ``paper-values`` pass time by a quarter from run to run, so raw
times cannot hold a bound of a quarter.  A fixed pure-Python loop, which
shares no code with mincop, slows by about the same factor: over 10-second
windows its time divided into mincop's refute time spread 0.02, against
0.12 for the refute time alone.

``SpeedProbe.after`` runs the loop between operations, outside their
timing, for about ``SHARE`` of the time the operations took, so that its
samples spread over the run in proportion to time.  ``scale`` turns a run's
measured seconds into seconds at the reference speed: the speed at which
the loop takes ``REFERENCE_S``, its time on an idle core of the 2.1 GHz
Xeon VM the benchmark was defined on.  A change to mincop moves the scaled
times as it moves the raw ones; the loop does not run mincop code.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 7.0e-4  # the loop's time at the reference speed
SHARE = 0.02  # probe time per second of operations


def reference_loop() -> float:
    """Seconds one run of the loop takes now."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(6000):
        total += i * i
        table[i & 63] = total
    return perf_counter() - start


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        """Sample the speed after an operation that took ``seconds``."""
        self._owed += SHARE * seconds
        while self._owed > 0.0:
            took = reference_loop()
            self.samples.append(took)
            self._owed -= took

    def scale(self) -> float:
        """Factor from this run's measured seconds to seconds at the
        reference speed: below 1 while the machine ran slower."""
        return REFERENCE_S / statistics.fmean(self.samples)
