"""Sample statistics the benchmark reports.

Timings are reported as a median plus a tail percentile.  A tail
percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it (a p95 needs 200 samples), so one outlier cannot be the tail.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics, as ``numpy.percentile`` computes it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    if frac == 0.0:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def highest_supported_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile with at least ``min_beyond`` of ``n``
    samples beyond it (0.0 when there are too few samples for any)."""
    if n <= min_beyond:
        return 0.0
    return 100.0 * (n - min_beyond) / n


def tail(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing a tail too thin to trust."""
    supported = highest_supported_percentile(len(samples))
    if q > supported + 1e-9:
        raise ValueError(
            f"p{q:g} needs {math.ceil(MIN_BEYOND * 100 / (100 - q))} samples, "
            f"got {len(samples)}"
        )
    return percentile(samples, q)


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


class Pacer:
    """Open-loop schedule: operations fall due at fixed offsets from the
    start, whatever the system under test does.

    Latency is timed from the due time, not from when the generator got
    round to sending, so a stall that delays later operations is charged
    to them; :meth:`wait` returns how late the generator ran.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._clock = clock
        self._sleep = sleep
        self.start = clock()

    def due(self, offset_s: float) -> float:
        """Absolute clock time of an operation due ``offset_s`` in."""
        return self.start + offset_s

    def wait(self, offset_s: float) -> float:
        """Sleep until the operation is due; returns its lateness in s."""
        due = self.due(offset_s)
        now = self._clock()
        if now < due:
            self._sleep(due - now)
            now = self._clock()
        return max(0.0, now - due)

    def latency(self, offset_s: float, done_t: float) -> float:
        """Seconds from the operation's due time to ``done_t``."""
        return done_t - self.due(offset_s)
