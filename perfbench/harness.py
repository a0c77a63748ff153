"""What every workload returns, and the pieces they share."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TypeVar

from perfbench.trace import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

T = TypeVar("T")


@dataclass
class Outcome:
    """One workload run.

    ``end_to_end`` and ``per_layer`` use the metric names of
    ``BENCHMARK.json``.  ``named`` carries the same end-to-end numbers
    under the names they have on this workload (``capacity_fps``,
    ``chunk_latency_p95_ms`` ...) as ``(value, unit, samples)``, for the
    human-readable report.
    """

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    named: Dict[str, Tuple[float, str, int]]
    #: Outputs that differ from the independent check; empty when correct.
    mismatches: List[str]

    @property
    def correct(self) -> bool:
        return not self.mismatches


def repeated_setup(
    build: Callable[[Tracer], T],
    teardown: Callable[[T], None],
    tracer: Tracer,
    repeats: int = SETUP_REPEATS,
) -> Tuple[T, float]:
    """Run ``build`` ``repeats`` times, tearing down all but the last;
    returns the last build and the median set-up seconds.  Set-up stays
    outside the timed window, and repeating it makes its median steady
    enough to catch work moved into it."""
    seconds: List[float] = []
    built = None
    for _ in range(repeats):
        if built is not None:
            teardown(built)
        t0 = time.perf_counter()
        with tracer.span("setup"):
            built = build(tracer)
        seconds.append(time.perf_counter() - t0)
    assert built is not None
    return built, statistics.median(seconds)


def span_median_s(tracer: Tracer, name: str) -> float:
    """Median seconds of the spans called ``name`` (0.0 when none)."""
    durations = tracer.durations_ms(name)
    return statistics.median(durations) / 1e3 if durations else 0.0
