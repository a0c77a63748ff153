"""Gate: the trace-once/replay-many sweep beats independent simulations.

A design-space sweep prices N configurations of the same workload.  The
monolithic way runs the full cycle-accurate simulator N times, re-doing
the identical beam search each time; the shared runner records the search
once and replays its event trace per configuration (optionally across
processes).  This bench runs a 10-point grid (Arc-cache capacity x
prefetching -- the Figure 4 / Section IV-A axes) both ways, asserts the
replayed timing is **cycle-identical** to the monolithic simulator on
every point, and gates the end-to-end speedup at >= 5x (quick mode: a
smaller workload, gated at >= 3x for CI-runner noise).

It also reports ``replay_ms_per_point``, the replay cost on its own: the
grid is replayed serially on already-recorded traces, one timed point
at a time (schedules shared between points stay memoized, as in a
sweep), and the median point is reported.  It is tracked, not gated.
"""

import statistics
import time

from benchmarks.common import (
    base_config,
    format_table,
    report,
    standard_workload,
    sweep_workload,
    write_json,
)
from repro.accel import AcceleratorSimulator, TraceRecorder, TraceReplayer
from repro.explore import ParameterGrid, SweepRunner, TraceCache, apply_overrides

SPEEDUP_TARGET = 5.0
QUICK_SPEEDUP_TARGET = 3.0

#: 10 points: five Arc-cache capacities with and without prefetching.
GRID = ParameterGrid(
    [
        ("arc_cache.size_bytes", tuple(kb * 1024 for kb in (256, 512, 1024, 2048, 4096))),
        ("prefetch_enabled", (False, True)),
    ]
)


def run_sweep_throughput(quick: bool = False) -> dict:
    workload = sweep_workload() if quick else standard_workload()
    base = base_config()
    points = GRID.points()

    # N independent monolithic simulator runs (the pre-sweep-engine way).
    t0 = time.perf_counter()
    independent = []
    for overrides in points:
        config = apply_overrides(base, overrides)
        sim = AcceleratorSimulator(
            workload.graph, config, beam=workload.beam,
            max_active=workload.max_active,
        )
        independent.append(
            sum(sim.decode(s).stats.cycles for s in workload.scores)
        )
    independent_seconds = time.perf_counter() - t0

    # One shared-runner sweep, end to end: trace recording included, cold
    # cache, process fan-out auto-sized to the machine.
    t0 = time.perf_counter()
    runner = SweepRunner(
        workload, base_config=base, trace_cache=TraceCache(), processes=None
    )
    result = runner.run(GRID)
    sweep_seconds = time.perf_counter() - t0

    mismatches = sum(
        1 for point, cycles in zip(result.points, independent)
        if point.cycles != cycles
    )
    speedup = independent_seconds / sweep_seconds

    # Replay alone, on freshly recorded traces (no memo from the sweep).
    recorder = TraceRecorder(
        workload.graph, beam=workload.beam, max_active=workload.max_active
    )
    traces = [recorder.record(s) for s in workload.scores]
    replay_seconds = []
    for overrides in points:
        replayer = TraceReplayer(workload.graph, apply_overrides(base, overrides))
        t0 = time.perf_counter()
        for trace in traces:
            replayer.replay(trace)
        replay_seconds.append(time.perf_counter() - t0)
    return {
        "quick": quick,
        "points": len(points),
        "independent_seconds": round(independent_seconds, 3),
        "sweep_seconds": round(sweep_seconds, 3),
        "speedup": round(speedup, 2),
        "replay_ms_per_point": round(1e3 * statistics.median(replay_seconds), 3),
        "target": QUICK_SPEEDUP_TARGET if quick else SPEEDUP_TARGET,
        "cycle_mismatches": mismatches,
        "trace_recordings": result.trace_recordings,
        "processes": result.processes,
    }


def _report(payload: dict) -> None:
    text = format_table(
        "Sweep throughput -- shared runner vs independent simulations "
        f"({payload['points']} configurations, "
        f"{payload['processes']} process(es))",
        ["metric", "value"],
        [
            ["independent sims (s)", payload["independent_seconds"]],
            ["trace+replay sweep (s)", payload["sweep_seconds"]],
            ["end-to-end speedup (x)", payload["speedup"]],
            ["replay per point (ms, median)", payload["replay_ms_per_point"]],
            ["gate (x)", payload["target"]],
            ["cycle mismatches", payload["cycle_mismatches"]],
        ],
    )
    suffix = "_quick" if payload["quick"] else ""
    report(f"sweep_throughput{suffix}", text)
    write_json(f"sweep_throughput{suffix}", payload)


def test_sweep_throughput(benchmark):
    payload = benchmark.pedantic(
        run_sweep_throughput, rounds=1, iterations=1
    )
    _report(payload)
    # Replay is cycle-identical to the monolithic simulator on all 10
    # configurations of the standard workload (acceptance criterion).
    assert payload["cycle_mismatches"] == 0
    assert payload["speedup"] >= SPEEDUP_TARGET, (
        f"sweep speedup {payload['speedup']:.2f}x below the "
        f"{SPEEDUP_TARGET:.0f}x gate"
    )
