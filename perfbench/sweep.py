"""Workload ``sweep``: the architecture-research path, no serving at all.

A trace-once/replay-many :class:`~repro.explore.runner.SweepRunner`
prices a Table I grid -- Arc-cache size x prefetching, at two beams --
on the 100k-state ``benchmarks.common.standard_workload``.  Every sweep
starts from a cold trace cache, so each one records two functional
traces (one per beam) and replays all twelve points: both recording and
replay do real work.  Points are priced one ``run()`` call at a time, so
each has its own latency.  Sweeps repeat until ``--seconds`` have
passed and at least :data:`MIN_POINTS` points are priced.

The priced workload is the fixed standard workload and grid, not ones
drawn from the seed: sweep cost moves about 2x with the graph seed and
about 10% with the score seed, and which points carry the recordings
moves the latency tail.  The seed picks the point checked against the
simulator.  Throughput and CPU time are medians over the run's sweeps,
so a burst of load from outside the benchmark moves them less.

Every simulated statistic is deterministic, so each point's
:class:`~repro.accel.stats.SimStats` digest must repeat exactly in every
sweep of the run, and one point per run (chosen by the seed) must match
a monolithic :class:`~repro.accel.simulator.AcceleratorSimulator`
decode, checked outside the timed window.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from typing import Dict, List

import numpy as np

from perfbench import proc
from perfbench.harness import (
    SETUP_REPEATS,
    Outcome,
    repeated_setup,
    span_median_s,
)
from perfbench.stats import percentile, tail
from perfbench.trace import Tracer
import benchmarks.common as bench_common
from repro.accel import AcceleratorSimulator
from repro.accel.replay import TraceReplayer
from repro.accel.stats import SimStats
from repro.accel.trace import TraceRecorder
from repro.datasets import SyntheticGraphConfig
from repro.explore import ParameterGrid, SweepRunner, TraceCache, apply_overrides
from repro.graph import GraphCache, GraphRecipe, compile_graph

GRID = ParameterGrid([
    ("arc_cache.size_bytes", (256 * 1024, 1024 * 1024, 4096 * 1024)),
    ("prefetch_enabled", (False, True)),
    ("beam", (7.0, 8.0)),
])
#: A p90 with ten points beyond it.
MIN_POINTS = 100
TAIL_PERCENTILE = 90.0
#: Graph recipe of ``standard_workload()``; compiled first so that
#: set-up can report the compile on its own.
NUM_STATES = 100_000
NUM_PHONES = 50
WORKLOAD_SEED = 3


def digest(stats: SimStats, words, log_likelihoods) -> str:
    """Content hash of every simulated statistic and the decoded words."""
    payload = json.dumps(
        [dataclasses.asdict(stats), words, log_likelihoods],
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _build(tracer: Tracer):
    # A fresh in-memory cache whatever REPRO_GRAPH_CACHE says: set-up
    # always pays the compile.
    bench_common.GRAPH_CACHE = GraphCache()
    with tracer.span("setup.compile"):
        compile_graph(
            GraphRecipe.synthetic_graph(SyntheticGraphConfig(
                num_states=NUM_STATES, num_phones=NUM_PHONES,
                seed=WORKLOAD_SEED,
            )),
            cache=bench_common.GRAPH_CACHE,
        )
    return bench_common.standard_workload(seed=WORKLOAD_SEED)


def run(seed: int, seconds: float, tracer: Tracer, workdir: str) -> Outcome:
    workload, setup_s = repeated_setup(_build, lambda built: None, tracer)
    points = GRID.points()
    checked = int(np.random.default_rng([seed, 31]).integers(len(points)))
    latencies: List[float] = []
    digests: Dict[int, str] = {}
    mismatches: List[str] = []
    recorded: List[int] = []
    first_sweep = None
    sweep_s: List[float] = []
    sweep_cpu_s: List[float] = []
    attempted = sweeps = 0
    pids = proc.process_tree()
    t0 = time.perf_counter()
    with tracer.patched(TraceRecorder, "record", "accel.record"), \
            tracer.patched(TraceReplayer, "replay", "accel.replay"):
        while (time.perf_counter() - t0 < seconds
               or len(latencies) < MIN_POINTS):
            runner = SweepRunner(workload, trace_cache=TraceCache(), processes=1)
            results = []
            cpu0, start0 = proc.cpu_seconds(pids), time.perf_counter()
            with tracer.span("explore.sweep"):
                for index, point in enumerate(points):
                    start = time.perf_counter()
                    with tracer.span("explore.run", index):
                        result = runner.run([point])
                    latencies.append(time.perf_counter() - start)
                    results.append(result)
            sweep_s.append(time.perf_counter() - start0)
            sweep_cpu_s.append(proc.cpu_seconds(pids) - cpu0)
            for index, result in enumerate(results):
                attempted += 1
                point = result.points[0]
                key = digest(point.stats, point.words, point.log_likelihoods)
                if digests.setdefault(index, key) != key:
                    mismatches.append(
                        f"sweep {sweeps} point {point.label}: SimStats digest "
                        f"differs from sweep 0"
                    )
            recorded.append(sum(r.trace_recordings for r in results))
            if recorded[-1] != recorded[0]:
                mismatches.append(
                    f"sweep {sweeps} recorded {recorded[-1]} traces, "
                    f"sweep 0 recorded {recorded[0]}"
                )
            first_sweep = first_sweep or results
            sweeps += 1
    pss = proc.pss_mib(pids)

    # Outside the timed window: the seeded point against a monolithic
    # simulation.
    check = first_sweep[checked].points[0]
    config = apply_overrides(bench_common.base_config(), points[checked])
    simulator = AcceleratorSimulator(
        workload.graph, config, beam=check.beam,
        sorted_graph=workload.sorted_graph, max_active=workload.max_active,
    )
    simulated = [simulator.decode(s) for s in workload.scores]
    expected = digest(
        SimStats.merge([r.stats for r in simulated]),
        tuple(tuple(r.words) for r in simulated),
        tuple(r.log_likelihood for r in simulated),
    )
    if expected != digest(check.stats, check.words, check.log_likelihoods):
        mismatches.append(
            f"point {check.label}: replayed SimStats differ from "
            f"AcceleratorSimulator (cycles {check.cycles} vs "
            f"{sum(r.stats.cycles for r in simulated)})"
        )

    priced = len(latencies)
    speech_s = first_sweep[0].speech_seconds
    throughput = statistics.median(len(points) / s for s in sweep_s)
    p50_ms = percentile(latencies, 50) * 1e3
    tail_ms = tail(latencies, TAIL_PERCENTILE) * 1e3
    cpu_per_audio = statistics.median(
        c * 1e3 / (len(points) * speech_s) for c in sweep_cpu_s
    )
    named = {
        "sweep_points_per_s": (throughput, "points/s", sweeps),
        "point_latency_p50_ms": (p50_ms, "ms", priced),
        "point_latency_p90_ms": (tail_ms, "ms", priced),
        "cpu_ms_per_audio_s": (cpu_per_audio, "ms/s", sweeps),
        "pss_mib": (pss, "MiB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }
    end_to_end = {
        "throughput_per_s": throughput,
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_audio_s": cpu_per_audio,
        "pss_mib": pss,
        "setup_s": setup_s,
    }
    sweep_points = [r.points[0] for r in first_sweep]
    frames = sum(p.stats.frames for p in sweep_points)
    per_layer = {
        "accel.record_s": span_median_s(tracer, "accel.record"),
        "accel.replay_ms_per_point": span_median_s(tracer, "accel.replay") * 1e3,
        "explore.traces_recorded": float(recorded[0]),
        "accel.cycles_per_frame": sum(p.cycles for p in sweep_points) / frames,
        "accel.dram_bytes_per_frame": sum(
            p.stats.traffic.total_bytes() for p in sweep_points) / frames,
        "setup.compile_s": span_median_s(tracer, "setup.compile"),
    }
    return Outcome(
        attempted=attempted,
        failed=0,
        end_to_end=end_to_end,
        per_layer=per_layer,
        named=named,
        mismatches=mismatches,
    )
