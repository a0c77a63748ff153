#!/usr/bin/env python3
"""The repository benchmark.

One workload run (run from the repository root)::

    python3 perfbench/run.py --workload tier-scores --seed 1 --seconds 20 --trace 0

builds everything from the sources under ``src/``, sets up the workload
(outside the timed window), measures for ``--seconds``, checks every
output against an independent decode or simulation, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.perfbench_out/trace-<workload>-<seed>.json``.
The exit code is 1 when an output mismatches.

Every workload reports the same end-to-end metrics; what each measures
there (the name it has in the report):

================== ================== ==================== =================
metric             tier-scores        device-dictation     sweep
================== ================== ==================== =================
throughput_per_s   capacity_fps       decoded_fps          sweep_points_per_s
latency_p50_ms     session latency,   chunk round latency  latency per point
                   input closed to
                   record returned
latency_tail_ms    its p95            its p95              its p90
cpu_ms_per_audio_s door + workers     server process       sweep process, per
                                                           priced audio second
pss_mib            door + workers,    server process       sweep process
                   after 600 sessions
setup_s            compile, spawn     compile, train, warm compile, workload
================== ================== ==================== =================

``--workload tier-open-loop`` runs the open-loop tier load the same way;
it is left out of ``BENCHMARK.json`` (see ``perfbench/tier_scores.py``).

All workloads at once, each over several seeds, plus one traced run
each for the per-layer numbers and the tracing overhead::

    python3 perfbench/run.py --all --runs 3 --seed 100

prints every metric with its unit, median, spread (interquartile range
over the median) and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("tier-scores", "device-dictation", "sweep")
#: Runnable and reported by ``--all``, but not in BENCHMARK.json: its
#: numbers swing too far between runs to hold any bound (see
#: ``perfbench/tier_scores.py``).
UNGATED_WORKLOADS = ("tier-open-loop",)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_paths() -> None:
    """Put the program's sources and the benchmark package on the path;
    refuse to run where the sources are missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"perfbench: no program sources under {src}\n")
        sys.exit(2)
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workload(name: str):
    from perfbench import device_dictation, sweep, tier_scores

    return {
        "tier-scores": tier_scores.run,
        "tier-open-loop": tier_scores.run_open_loop,
        "device-dictation": device_dictation.run,
        "sweep": sweep.run,
    }[name]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload run; prints the report and returns the exit code."""
    spec = _load_spec()
    _import_paths()
    from perfbench.proc import stop_children
    from perfbench.trace import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer(enabled=trace)
    try:
        outcome = _workload(name)(seed, seconds, tracer, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(outcome.end_to_end) != sorted(e2e_names):
        raise RuntimeError(f"{name} reported {sorted(outcome.end_to_end)}")
    unknown = set(outcome.per_layer) - set(layer_names)
    if unknown:
        raise RuntimeError(f"{name} reported unknown layer metrics {unknown}")
    if trace:
        # A layer a workload does not reach did no work: 0.
        values = {n: float(outcome.per_layer.get(n, 0.0)) for n in layer_names}
        values["traced.throughput_per_s"] = outcome.end_to_end["throughput_per_s"]
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{name}-{seed}.json"),
            {"workload": name, "seed": seed, "seconds": seconds},
        )
    else:
        values = {n: float(outcome.end_to_end[n]) for n in e2e_names}

    for label, (value, unit, samples) in outcome.named.items():
        print(f"{name:17s} {label:24s} {value:14.4f} {unit:9s} n={samples}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"{name:17s} {'error_rate':24s} {error_rate:14.6f} "
          f"{'share':9s} n={outcome.attempted}")
    for mismatch in outcome.mismatches[:20]:
        print(f"MISMATCH {name}: {mismatch}")
    with open(os.path.join(OUT_DIR, f"result-{name}-{seed}-{int(trace)}.json"),
              "w") as fh:
        json.dump({"named": outcome.named, "error_rate": error_rate}, fh)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if outcome.correct else 1


def _subrun(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(OUT_DIR, f"result-{name}-{seed}-{int(trace)}.json")) as fh:
        result.update(json.load(fh))
    return result


def run_all(runs: int, seed: int, seconds: float) -> int:
    """Every workload over ``runs`` seeds plus one traced run each."""
    from perfbench.stats import iqr_spread

    summary: Dict[str, dict] = {}
    print(f"{'workload':17s} {'metric':26s} {'unit':9s} {'median':>12s} "
          f"{'spread':>8s} {'runs':>4s} {'samples/run':>11s}")
    for name in WORKLOADS + UNGATED_WORKLOADS:
        results = [_subrun(name, seed + i, seconds, False) for i in range(runs)]
        traced = _subrun(name, seed, seconds, True)
        rows: Dict[str, dict] = {}
        for label in results[0]["named"]:
            values = [r["named"][label][0] for r in results]
            unit, samples = results[0]["named"][label][1:]
            rows[label] = {"unit": unit, "median": statistics.median(values),
                           "spread": iqr_spread(values), "runs": runs,
                           "samples_per_run": samples}
        rates = [r["error_rate"] for r in results]
        rows["error_rate"] = {"unit": "share", "median": statistics.median(rates),
                              "spread": iqr_spread(rates), "runs": runs,
                              "samples_per_run": results[0]["attempted"]}
        untraced = statistics.median(
            r["metrics"]["throughput_per_s"]["value"] for r in results
        )
        traced_tp = traced["metrics"]["traced.throughput_per_s"]["value"]
        rows["tracing_overhead_pct"] = {
            "unit": "%", "median": 100.0 * (1.0 - traced_tp / untraced),
            "spread": 0.0, "runs": 1, "samples_per_run": 1,
        }
        for label, row in rows.items():
            print(f"{name:17s} {label:26s} {row['unit']:9s} "
                  f"{row['median']:12.4f} {row['spread']:8.3f} "
                  f"{row['runs']:4d} {row['samples_per_run']:11d}")
        for metric, entry in traced["metrics"].items():
            print(f"{name:17s}   {metric:32s} {entry['unit']:9s} "
                  f"{entry['value']:12.4f}")
        summary[name] = {"end_to_end": rows, "per_layer": traced["metrics"]}
    path = os.path.join(OUT_DIR, "summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"summary written to {path}")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNGATED_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload over --runs seeds")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(_load_spec()["run_seconds"])
    if seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")
    if args.all:
        _import_paths()
        os.makedirs(OUT_DIR, exist_ok=True)
        return run_all(args.runs, args.seed, seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
