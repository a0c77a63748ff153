#!/usr/bin/env python
"""Perf-trajectory report (run by the CI bench-smoke job).

Diffs the quick gate's normalized ``trajectory.json`` (written by
``benchmarks/run_all.py --quick``) against the previous main-branch
baseline restored from the actions cache, and renders a before/after
markdown table to ``$GITHUB_STEP_SUMMARY`` (stdout otherwise, so the
tool is just as useful locally).

Regressions beyond ``--threshold`` (default 20%) on any tracked metric
(frames/s and speedup regress by falling; peak trace memory, partial
latency, IPC bytes and sweep replay time by rising) emit a
``::warning::`` annotation but do **not** fail the job: the smoke
gate's own per-bench floors are the hard line, this report only tracks
the trajectory between commits.  No baseline
(first run, expired cache) renders the current numbers alone and exits
zero.

Usage:
    python tools/perf_report.py \\
        --current benchmarks/results/trajectory.json \\
        --baseline benchmarks/results/baseline-trajectory.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Metrics tracked per bench, in table order.
METRICS = ("frames_per_second", "speedup", "peak_trace_kib",
           "partial_latency_ms", "ipc_bytes_per_frame",
           "replay_ms_per_point")

#: Metrics where a *rise* is the regression (memory footprints,
#: latencies, transport cost, replay time); everything else regresses
#: by falling.
LOWER_IS_BETTER = frozenset({"peak_trace_kib", "partial_latency_ms",
                             "ipc_bytes_per_frame", "replay_ms_per_point"})


def load_trajectory(path: str) -> dict:
    """The ``benches`` map of a trajectory file, or ``{}`` when absent
    or unreadable (a torn cache restore must not fail the report)."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    benches = payload.get("benches")
    return benches if isinstance(benches, dict) else {}


def _fmt(value) -> str:
    if value is None:
        return "--"
    return f"{value:,.1f}" if value >= 100 else f"{value:.3f}"


def _delta(before, after):
    """Fractional change, or ``None`` when it cannot be computed."""
    if before is None or after is None or before <= 0:
        return None
    return (after - before) / before


def build_report(current: dict, baseline: dict, threshold: float):
    """Markdown table lines plus the list of regression warnings."""
    lines = ["# Perf trajectory", ""]
    if not baseline:
        lines.append("_No previous main-branch baseline (first run or "
                     "expired cache); reporting current numbers only._")
        lines.append("")
    lines.append("| bench | metric | before | after | delta |")
    lines.append("|---|---|---:|---:|---:|")

    warnings = []
    for bench in sorted(set(current) | set(baseline)):
        for metric in METRICS:
            before = baseline.get(bench, {}).get(metric)
            after = current.get(bench, {}).get(metric)
            if before is None and after is None:
                continue
            delta = _delta(before, after)
            cell = "--" if delta is None else f"{delta:+.1%}"
            regressed = delta is not None and (
                delta > threshold
                if metric in LOWER_IS_BETTER
                else delta < -threshold
            )
            if regressed:
                cell += " :warning:"
                warnings.append(
                    f"{bench} {metric} regressed {delta:+.1%} "
                    f"({_fmt(before)} -> {_fmt(after)}), beyond the "
                    f"{threshold:.0%} warning threshold"
                )
            lines.append(
                f"| {bench} | {metric} | {_fmt(before)} | {_fmt(after)} "
                f"| {cell} |"
            )
    return lines, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="trajectory.json of this run")
    parser.add_argument("--baseline", required=True,
                        help="previous main-branch trajectory.json "
                             "(missing file = first run)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional slowdown that triggers a "
                             "warning (default 0.20 = 20%%)")
    options = parser.parse_args(argv)

    current = load_trajectory(options.current)
    if not current:
        # The quick gate crashed before writing a trajectory; its own
        # step already failed the job, nothing to report here.
        print(f"perf_report: no current trajectory at {options.current}")
        return 0
    baseline = load_trajectory(options.baseline)

    lines, warnings = build_report(current, baseline, options.threshold)
    text = "\n".join(lines) + "\n"
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(text)
    print(text)
    for warning in warnings:
        # GitHub annotation: surfaces on the PR without failing the job.
        print(f"::warning title=perf regression::{warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
