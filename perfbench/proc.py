"""CPU time and resident memory of the benchmark process and its
children (the serving tier's workers), read from Linux ``/proc``.

Children are read live rather than through ``RUSAGE_CHILDREN``, which
only counts children already waited for: tier workers run through the
timed window and exit after it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker
from typing import List, Optional

_TICKS = os.sysconf("SC_CLK_TCK")


def process_tree(pid: Optional[int] = None) -> List[int]:
    """``pid`` (default: this process) and all its live descendants."""
    root = os.getpid() if pid is None else pid
    tree, todo = [], [root]
    while todo:
        current = todo.pop()
        tree.append(current)
        try:
            tids = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except FileNotFoundError:
                pass  # thread or process exited while we read
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # Fields after the parenthesised command name; utime and
                # stime are fields 14 and 15 of the whole line.
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def pss_mib(pids: List[int]) -> float:
    """Proportional set size of ``pids`` in MiB: resident memory with
    pages shared between them (the mapped graph, the score planes)
    counted once overall rather than once per process."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kib += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue
    return total_kib / 1024.0


def _direct_children() -> List[int]:
    children: List[int] = []
    for tid in os.listdir(f"/proc/{os.getpid()}/task"):
        try:
            with open(f"/proc/{os.getpid()}/task/{tid}/children") as fh:
                children.extend(int(c) for c in fh.read().split())
        except FileNotFoundError:
            pass
    return children


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The serving tier's score planes start multiprocessing's resource
    tracker, which would otherwise outlive this process: it only exits
    once it reads end-of-file on its pipe, after this process is gone,
    and is then left for init to reap.  Closing the pipe here makes it
    exit now, and it is reaped.  Any other child still running (a
    worker a failed run left behind) is terminated and reaped too."""
    # Workers first: forked after the tracker started, they hold its
    # pipe open too.
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    pending = _direct_children()
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pending:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    # The resource tracker of an older Python, with no
                    # _stop(), ignores SIGTERM.
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass  # not ours to wait for, or already reaped
