"""The portable numpy kernel backend (the dispatch default).

These are the exact vectorized sweeps :class:`repro.decoder.kernel.
SearchKernel` has always run, extracted behind the
:class:`~repro.decoder.backends.KernelBackend` protocol.  They define
the bit-level contract every other backend must reproduce: the gather
enumerates arcs in block order, the segment merge keeps the earliest
candidate on score ties (``np.lexsort`` is stable), and score
accumulation associates as ``(token + arc_weight) + acoustic``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.decoder.backends import KernelBackend


def csr_gather(
    first: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten CSR arc blocks into ``(arc_indices, source_rows)``.

    ``first[i]`` / ``counts[i]`` describe a contiguous block of arcs; the
    result enumerates every arc of every block in block order, plus the row
    ``i`` each arc came from.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src = np.repeat(np.arange(len(first), dtype=np.int64), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return first[src] + offsets, src


def segment_best(
    dest: np.ndarray, score: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per unique destination, the position of its best-scoring candidate.

    Returns ``(unique_dests_sorted, winner_positions)``.  Ties keep the
    earliest candidate (source-major, arc order), mirroring the reference
    discipline's first-wins relaxation.
    """
    order = np.lexsort((-score, dest))
    sorted_dest = dest[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    first[1:] = sorted_dest[1:] != sorted_dest[:-1]
    return sorted_dest[first], order[first]


class NumpyBackend(KernelBackend):
    """Pure-numpy implementation of the kernel's inner array operations."""

    name = "numpy"

    def csr_gather(
        self, first: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return csr_gather(first, counts)

    def segment_best(
        self, keys: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return segment_best(keys, scores)

    def expand_closure(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arc_idx, src = csr_gather(first, counts)
        dest = arc_dest[arc_idx]
        if arc_idx.size == 0:
            return arc_idx, src, dest, np.empty(0, dtype=np.float64)
        cand = scores[src] + arc_weight[arc_idx]
        return arc_idx, src, dest, cand

    def expand_fused(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        seg: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
        arc_ilabel: np.ndarray,
        frame_stack: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arc_idx, src = csr_gather(first, counts)
        dest = arc_dest[arc_idx]
        if arc_idx.size == 0:
            return arc_idx, src, dest, np.empty(0, dtype=np.float64)
        cand = (
            scores[src]
            + arc_weight[arc_idx]
            + frame_stack[seg[src], arc_ilabel[arc_idx]]
        )
        return arc_idx, src, dest, cand

    def trace_reachable(
        self, prev: np.ndarray, size: int, bps: np.ndarray, anchor: int
    ) -> np.ndarray:
        from repro.decoder.traceback import trace_reachable_numpy

        return trace_reachable_numpy(prev, size, bps, anchor)
