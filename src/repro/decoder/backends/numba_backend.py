"""Numba-compiled kernel backend (optional: ``pip install repro-asr[compiled]``).

Importing this module requires numba; the dispatch layer in
:mod:`repro.decoder.backends` catches the :class:`ImportError` and falls
back to numpy with a typed warning, so the compiled path is strictly
opt-in and its absence never breaks a decode.

Determinism under ``parallel=True``
-----------------------------------
Every ``prange`` iteration owns one frontier row ``i`` and writes only
the disjoint output slice ``[offsets[i], offsets[i] + counts[i])``
computed from the exclusive prefix sum of ``counts``; no iteration reads
another's writes and there are no reductions, so the result is
bit-identical regardless of thread count or chunk schedule.  Numba
chunks the ``prange`` row space across threads, which in the fused
multi-session sweep means the parallelism spans every session's rows at
once.  Score arithmetic keeps the shared kernel's association order
``(token_score + arc_weight) + acoustic_score`` so float64 path scores
stay bit-identical to the numpy backend.

The segment merge reproduces the numpy backend's
``np.lexsort((-score, dest))`` first-wins semantics with a stable
key-only argsort followed by a strictly-greater run scan: within one
key's run the stable sort preserves input order, and ``>`` (not ``>=``)
keeps the earliest candidate on ties -- including ``0.0`` vs ``-0.0``,
which compare equal.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numba import njit, prange

from repro.decoder.backends import KernelBackend


@njit(parallel=True, nogil=True, cache=True)
def _gather(first, counts, offsets, total):
    arc_idx = np.empty(total, dtype=np.int64)
    src = np.empty(total, dtype=np.int64)
    for i in prange(first.shape[0]):
        base = offsets[i]
        f = first[i]
        for k in range(counts[i]):
            arc_idx[base + k] = f + k
            src[base + k] = i
    return arc_idx, src


@njit(parallel=True, nogil=True, cache=True)
def _expand_closure(
    first, counts, offsets, total,
    scores, arc_dest, arc_weight,
):
    arc_idx = np.empty(total, dtype=np.int64)
    src = np.empty(total, dtype=np.int64)
    dest = np.empty(total, dtype=np.int64)
    cand = np.empty(total, dtype=np.float64)
    for i in prange(first.shape[0]):
        base = offsets[i]
        f = first[i]
        s = scores[i]
        for k in range(counts[i]):
            a = f + k
            row = base + k
            arc_idx[row] = a
            src[row] = i
            dest[row] = arc_dest[a]
            cand[row] = s + arc_weight[a]
    return arc_idx, src, dest, cand


@njit(parallel=True, nogil=True, cache=True)
def _expand_fused(
    first, counts, offsets, total,
    scores, seg, arc_dest, arc_weight, arc_ilabel, frame_stack,
):
    arc_idx = np.empty(total, dtype=np.int64)
    src = np.empty(total, dtype=np.int64)
    dest = np.empty(total, dtype=np.int64)
    cand = np.empty(total, dtype=np.float64)
    for i in prange(first.shape[0]):
        base = offsets[i]
        f = first[i]
        s = scores[i]
        frame_row = frame_stack[seg[i]]
        for k in range(counts[i]):
            a = f + k
            row = base + k
            arc_idx[row] = a
            src[row] = i
            dest[row] = arc_dest[a]
            cand[row] = (s + arc_weight[a]) + frame_row[arc_ilabel[a]]
    return arc_idx, src, dest, cand


@njit(nogil=True, cache=True)
def _run_best(sorted_keys, sorted_scores):
    """Per key run of a stably key-sorted array, the strictly-best position.

    Sequential by construction (run boundaries are data-dependent), but a
    single O(n) pass over memory the sort just touched.
    """
    n = sorted_keys.shape[0]
    uniq = np.empty(n, dtype=np.int64)
    win = np.empty(n, dtype=np.int64)
    m = 0
    i = 0
    while i < n:
        key = sorted_keys[i]
        best_pos = i
        best_score = sorted_scores[i]
        j = i + 1
        while j < n and sorted_keys[j] == key:
            if sorted_scores[j] > best_score:
                best_score = sorted_scores[j]
                best_pos = j
            j += 1
        uniq[m] = key
        win[m] = best_pos
        m += 1
        i = j
    return uniq[:m], win[:m]


@njit(nogil=True, cache=True)
def _trace_reachable(prev, bps, keep):
    """Mark phase of traceback compaction: chain walks with early exit.

    Sequential on purpose: chains overlap heavily near the anchor, and
    the early exit on an already-marked record (which a parallel version
    would race on) is what keeps the walk O(kept records) total.  The
    resulting mask is identical to the numpy frontier-marking version --
    both mark exactly the records on some bps-to-anchor chain.
    """
    for i in range(bps.shape[0]):
        j = bps[i]
        while j >= 0 and not keep[j]:
            keep[j] = True
            j = prev[j]


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _offsets(counts: np.ndarray) -> Tuple[np.ndarray, int]:
    """Exclusive prefix sum of ``counts`` plus the flattened total."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return ends - counts, total


class NumbaBackend(KernelBackend):
    """Compiled implementation of the kernel's inner array operations."""

    name = "numba"

    def csr_gather(
        self, first: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        offsets, total = _offsets(counts)
        if total == 0:
            return _EMPTY_I64, _EMPTY_I64
        return _gather(
            np.ascontiguousarray(first), np.ascontiguousarray(counts),
            offsets, total,
        )

    def segment_best(
        self, keys: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        order = np.argsort(keys, kind="stable")
        uniq, win = _run_best(
            np.ascontiguousarray(keys[order]),
            np.ascontiguousarray(scores[order]),
        )
        return uniq, order[win]

    def expand_closure(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        offsets, total = _offsets(counts)
        if total == 0:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
        return _expand_closure(
            np.ascontiguousarray(first), np.ascontiguousarray(counts),
            offsets, total,
            np.ascontiguousarray(scores), arc_dest, arc_weight,
        )

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
        offsets, total = _offsets(counts)
        if total == 0:
            return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
        return _expand_fused(
            np.ascontiguousarray(first), np.ascontiguousarray(counts),
            offsets, total,
            np.ascontiguousarray(scores), np.ascontiguousarray(seg),
            arc_dest, arc_weight, arc_ilabel,
            np.ascontiguousarray(frame_stack),
        )

    def trace_reachable(
        self, prev: np.ndarray, size: int, bps: np.ndarray, anchor: int
    ) -> np.ndarray:
        keep = np.zeros(size, dtype=np.bool_)
        keep[anchor] = True
        _trace_reachable(
            np.ascontiguousarray(prev), np.ascontiguousarray(bps), keep
        )
        return keep
