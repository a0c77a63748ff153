"""Functional data-parallel Viterbi decoder (the CUDA baseline's algorithm).

The GPU baseline runs the same per-frame recurrence as every other
engine; since the kernel refactor the search itself is the shared
vectorized :class:`~repro.decoder.kernel.SearchKernel` and this module
only *derives the GPU workload model* from it, via a
:class:`~repro.decoder.kernel.KernelObserver` that maps kernel stages to
CUDA kernel launches:

1. **Compact** -- each :class:`PruneEvent` is a parallel reduction plus a
   compaction kernel (and a k-selection kernel when the histogram cap
   actually truncates).
2. **Expand** -- each :class:`ExpandEvent` is one expansion kernel: every
   non-epsilon arc of every surviving token is one atomic-max update.
3. **Epsilon passes** -- each :class:`ClosureEvent` round is one
   fixed-point iteration kernel; candidates that improve their
   destination (against the pre-round scores) are atomic updates.

The decoder returns the same best path as the sequential reference (ties
may resolve differently; scores are identical) and the per-decode work
counts the timing model consumes: arcs expanded, kernel phases, tokens,
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.common.errors import DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder.kernel import (
    ClosureEvent,
    DecoderConfig,
    ExpandEvent,
    KernelObserver,
    PruneEvent,
    SearchKernel,
)
from repro.decoder.result import DecodeResult
from repro.wfst.layout import CompiledWfst


@dataclass
class GpuWorkload:
    """Per-decode kernel work counts for the timing model."""

    frames: int = 0
    kernel_launches: int = 0
    arcs_expanded: int = 0
    epsilon_arcs_expanded: int = 0
    atomic_updates: int = 0
    tokens_compacted: int = 0
    epsilon_iterations: int = 0


class _GpuWorkloadObserver(KernelObserver):
    """Derives :class:`GpuWorkload` counters from the kernel event stream."""

    def __init__(self) -> None:
        self.work = GpuWorkload()

    def on_prune(self, event: PruneEvent) -> None:
        # Reduction for the beam threshold + compaction; histogram
        # pruning is an extra k-selection kernel when it truncates.
        self.work.kernel_launches += 2
        if event.cap_pruned:
            self.work.kernel_launches += 1
        self.work.tokens_compacted += len(event.survivor_states)

    def on_expand(self, event: ExpandEvent) -> None:
        n = len(event.arc_idx)
        self.work.kernel_launches += 1
        self.work.arcs_expanded += n
        self.work.atomic_updates += n

    def on_closure(self, event: ClosureEvent) -> None:
        self.work.kernel_launches += 1
        self.work.epsilon_iterations += 1
        self.work.epsilon_arcs_expanded += len(event.arc_idx)
        self.work.atomic_updates += int(np.count_nonzero(event.improved))


class GpuViterbiDecoder:
    """Beam-search decoder with CUDA-like phase accounting.

    Word output and functional counters come from the shared vectorized
    kernel; :meth:`decode` additionally returns the GPU work counts.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        beam: float = 12.0,
        max_active: int = 0,
        config: Optional[DecoderConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or DecoderConfig(beam=beam, max_active=max_active)
        self.beam = self.config.beam
        self.max_active = self.config.max_active
        self.kernel = SearchKernel(graph, self.config)

    # ------------------------------------------------------------------
    def decode(self, scores: AcousticScores) -> Tuple[DecodeResult, GpuWorkload]:
        """Decode one utterance; returns the result and GPU work counts."""
        observer = _GpuWorkloadObserver()
        observer.work.frames = scores.num_frames
        kernel = self.kernel
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        frontier = kernel.init_frontier(observers=(observer,))
        for row in scores.matrix:
            kernel.advance([frontier], row[None])
        return kernel.finalize(frontier), observer.work
