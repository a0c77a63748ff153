"""Word lattices and N-best extraction (beyond-paper extension of the
Section II search; built from the same token trace the accelerator's
Section III-B backpointer records encode).

The paper's accelerator emits a single best path (the token trace plus
backtracking), which is what its evaluation measures.  Production
recognisers usually also want alternatives; this module provides them on
the same search: a :class:`Lattice` is the DAG of all tokens that survived
the beam, with one node per (frame, state) and one edge per surviving arc
relaxation, from which N-best word sequences are extracted by k-shortest
paths.

Since the kernel refactor the beam search runs on the shared vectorized
:class:`~repro.decoder.kernel.SearchKernel`; lattice-arc capture is a
:class:`~repro.decoder.kernel.KernelObserver` (:class:`_LatticeBuilder`)
that receives each frame's expansion and epsilon-closure arc streams as
numpy arrays.  Lattice-beam pruning is vectorized too: the forward
(source-to-node) costs are exactly the kernel's token scores, the
backward costs are swept frame-by-frame with ``np.minimum.at``
relaxations, and only edges on paths within ``lattice_beam`` of the best
ever reach networkx.  Together this removes all per-arc Python work from
the decode hot path -- an order of magnitude over the former
dict-over-networkx search loop
(``benchmarks/bench_lattice_throughput.py`` gates the win at >= 3x).

The 1-best lattice path is exactly the Viterbi decoder's output (tested),
so the lattice is a strict generalisation of the trace the hardware writes
to main memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.common.logmath import LOG_ZERO
from repro.acoustic.scorer import AcousticScores
from repro.decoder.kernel import (
    ClosureEvent,
    DecoderConfig,
    ExpandEvent,
    KernelObserver,
    SearchKernel,
)
from repro.decoder.result import SearchStats
from repro.wfst.layout import CompiledWfst, FlatLayout

#: Synthetic source/sink node ids (frame, state) cannot collide with.
_SOURCE = ("source",)
_SINK = ("sink",)

_INF = np.inf


@dataclass(frozen=True)
class NBestEntry:
    """One N-best hypothesis."""

    words: Tuple[int, ...]
    log_likelihood: float


@dataclass
class Lattice:
    """A pruned token DAG over (frame, state) nodes."""

    graph: "nx.DiGraph"
    num_frames: int
    #: Functional counters of the underlying kernel search (shared
    #: semantics with every other engine); None for hand-built lattices.
    stats: Optional[SearchStats] = None
    #: Whether any token ended in a final state; False means the sink
    #: edges came from the shared best-live-token fallback policy.
    reached_final: bool = True

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes() - 2  # minus source/sink

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def best_path(self) -> NBestEntry:
        """The Viterbi path through the lattice."""
        entries = self.nbest(1)
        if not entries:
            raise DecodeError("lattice contains no complete path")
        return entries[0]

    def nbest(self, k: int, max_paths: Optional[int] = None) -> List[NBestEntry]:
        """Up to ``k`` highest-likelihood distinct word sequences.

        Distinct paths can share a word sequence (the same words with a
        different time alignment), so path enumeration is capped at
        ``max_paths`` (default ``50 * k``) to bound the search.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        if max_paths is None:
            max_paths = 50 * k
        elif max_paths < 1:
            raise ConfigError("max_paths must be >= 1")
        entries: List[NBestEntry] = []
        seen_words = set()
        paths = nx.shortest_simple_paths(
            self.graph, _SOURCE, _SINK, weight="cost"
        )
        examined = 0
        for path in paths:
            examined += 1
            if examined > max_paths:
                break
            words: List[int] = []
            score = 0.0
            for u, v in zip(path[:-1], path[1:]):
                data = self.graph.edges[u, v]
                score -= data["cost"]
                word = data.get("word", 0)
                if word:
                    words.append(word)
            key = tuple(words)
            if key in seen_words:
                continue
            seen_words.add(key)
            entries.append(NBestEntry(key, score))
            if len(entries) >= k:
                break
        return entries

    def oracle_wer(self, reference: Tuple[int, ...], k: int = 50) -> float:
        """Best WER achievable among the top-k hypotheses."""
        from repro.decoder.wer import word_error_rate

        entries = self.nbest(k)
        if not entries:
            return 1.0
        return min(word_error_rate(reference, e.words) for e in entries)


@dataclass
class _EdgeGroup:
    """One event's arc stream as parallel edge arrays.

    ``u_frame == v_frame`` marks an epsilon (within-frame) group.
    """

    u_frame: int
    v_frame: int
    srcs: np.ndarray
    dests: np.ndarray
    costs: np.ndarray
    words: np.ndarray


class _LatticeBuilder(KernelObserver):
    """Kernel observer that captures the surviving search space as edges.

    Each :class:`ExpandEvent` contributes one ``(frame, src) -> (frame+1,
    dest)`` edge per processed non-epsilon arc (cost ``-(arc weight +
    acoustic score)``, bit-identical to the scalar formulation); each
    :class:`ClosureEvent` round contributes ``(pass, src) -> (pass,
    dest)`` edges for its epsilon arcs.  Re-relaxation rounds re-emit
    identical edges and parallel arcs between one (src, dest) pair keep
    only the likeliest arc -- the cost the Viterbi recurrence itself
    uses -- so the edge relation matches the search exactly.
    """

    def __init__(self, flat: FlatLayout) -> None:
        self._flat = flat
        self.groups: List[_EdgeGroup] = []

    def _append(self, u_frame, v_frame, srcs, dests, costs, words) -> None:
        # Parallel arcs between one (src, dest) pair keep the likeliest
        # arc (min cost; ties keep the earlier arc, like the kernel's
        # first-wins relaxation).
        combined = srcs * np.int64(self._flat.num_states + 1) + dests
        order = np.lexsort((costs, combined))
        sorted_key = combined[order]
        keep = np.empty(order.size, dtype=bool)
        keep[0] = True
        keep[1:] = sorted_key[1:] != sorted_key[:-1]
        winners = order[keep]
        winners.sort()
        self.groups.append(_EdgeGroup(
            u_frame, v_frame,
            srcs[winners], dests[winners], costs[winners],
            np.asarray(words)[winners],
        ))

    def on_expand(self, event: ExpandEvent) -> None:
        if len(event.arc_idx) == 0:
            return
        flat = self._flat
        arc_idx = event.arc_idx
        costs = -(
            flat.arc_weight64[arc_idx]
            + event.frame_scores[flat.arc_ilabel[arc_idx]]
        )
        self._append(
            event.frame,
            event.frame + 1,
            event.states[event.arc_src],
            event.arc_dest,
            costs,
            flat.arc_olabel[arc_idx],
        )

    def on_closure(self, event: ClosureEvent) -> None:
        if len(event.arc_idx) == 0:
            return
        flat = self._flat
        arc_idx = event.arc_idx
        self._append(
            event.pass_index,
            event.pass_index,
            event.states[event.arc_src],
            event.arc_dest,
            -flat.arc_weight64[arc_idx],
            flat.arc_olabel[arc_idx],
        )


class LatticeDecoder:
    """Beam-search decoder that records the surviving search space.

    Runs the shared vectorized kernel with a lattice-capture observer;
    pruning strategies, emptied-beam policy and functional counters are
    therefore identical to every other engine.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        config: DecoderConfig = DecoderConfig(),
        lattice_beam: float = 6.0,
    ) -> None:
        if lattice_beam <= 0:
            raise ConfigError("lattice_beam must be positive")
        self.graph = graph
        self.config = config
        self.lattice_beam = lattice_beam
        self.kernel = SearchKernel(graph, config)

    # ------------------------------------------------------------------
    def decode(self, scores: AcousticScores) -> Lattice:
        """Decode one utterance into a lattice."""
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        kernel = self.kernel
        builder = _LatticeBuilder(kernel.flat)
        frontier = kernel.init_frontier(observers=(builder,))
        # Forward costs are free: the frontier's token scores at each
        # frame boundary are exactly the best source-to-node path costs.
        boundaries = [(frontier.states.copy(), frontier.scores.copy())]
        for row in scores.matrix:
            kernel.advance([frontier], row[None])
            boundaries.append((frontier.states.copy(), frontier.scores.copy()))

        lat, reached_final = self._build_pruned(
            builder.groups, boundaries, scores.num_frames
        )
        return Lattice(
            lat, scores.num_frames,
            stats=frontier.stats, reached_final=reached_final,
        )

    # ------------------------------------------------------------------
    def _build_pruned(
        self,
        groups: List[_EdgeGroup],
        boundaries: List[Tuple[np.ndarray, np.ndarray]],
        num_frames: int,
    ) -> Tuple["nx.DiGraph", bool]:
        """Lattice-beam pruning + graph build, all before networkx.

        A node survives when its best complete path cost ``fwd + bwd``
        is within ``lattice_beam`` of the best path; an edge survives
        when both endpoints do (the semantics of dropping the doomed
        nodes).  ``fwd`` comes from the recorded token scores; ``bwd``
        is swept backwards one frame boundary at a time -- non-epsilon
        edges in one vectorized relaxation, within-frame epsilon edges
        iterated to fixpoint (the epsilon subgraph is acyclic, so the
        iterations converge in at most its depth).
        """
        flat = self.kernel.flat
        num_states = flat.num_states
        shape = (num_frames + 1, num_states)

        fwd = np.full(shape, _INF)
        for f, (states, token_scores) in enumerate(boundaries):
            fwd[f, states] = -token_scores

        # Group the edge arrays by frame boundary.
        expand: List[Optional[_EdgeGroup]] = [None] * num_frames
        eps: List[List[_EdgeGroup]] = [[] for _ in range(num_frames + 1)]
        for group in groups:
            if group.u_frame == group.v_frame:
                eps[group.u_frame].append(group)
            else:
                expand[group.u_frame] = group

        # Terminal costs, per the shared finalize policy.
        bwd = np.full(shape, _INF)
        end_states, _ = boundaries[num_frames]
        finals = flat.final_weights[end_states]
        final_mask = finals > LOG_ZERO / 2
        if final_mask.any():
            bwd[num_frames, end_states[final_mask]] = -finals[final_mask]
        else:
            bwd[num_frames, end_states] = 0.0

        # Backward sweep: expand edges first, then the frame boundary's
        # epsilon edges (all closure rounds of the pass combined) to
        # fixpoint.
        for f in range(num_frames, -1, -1):
            row = bwd[f]
            if f < num_frames and expand[f] is not None:
                group = expand[f]
                np.minimum.at(
                    row, group.srcs, group.costs + bwd[f + 1][group.dests]
                )
            if eps[f]:
                srcs = np.concatenate([g.srcs for g in eps[f]])
                dests = np.concatenate([g.dests for g in eps[f]])
                costs = np.concatenate([g.costs for g in eps[f]])
                while True:
                    before = row[srcs]
                    np.minimum.at(row, srcs, costs + row[dests])
                    if not (row[srcs] < before).any():
                        break

        total = fwd + bwd
        best = total.min()
        if not np.isfinite(best):
            raise DecodeError("lattice has no source-to-sink path")
        keep = total <= best + self.lattice_beam

        # Materialise only the surviving edges.
        lat = nx.DiGraph()
        lat.add_node(_SOURCE)
        lat.add_node(_SINK)
        start = self.graph.start
        if keep[0, start]:
            lat.add_edge(_SOURCE, (0, start), cost=0.0, word=0)
        for group in groups:
            mask = keep[group.u_frame, group.srcs] & keep[
                group.v_frame, group.dests
            ]
            if not mask.any():
                continue
            u_frame, v_frame = group.u_frame, group.v_frame
            lat.add_edges_from(
                ((u_frame, s), (v_frame, d), {"cost": c, "word": w})
                for s, d, c, w in zip(
                    group.srcs[mask].tolist(),
                    group.dests[mask].tolist(),
                    group.costs[mask].tolist(),
                    group.words[mask].tolist(),
                )
            )
        if final_mask.any():
            for state, weight in zip(
                end_states[final_mask].tolist(),
                finals[final_mask].tolist(),
            ):
                if keep[num_frames, state]:
                    lat.add_edge(
                        (num_frames, state), _SINK, cost=-weight, word=0
                    )
        else:
            # No token reached a final state: fall back to the live
            # tokens at zero cost, mirroring every engine's finalize --
            # the 1-best lattice path is then the reference decoders'
            # best-live-token hypothesis.
            for state in end_states.tolist():
                if keep[num_frames, state]:
                    lat.add_edge(
                        (num_frames, state), _SINK, cost=0.0, word=0
                    )
        return lat, bool(final_mask.any())
