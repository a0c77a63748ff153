"""The one frame-recurrence kernel under every decode engine.

Every engine in this repository -- the scalar reference decoder, the
vectorized batch engine, streaming sessions, the lattice decoder, the GPU
workload model and the accelerator trace recorder -- runs the same
algorithm: the WFST token-passing beam search of the paper's Section II.
Per 10 ms frame the recurrence is

    prune -> non-epsilon expand -> destination merge -> epsilon closure

This module is the single home of that recurrence.  It provides two
*disciplines* over one shared configuration, pruning-strategy layer and
observer protocol:

* :class:`SearchKernel` -- the vectorized discipline.
  :meth:`~SearchKernel.advance` moves any number of :class:`Frontier`
  objects -- one utterance or a continuous-batching fleet -- by one
  frame in a single combined sweep over the
  :class:`~repro.wfst.layout.FlatLayout` Structure-of-Arrays graph view
  (bulk CSR arc gather, fused score accumulation, segment-max merge,
  round-based epsilon closure), keyed so frontiers never mix.  There is
  no separate single-frontier path: a lone frontier is a fleet of one,
  and each frontier's result and event stream are identical whatever
  fleet it is swept in.  ``BatchDecoder``, ``DecodeSession``,
  ``LatticeDecoder`` and ``GpuViterbiDecoder`` all run on it.

* :class:`ReferenceKernel` -- the scalar oracle discipline.  A dict-based
  token walk that reproduces the *exact* event order of the hardware
  model in :class:`repro.accel.simulator.AcceleratorSimulator`: tokens
  are walked in insertion order, relaxations are first-wins on ties, and
  the epsilon closure is a FIFO worklist with re-visits on improvement.
  ``ViterbiDecoder`` and ``repro.accel.trace.TraceRecorder`` run on it --
  the recorder as a :class:`KernelObserver` -- which is what keeps trace
  replay cycle-identical to the monolithic simulator.

Both disciplines compute the same fixpoint per frame, so word output,
path likelihoods and every order-independent counter (``tokens_pruned``,
``states_expanded``, ``arcs_processed``, ``tokens_created``,
``active_tokens_per_frame``) agree across all engines; only the
order-dependent ``tokens_updated`` / ``epsilon_arcs_processed`` counters
are discipline approximations in the vectorized kernel.

Kernel backends
---------------
The vectorized discipline's pure-array inner loops (CSR arc gather,
fused gather+score expansion, segment-best merge) are pluggable through
:mod:`repro.decoder.backends`: ``numpy`` is the portable default and
``numba`` (optional, ``pip install repro-asr[compiled]``) provides
compiled parallel kernels.  Selection flows through
``DecoderConfig.backend`` (``"auto"`` consults the
``REPRO_KERNEL_BACKEND`` environment variable); every backend is
bit-identical -- word output, path scores, counters and observer event
streams -- which ``tests/test_backend_equivalence.py`` asserts
differentially.  All pruning, merge policy, trace and observer logic
stays in this module, shared by every backend.

Pruning strategies
------------------
Pruning is a pluggable per-utterance strategy created from
:class:`DecoderConfig` (one fresh instance per decode; see
:meth:`DecoderConfig.make_pruner`):

* ``pruning="beam"`` -- the classic fixed beam: a token survives if its
  likelihood is within ``beam`` of the frame's best.  With
  ``max_active > 0`` a histogram cap keeps only the best ``max_active``
  survivors (this beam+cap combination is the paper's operating point).
* ``pruning="adaptive"`` -- the executable version of the paper's Fig. 9
  beam ablation axis: the beam widens/narrows multiplicatively every
  frame to hold the *post-beam* survivor count near ``target_active``,
  clamped to ``[min_beam, max_beam]``.  The adaptation signal is the
  survivor count before the histogram cap, so the feedback is identical
  in every engine and the fused multi-session sweep.

Observer protocol
-----------------
Engines that need more than the decode result subscribe a
:class:`KernelObserver` instead of forking the recurrence: the kernel
emits :class:`PruneEvent` / :class:`ExpandEvent` / :class:`ClosureEvent`
payloads in issue order.  The lattice decoder captures its arc DAG, the
GPU model derives kernel-launch/atomic work counts, and the accelerator
trace recorder captures the full hardware event stream this way.  In the
vectorized discipline each observed frontier's events are sliced out of
the shared sweep arrays with row indices rebased to that frontier;
event construction is skipped entirely for frontiers without observers.

Emptied-beam policy (shared by every engine)
--------------------------------------------
* If the frontier is empty at the *start* of a frame -- which can only
  happen when the previous frame's survivors had no outgoing non-epsilon
  arcs -- the kernel raises :class:`~repro.common.errors.DecodeError`
  (``"beam emptied the search at frame F"``).  There is no silent
  fallback mid-utterance: an empty frontier means the graph cannot
  consume the remaining audio.
* At *finalize*, if no live token is in a final state, every engine
  falls back to the best live token and reports
  ``reached_final=False`` rather than raising.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.common.logmath import LOG_ZERO
from repro.acoustic.scorer import AcousticScores
from repro.decoder.backends import KERNEL_BACKENDS, KernelBackend, resolve_backend
from repro.decoder.result import DecodeResult, SearchStats
# The shared backpointer trace of the vectorized discipline lives in
# repro.decoder.traceback (windowed compaction + committed-prefix
# protocol); re-exported here to keep the historical import path.
from repro.decoder.traceback import TokenTrace
from repro.wfst.layout import CompiledWfst, FlatLayout

#: Pruning strategies selectable through :class:`DecoderConfig`.
PRUNING_STRATEGIES = ("beam", "adaptive")


# ----------------------------------------------------------------------
# Configuration and pruning strategies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecoderConfig:
    """Search parameters shared by every decode engine.

    Attributes:
        beam: log-likelihood pruning window below the frame's best token
            (the initial window under ``pruning="adaptive"``).
        max_active: hard cap on surviving tokens per frame (histogram
            pruning); 0 disables the cap.
        pruning: ``"beam"`` (fixed window) or ``"adaptive"`` (the window
            tracks ``target_active``); see the module docstring.
        target_active: adaptive-beam target for the post-beam survivor
            count per frame (required > 0 when ``pruning="adaptive"``).
        min_beam / max_beam: clamp range of the adaptive window.
            ``max_beam=0`` defaults to ``4 * beam``.
        adapt_rate: exponent of the multiplicative update
            ``beam *= (target_active / survivors) ** adapt_rate``;
            in (0, 1], higher reacts faster.
        backend: kernel array backend for the vectorized discipline:
            ``"numpy"`` (portable default), ``"numba"`` (compiled; falls
            back to numpy with a typed warning when not installed) or
            ``"auto"`` (consults the ``REPRO_KERNEL_BACKEND`` environment
            variable, then numpy).  Purely a speed knob: every backend
            is bit-identical on words, scores, counters and events.
        commit_interval: frames between committed-prefix commits of the
            streaming traceback buffer (see
            :mod:`repro.decoder.traceback`): every ``commit_interval``
            frames a session emits the words all live hypotheses agree
            on and garbage-collects unreachable trace records, bounding
            peak trace memory by the window instead of the utterance.
            0 (the default) keeps the historical append-only behaviour.
            Word output is identical either way; only partial-latency
            and memory change.
    """

    beam: float = 12.0
    max_active: int = 0
    pruning: str = "beam"
    target_active: int = 0
    min_beam: float = 1.0
    max_beam: float = 0.0
    adapt_rate: float = 0.5
    backend: str = "auto"
    commit_interval: int = 0

    def __post_init__(self) -> None:
        if self.beam <= 0:
            raise ConfigError("beam must be positive")
        if self.commit_interval < 0:
            raise ConfigError("commit_interval must be >= 0")
        if self.backend not in KERNEL_BACKENDS:
            raise ConfigError(
                f"unknown kernel backend {self.backend!r} "
                f"(choose from {KERNEL_BACKENDS})"
            )
        if self.max_active < 0:
            raise ConfigError("max_active must be >= 0")
        if self.pruning not in PRUNING_STRATEGIES:
            raise ConfigError(
                f"unknown pruning strategy {self.pruning!r} "
                f"(choose from {PRUNING_STRATEGIES})"
            )
        if self.target_active < 0:
            raise ConfigError("target_active must be >= 0")
        if self.pruning == "adaptive":
            if self.target_active == 0:
                raise ConfigError(
                    "adaptive pruning requires target_active > 0"
                )
            if self.min_beam <= 0:
                raise ConfigError("min_beam must be positive")
            if self.min_beam > self.beam:
                raise ConfigError("min_beam must not exceed beam")
            if self.resolved_max_beam < self.beam:
                raise ConfigError("max_beam must be >= beam (or 0 for auto)")
            if not 0 < self.adapt_rate <= 1:
                raise ConfigError("adapt_rate must be in (0, 1]")

    @property
    def resolved_max_beam(self) -> float:
        """The adaptive clamp ceiling (``max_beam`` or ``4 * beam``)."""
        return self.max_beam if self.max_beam > 0 else 4.0 * self.beam

    def make_pruner(self) -> "PruningStrategy":
        """A fresh per-utterance pruning strategy instance."""
        if self.pruning == "adaptive":
            return AdaptiveBeamPruning(self)
        return FixedBeamPruning(self)


#: Backwards-compatible alias: the pre-kernel name of the search config.
BeamSearchConfig = DecoderConfig


class PruningStrategy:
    """Per-utterance pruning state driving one decode.

    The kernel calls, once per frame and in this order:

    1. :meth:`threshold` with the frame's best token score -- tokens with
       ``score >= threshold`` survive the beam;
    2. :meth:`cap` -- if positive and the survivors exceed it, only the
       best ``cap`` tokens are kept (histogram pruning);
    3. :meth:`observe` with the *post-beam, pre-cap* survivor count --
       the adaptation feedback.

    All arithmetic runs on plain Python floats so every engine (scalar,
    vectorized, fused multi-session) prunes bit-identically.
    """

    def threshold(self, best: float) -> float:
        raise NotImplementedError

    def cap(self) -> int:
        raise NotImplementedError

    def observe(self, survivors: int) -> None:
        raise NotImplementedError

    @property
    def current_beam(self) -> float:
        raise NotImplementedError


class FixedBeamPruning(PruningStrategy):
    """Fixed beam window with an optional histogram cap."""

    def __init__(self, config: DecoderConfig) -> None:
        self._beam = float(config.beam)
        self._cap = int(config.max_active)

    def threshold(self, best: float) -> float:
        return best - self._beam

    def cap(self) -> int:
        return self._cap

    def observe(self, survivors: int) -> None:  # fixed window: no feedback
        pass

    @property
    def current_beam(self) -> float:
        return self._beam


class AdaptiveBeamPruning(PruningStrategy):
    """Beam window that tracks a target active-token count.

    After each frame's beam pruning the window is scaled by
    ``(target_active / survivors) ** adapt_rate`` and clamped to
    ``[min_beam, max_beam]``: too many survivors narrow the beam, too few
    widen it.  The update uses the pre-cap survivor count, so composing
    with ``max_active`` does not saturate the feedback signal.
    """

    def __init__(self, config: DecoderConfig) -> None:
        self._beam = float(config.beam)
        self._cap = int(config.max_active)
        self._target = int(config.target_active)
        self._min = float(config.min_beam)
        self._max = float(config.resolved_max_beam)
        self._rate = float(config.adapt_rate)

    def threshold(self, best: float) -> float:
        return best - self._beam

    def cap(self) -> int:
        return self._cap

    def observe(self, survivors: int) -> None:
        ratio = self._target / max(survivors, 1)
        beam = self._beam * ratio ** self._rate
        self._beam = min(max(beam, self._min), self._max)

    @property
    def current_beam(self) -> float:
        return self._beam


# ----------------------------------------------------------------------
# Observer protocol
# ----------------------------------------------------------------------
@dataclass
class PruneEvent:
    """One frame's pruning, in token-walk order.

    ``walk_states`` is the full pre-prune token walk (the State Issuer's
    hash-table read order in the reference discipline; ascending state
    order in the vectorized discipline).  ``survivor_states`` /
    ``survivor_read_idx`` give the post-prune tokens in issue order and
    their positions within the walk.
    """

    frame: int
    walk_states: Sequence[int]
    survivor_states: Sequence[int]
    survivor_read_idx: Sequence[int]
    threshold: float
    beam_pruned: int
    cap_pruned: int


@dataclass
class ExpandEvent:
    """One frame's non-epsilon expansion, in issue order.

    Per survivor: ``states`` / ``first`` / ``n_arcs`` / ``read_idx`` (the
    contiguous arc block and walk position).  Per arc: ``arc_idx`` /
    ``arc_dest`` plus, per discipline, ``arc_src`` (survivor ordinal) and
    ``arc_scores`` (candidate path scores, vectorized discipline only)
    or ``improved`` (exact running relaxation-won flags, reference
    discipline only -- the backpointer-write stream).
    """

    frame: int
    frame_scores: Sequence[float]
    states: Sequence[int]
    first: Sequence[int]
    n_arcs: Sequence[int]
    read_idx: Sequence[int]
    arc_idx: Sequence[int]
    arc_dest: Sequence[int]
    arc_src: Optional[Sequence[int]] = None
    arc_scores: Optional[Sequence[float]] = None
    improved: Optional[Sequence[bool]] = None


@dataclass
class ClosureEvent:
    """One epsilon-closure pass (reference) or round (vectorized).

    ``pass_index`` 0 is the initial closure from the start state; pass
    ``f + 1`` is the closure inside frame ``f``.  The reference
    discipline emits exactly one event per pass covering the whole FIFO
    worklist, with ``src`` provenance (index of the epsilon arc event
    that enqueued each visit, -1 for seeds); the vectorized discipline
    emits one event per relaxation round with ``round_index`` counting
    rounds and ``src=None``.  ``improved`` flags are exact in the
    reference discipline and measured against the pre-round token scores
    in the vectorized one.
    """

    pass_index: int
    round_index: int
    states: Sequence[int]
    first: Sequence[int]
    n_arcs: Sequence[int]
    src: Optional[Sequence[int]]
    arc_idx: Sequence[int]
    arc_dest: Sequence[int]
    arc_src: Optional[Sequence[int]] = None
    arc_scores: Optional[Sequence[float]] = None
    improved: Optional[Sequence[bool]] = None


class KernelObserver:
    """Base observer: subclass and override what you need.

    Events arrive in issue order: per frame one :meth:`on_prune`, one
    :meth:`on_expand` (even when the frontier has no non-epsilon arcs)
    and one or more :meth:`on_closure` (one per pass in the reference
    discipline -- always emitted, possibly empty -- or one per non-empty
    round in the vectorized discipline, where a pass with no epsilon
    work emits nothing).
    """

    def on_prune(self, event: PruneEvent) -> None:
        pass

    def on_expand(self, event: ExpandEvent) -> None:
        pass

    def on_closure(self, event: ClosureEvent) -> None:
        pass


# ----------------------------------------------------------------------
# Frontier: one utterance's live search state
# ----------------------------------------------------------------------
@dataclass
class Frontier:
    """Per-utterance search state between frames.

    ``states`` is kept sorted ascending; ``scores`` / ``bps`` are parallel
    to it.  The invariant makes the epsilon-closure merges a sorted-array
    merge instead of a hash probe.  ``num_frames`` counts the frames
    consumed so far (:meth:`SearchKernel.advance` grows it).  Each
    frontier owns its pruning-strategy state and observer list.
    """

    states: np.ndarray
    scores: np.ndarray
    bps: np.ndarray
    trace: TokenTrace
    stats: SearchStats
    num_frames: int
    pruner: PruningStrategy
    observers: Tuple[KernelObserver, ...] = ()


# Row-to-frontier labels ("seg" arrays) of the fused sweep.  A sweep over
# one frontier carries ``None`` instead of an all-zero label array, which
# keeps a lone frontier as cheap to sweep as a dedicated path would.
Seg = Optional[np.ndarray]


def _take(seg: Seg, index: np.ndarray) -> Seg:
    """Labels of the selected rows."""
    return None if seg is None else seg[index]


def _blocks(seg: Seg, n: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-frontier ``(row counts, end rows)`` of a frontier-major array."""
    if seg is None:
        counts = np.array([size], dtype=np.int64)
        return counts, counts
    counts = np.bincount(seg, minlength=n)
    return counts, counts.cumsum()


def _concat(arrays: List[np.ndarray]) -> np.ndarray:
    """Concatenation that hands a lone array back without copying."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _split(array: np.ndarray, ends: np.ndarray) -> List[np.ndarray]:
    """Split ``array`` into the segments ending at each of ``ends``."""
    if len(ends) == 1:
        return [array]
    return np.split(array, ends[:-1])


def _sorted_insert(
    positions: np.ndarray, *pairs: Tuple[np.ndarray, np.ndarray]
) -> List[np.ndarray]:
    """``np.insert(array, positions, values)`` for each ``(array, values)``.

    ``positions`` must be ascending.  The merged layout is computed once
    and shared by every array, which is what makes this several times
    cheaper than one ``np.insert`` per array.
    """
    total = pairs[0][0].size + positions.size
    new_at = positions + np.arange(positions.size, dtype=np.int64)
    old_at = np.ones(total, dtype=bool)
    old_at[new_at] = False
    merged = []
    for array, values in pairs:
        out = np.empty(total, dtype=array.dtype)
        out[old_at] = array
        out[new_at] = values
        merged.append(out)
    return merged


# ----------------------------------------------------------------------
# The vectorized discipline
# ----------------------------------------------------------------------
class SearchKernel:
    """Vectorized frame recurrence over the SoA graph view.

    One kernel instance is shared by every frontier on a graph (the flat
    layout and config are immutable); per-utterance state lives in the
    :class:`Frontier`.
    """

    def __init__(
        self, graph: CompiledWfst, config: DecoderConfig = DecoderConfig()
    ) -> None:
        self.graph = graph
        self.config = config
        self.flat: FlatLayout = graph.flat()
        #: The array backend running the inner sweeps, resolved once per
        #: kernel from ``config.backend`` (see repro.decoder.backends).
        self.backend: KernelBackend = resolve_backend(config.backend)
        #: Shortest score row that every arc's ilabel can index safely.
        self.min_score_width: int = (
            int(self.flat.arc_ilabel.max()) + 1 if self.flat.num_arcs else 1
        )

    @property
    def backend_name(self) -> str:
        """Resolved name of the active array backend ("numpy"/"numba")."""
        return self.backend.name

    # ------------------------------------------------------------------
    def init_frontier(
        self, observers: Sequence[KernelObserver] = ()
    ) -> Frontier:
        """A fresh frontier at the start state, epsilon closure applied."""
        trace = TokenTrace(
            commit_interval=self.config.commit_interval, backend=self.backend
        )
        root = trace.append_bulk(
            np.array([-1], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        frontier = Frontier(
            states=np.array([self.graph.start], dtype=np.int64),
            scores=np.array([0.0], dtype=np.float64),
            bps=root,
            trace=trace,
            stats=SearchStats(),
            num_frames=0,
            pruner=self.config.make_pruner(),
            observers=tuple(observers),
        )
        self._fused_closure([frontier], [0])
        return frontier

    def finalize(self, frontier: Frontier) -> DecodeResult:
        """Pick the best (preferably final) token and backtrack.

        Falls back to the best live token (``reached_final=False``) when
        no token is in a final state -- the shared emptied-beam policy.
        """
        if frontier.states.size == 0:
            raise DecodeError("no active tokens at the end of the utterance")

        finals = self.flat.final_weights[frontier.states]
        final_mask = finals > LOG_ZERO / 2
        if final_mask.any():
            totals = frontier.scores[final_mask] + finals[final_mask]
            i = int(np.argmax(totals))
            score = float(totals[i])
            bp = int(frontier.bps[final_mask][i])
            reached_final = True
        else:
            i = int(np.argmax(frontier.scores))
            score = float(frontier.scores[i])
            bp = int(frontier.bps[i])
            reached_final = False

        # Full hypothesis = stable committed prefix + tail backtrack.
        # With commit_interval=0 the committed prefix is empty and this
        # is the historical full-path walk.
        committed = frontier.trace.committed
        words = committed + tuple(frontier.trace.backtrack(bp))
        return DecodeResult(
            words=words,
            log_likelihood=score,
            reached_final=reached_final,
            stats=frontier.stats,
            committed_len=len(committed),
        )

    # ------------------------------------------------------------------
    # The recurrence: one sweep over any number of frontiers
    # ------------------------------------------------------------------
    def advance(
        self, frontiers: Sequence[Frontier], frame_stack: np.ndarray
    ) -> None:
        """Advance every frontier by one frame: the kernel's entry point.

        ``frame_stack[i]`` is frontier ``i``'s row of acoustic scores, at
        least :attr:`min_score_width` wide (callers validate).  An empty
        frontier raises :class:`DecodeError` (the emptied-beam policy).
        Every stage then runs once over the frontier-major concatenation
        of all frontiers, keyed by ``i * num_states + state`` so
        frontiers never mix: each frontier's result is bit-identical to
        a sweep over that frontier alone, and observer events are cut
        per observed frontier out of the shared arrays, row indices
        rebased to it.  Last, each frontier counts the frame and passes
        its traceback commit point.
        """
        for frontier in frontiers:
            if frontier.states.size == 0:
                raise DecodeError(
                    f"beam emptied the search at frame {frontier.num_frames}"
                )
        flat = self.flat
        n = len(frontiers)
        counts = np.array([f.states.size for f in frontiers], dtype=np.int64)
        walk = _concat([f.states for f in frontiers])
        walk_scores = _concat([f.scores for f in frontiers])
        walk_bps = _concat([f.bps for f in frontiers])
        walk_seg: Seg = None
        starts = np.zeros(1, dtype=np.int64)
        if n > 1:
            walk_seg = np.repeat(np.arange(n, dtype=np.int64), counts)
            starts = counts.cumsum() - counts

        # Beam pruning: each frontier's strategy supplies its threshold.
        thresholds = [
            f.pruner.threshold(float(best))
            for f, best in zip(frontiers, np.maximum.reduceat(walk_scores, starts))
        ]
        if walk_seg is None:
            rows = np.flatnonzero(walk_scores >= thresholds[0])
        else:
            rows = np.flatnonzero(walk_scores >= np.array(thresholds)[walk_seg])
        kept, row_ends = _blocks(_take(walk_seg, rows), n, rows.size)

        # Histogram pruning: stable per-frontier top-cap by score, kept
        # in walk order.  The cap is a config constant, identical across
        # strategies and frontiers.
        survivors, cap = kept, self.config.max_active
        if cap and (kept > cap).any():
            mask = np.ones(rows.size, dtype=bool)
            for i in np.flatnonzero(kept > cap):
                r0 = int(row_ends[i] - kept[i])
                by_score = np.argsort(
                    -walk_scores[rows[r0:row_ends[i]]], kind="stable"
                )
                mask[by_score[cap:] + r0] = False
            rows = rows[mask]
            survivors = np.minimum(kept, cap)
            row_ends = survivors.cumsum()

        states, scores, bps = walk[rows], walk_scores[rows], walk_bps[rows]
        seg = _take(walk_seg, rows)
        degrees = _split(flat.out_degree[states], row_ends)
        for i, frontier in enumerate(frontiers):
            stats = frontier.stats
            stats.tokens_pruned += int(counts[i] - survivors[i])
            stats.active_tokens_per_frame.append(int(survivors[i]))
            stats.states_expanded += int(survivors[i])
            stats.visited_state_degrees.extend(degrees[i].tolist())
            frontier.pruner.observe(int(kept[i]))

        # Fused gather + score accumulation across every frontier's
        # surviving states at once (the backend's widest parallel sweep:
        # its row space spans all frontiers).
        first = flat.first_arc[states]
        n_arcs = flat.num_non_eps[states]
        arc_idx, src, dest, new_scores = self.backend.expand_fused(
            first, n_arcs, scores,
            np.zeros(states.size, dtype=np.int64) if seg is None else seg,
            flat.arc_dest, flat.arc_weight64, flat.arc_ilabel, frame_stack,
        )
        arc_seg = _take(seg, src)
        arc_counts, arc_ends = _blocks(arc_seg, n, arc_idx.size)
        for i, frontier in enumerate(frontiers):
            frontier.stats.arcs_processed += int(arc_counts[i])
            if not frontier.observers:
                continue
            r0, r1 = int(row_ends[i] - survivors[i]), int(row_ends[i])
            a0, a1 = int(arc_ends[i] - arc_counts[i]), int(arc_ends[i])
            read_idx = rows[r0:r1] - starts[i]
            prune = PruneEvent(
                frame=frontier.num_frames,
                walk_states=frontier.states,
                survivor_states=states[r0:r1],
                survivor_read_idx=read_idx,
                threshold=thresholds[i],
                beam_pruned=int(counts[i] - kept[i]),
                cap_pruned=int(kept[i] - survivors[i]),
            )
            expand = ExpandEvent(
                frame=frontier.num_frames,
                frame_scores=frame_stack[i],
                states=states[r0:r1],
                first=first[r0:r1],
                n_arcs=n_arcs[r0:r1],
                read_idx=read_idx,
                arc_idx=arc_idx[a0:a1],
                arc_dest=dest[a0:a1],
                arc_src=src[a0:a1] - r0,
                arc_scores=new_scores[a0:a1],
            )
            for observer in frontier.observers:
                observer.on_prune(prune)
            for observer in frontier.observers:
                observer.on_expand(expand)

        # Segment-max merge on the combined (frontier, state) key.  A
        # frontier whose survivors have no non-epsilon arcs empties, and
        # its next advance raises (the emptied-beam policy).
        winners = np.empty(0, dtype=np.int64)
        if arc_idx.size:
            keys = dest if arc_seg is None else arc_seg * flat.num_states + dest
            winners = self.backend.segment_best(keys, new_scores)[1]
        _, win_ends = _blocks(_take(arc_seg, winners), n, winners.size)
        for frontier, won in zip(frontiers, _split(winners, win_ends)):
            frontier.bps = frontier.trace.append_bulk(
                bps[src[won]], flat.arc_olabel[arc_idx[won]]
            )
            frontier.stats.tokens_created += won.size
            frontier.states = dest[won]
            frontier.scores = new_scores[won]

        self._fused_closure(frontiers, [f.num_frames + 1 for f in frontiers])
        for frontier in frontiers:
            frontier.num_frames += 1
            frontier.stats.frames += 1
            # Committed-prefix commit point: between frames, never
            # mid-closure; skipped once the beam emptied the frontier.
            trace = frontier.trace
            if frontier.states.size and trace.should_commit(frontier.num_frames):
                frontier.bps = trace.commit(frontier.bps, frontier.num_frames)

    def _fused_closure(
        self, frontiers: Sequence[Frontier], passes: Sequence[int]
    ) -> None:
        """Epsilon closure to fixpoint over every frontier in lockstep rounds.

        ``passes[i]`` is frontier ``i``'s closure pass index for its
        events: 0 for the initial closure, frame + 1 inside a frame.
        """
        flat = self.flat
        n = len(frontiers)
        num_states = flat.num_states
        observed = any(f.observers for f in frontiers)

        # Combined sorted token arrays: frontier-major concatenation keeps
        # the (i * num_states + state) keys globally ascending.
        f_comb = _concat(
            [f.states + i * num_states if i else f.states
             for i, f in enumerate(frontiers)]
        )
        f_scores = _concat([f.scores for f in frontiers])
        f_bps = _concat([f.bps for f in frontiers])

        # Tokens whose score improved last round: frontier, state, score, bp.
        act_seg: Seg = None
        if n > 1:
            act_seg = np.repeat(
                np.arange(n, dtype=np.int64), [f.states.size for f in frontiers]
            )
        act_states = _concat([f.states for f in frontiers])
        act_scores, act_bps = f_scores, f_bps
        round_index = 0
        while act_states.size:
            eps_first = flat.eps_first[act_states]
            n_eps = flat.num_eps[act_states]
            arc_idx, src, dest, cand = self.backend.expand_closure(
                eps_first, n_eps, act_scores, flat.arc_dest, flat.arc_weight64
            )
            if arc_idx.size == 0:
                break
            arc_seg = _take(act_seg, src)
            keys = dest if arc_seg is None else arc_seg * num_states + dest
            eps_counts, arc_ends = _blocks(arc_seg, n, arc_idx.size)
            act_ends = _blocks(act_seg, n, act_states.size)[1] if observed else ()
            for i, frontier in enumerate(frontiers):
                frontier.stats.epsilon_arcs_processed += int(eps_counts[i])
                if not frontier.observers or not eps_counts[i]:
                    continue  # unobserved, or this frontier has converged
                r0, r1 = int(act_ends[i - 1]) if i else 0, int(act_ends[i])
                a0, a1 = int(arc_ends[i] - eps_counts[i]), int(arc_ends[i])
                # Per-arc improvement vs the pre-round token scores (the
                # GPU model's atomic-update semantics).
                pos = np.searchsorted(f_comb, keys[a0:a1])
                pos_c = np.minimum(pos, f_comb.size - 1)
                exists = (pos < f_comb.size) & (f_comb[pos_c] == keys[a0:a1])
                existing = np.where(exists, f_scores[pos_c], np.float64(LOG_ZERO))
                event = ClosureEvent(
                    pass_index=passes[i],
                    round_index=round_index,
                    states=act_states[r0:r1],
                    first=eps_first[r0:r1],
                    n_arcs=n_eps[r0:r1],
                    src=None,
                    arc_idx=arc_idx[a0:a1],
                    arc_dest=dest[a0:a1],
                    arc_src=src[a0:a1] - r0,
                    arc_scores=cand[a0:a1],
                    improved=cand[a0:a1] > existing,
                )
                for observer in frontier.observers:
                    observer.on_closure(event)
            round_index += 1

            uniq, winners = self.backend.segment_best(keys, cand)
            cand_scores = cand[winners]

            # Merge candidates into the sorted token arrays: a candidate
            # wins if its state is new or strictly better (ties keep the
            # existing token, like the reference discipline).
            pos = np.searchsorted(f_comb, uniq)
            pos_clipped = np.minimum(pos, f_comb.size - 1)
            exists = (pos < f_comb.size) & (f_comb[pos_clipped] == uniq)
            improves = exists & (cand_scores > f_scores[pos_clipped])
            is_new = ~exists
            accepted = improves | is_new
            if not accepted.any():
                break

            # Trace records go to each frontier's own trace, in key order.
            acc_arcs = winners[accepted]
            acc_seg = _take(arc_seg, acc_arcs)
            _, acc_ends = _blocks(acc_seg, n, acc_arcs.size)
            trace_idx = _concat([
                frontier.trace.append_bulk(pv, wd)
                for frontier, pv, wd in zip(
                    frontiers,
                    _split(act_bps[src[acc_arcs]], acc_ends),
                    _split(flat.arc_olabel[arc_idx[acc_arcs]], acc_ends),
                )
            ])
            imp_in_acc = improves[accepted]
            new_in_acc = is_new[accepted]
            if acc_seg is None:
                created = [np.count_nonzero(new_in_acc)]
                updated = [np.count_nonzero(imp_in_acc)]
            else:
                created = np.bincount(acc_seg[new_in_acc], minlength=n)
                updated = np.bincount(acc_seg[imp_in_acc], minlength=n)
            for i, frontier in enumerate(frontiers):
                frontier.stats.tokens_created += int(created[i])
                frontier.stats.tokens_updated += int(updated[i])

            # In-place update of improved existing tokens, then sorted
            # insertion of brand-new ones.
            upd = pos[improves]
            f_scores[upd] = cand_scores[improves]
            f_bps[upd] = trace_idx[imp_in_acc]
            f_comb, f_scores, f_bps = _sorted_insert(
                pos[is_new],
                (f_comb, uniq[is_new]),
                (f_scores, cand_scores[is_new]),
                (f_bps, trace_idx[new_in_acc]),
            )

            act_seg = acc_seg
            act_states = dest[acc_arcs]
            act_scores = cand_scores[accepted]
            act_bps = trace_idx

        ends = _blocks(None if n == 1 else f_comb // num_states, n, f_comb.size)[1]
        for i, (frontier, st, sc, bp) in enumerate(zip(
            frontiers,
            _split(f_comb, ends),
            _split(f_scores, ends),
            _split(f_bps, ends),
        )):
            frontier.states = st - i * num_states if i else st
            frontier.scores = sc
            frontier.bps = bp


# ----------------------------------------------------------------------
# The reference (scalar oracle) discipline
# ----------------------------------------------------------------------
class ReferenceKernel:
    """Scalar token-passing discipline with exact hardware event order.

    Reproduces, token for token, the functional search of
    :class:`repro.accel.simulator.AcceleratorSimulator`: tokens walk in
    hash-insertion (dict) order, relaxations are first-wins on ties, and
    the epsilon closure is a FIFO worklist that re-visits tokens whose
    score improves.  ``ViterbiDecoder`` is a thin wrapper over
    :meth:`decode`; the accelerator's ``TraceRecorder`` subscribes a
    :class:`KernelObserver` to capture the full event stream.

    Arrays are pre-converted to plain Python lists once per kernel:
    scalar list indexing is ~5x faster than numpy scalar indexing and
    this discipline is all scalar indexing.
    """

    def __init__(
        self, graph: CompiledWfst, config: DecoderConfig = DecoderConfig()
    ) -> None:
        self.graph = graph
        self.config = config
        flat = graph.flat()
        self._first = flat.first_arc.tolist()
        self._n_non_eps = flat.num_non_eps.tolist()
        self._n_eps = flat.num_eps.tolist()
        self._dest = flat.arc_dest.tolist()
        self._weight = flat.arc_weight64.tolist()
        self._ilabel = flat.arc_ilabel.tolist()
        self._olabel = flat.arc_olabel.tolist()
        self._final = flat.final_weights.tolist()

    # ------------------------------------------------------------------
    def decode(
        self,
        scores: AcousticScores,
        observers: Sequence[KernelObserver] = (),
    ) -> DecodeResult:
        """Decode one utterance; returns the best word sequence."""
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        num_frames = scores.num_frames
        observers = tuple(observers)
        pruner = self.config.make_pruner()
        search = SearchStats(frames=num_frames)

        # Backpointer trace (one record per token write).
        trace_prev: List[int] = [-1]
        trace_word: List[int] = [0]
        # Live tokens: state -> (score, backpointer index).
        tokens: Dict[int, Tuple[float, int]] = {self.graph.start: (0.0, 0)}

        self._eps_pass(tokens, list(tokens.keys()), 0, search, observers,
                       trace_prev, trace_word)

        matrix = scores.matrix
        for frame in range(num_frames):
            frame_scores = matrix[frame].tolist()
            if not tokens:
                raise DecodeError(f"beam emptied the search at frame {frame}")
            best = max(score for score, _ in tokens.values())
            threshold = pruner.threshold(best)

            walk_states: List[int] = []
            survivors: List[Tuple[int, float, int, int]] = []
            idx = 0
            beam_pruned = 0
            if observers:
                for state, (score, bp) in tokens.items():
                    walk_states.append(state)
                    if score >= threshold:
                        survivors.append((state, score, bp, idx))
                    else:
                        beam_pruned += 1
                    idx += 1
            else:
                for state, (score, bp) in tokens.items():
                    if score >= threshold:
                        survivors.append((state, score, bp, idx))
                    else:
                        beam_pruned += 1
                    idx += 1
            search.tokens_pruned += beam_pruned
            n_after_beam = len(survivors)
            cap = pruner.cap()
            cap_pruned = 0
            if cap and n_after_beam > cap:
                survivors.sort(key=lambda item: item[1], reverse=True)
                cap_pruned = n_after_beam - cap
                search.tokens_pruned += cap_pruned
                survivors = survivors[:cap]
            pruner.observe(n_after_beam)

            if observers:
                event = PruneEvent(
                    frame=frame,
                    walk_states=walk_states,
                    survivor_states=[s for s, _, _, _ in survivors],
                    survivor_read_idx=[r for _, _, _, r in survivors],
                    threshold=threshold,
                    beam_pruned=beam_pruned,
                    cap_pruned=cap_pruned,
                )
                for observer in observers:
                    observer.on_prune(event)

            next_tokens: Dict[int, Tuple[float, int]] = {}
            search.active_tokens_per_frame.append(len(survivors))

            self._emit_pass(frame, survivors, next_tokens, frame_scores,
                            search, observers, trace_prev, trace_word)
            self._eps_pass(next_tokens, list(next_tokens.keys()), frame + 1,
                           search, observers, trace_prev, trace_word)
            tokens = next_tokens

        return self._finalize(tokens, search, trace_prev, trace_word)

    # ------------------------------------------------------------------
    def _emit_pass(
        self,
        frame: int,
        survivors: List[Tuple[int, float, int, int]],
        next_tokens: Dict[int, Tuple[float, int]],
        frame_scores: List[float],
        search: SearchStats,
        observers: Tuple[KernelObserver, ...],
        trace_prev: List[int],
        trace_word: List[int],
    ) -> None:
        first_l = self._first
        n_non_l = self._n_non_eps
        n_eps_l = self._n_eps
        dest_l = self._dest
        weight_l = self._weight
        ilabel_l = self._ilabel
        olabel_l = self._olabel
        degrees = search.visited_state_degrees
        tokens_get = next_tokens.get

        record = bool(observers)
        emit_states: List[int] = []
        emit_first: List[int] = []
        emit_n: List[int] = []
        emit_read_idx: List[int] = []
        arc_idx_out: List[int] = []
        arc_dest_out: List[int] = []
        improved_out: List[bool] = []

        for state, score, bp, ridx in survivors:
            first = first_l[state]
            n_non_eps = n_non_l[state]
            if record:
                emit_states.append(state)
                emit_first.append(first)
                emit_n.append(n_non_eps)
                emit_read_idx.append(ridx)
            search.states_expanded += 1
            degrees.append(n_non_eps + n_eps_l[state])

            for a in range(first, first + n_non_eps):
                dest = dest_l[a]
                if record:
                    arc_idx_out.append(a)
                    arc_dest_out.append(dest)
                search.arcs_processed += 1
                new_score = score + weight_l[a] + frame_scores[ilabel_l[a]]
                existing = tokens_get(dest)
                if existing is not None and existing[0] >= new_score:
                    if record:
                        improved_out.append(False)
                    continue
                trace_prev.append(bp)
                trace_word.append(olabel_l[a])
                if existing is None:
                    search.tokens_created += 1
                else:
                    search.tokens_updated += 1
                next_tokens[dest] = (new_score, len(trace_prev) - 1)
                if record:
                    improved_out.append(True)

        if record:
            event = ExpandEvent(
                frame=frame,
                frame_scores=frame_scores,
                states=emit_states,
                first=emit_first,
                n_arcs=emit_n,
                read_idx=emit_read_idx,
                arc_idx=arc_idx_out,
                arc_dest=arc_dest_out,
                improved=improved_out,
            )
            for observer in observers:
                observer.on_expand(event)

    def _eps_pass(
        self,
        tokens: Dict[int, Tuple[float, int]],
        seeds: List[int],
        pass_index: int,
        search: SearchStats,
        observers: Tuple[KernelObserver, ...],
        trace_prev: List[int],
        trace_word: List[int],
    ) -> None:
        first_l = self._first
        n_non_l = self._n_non_eps
        n_eps_l = self._n_eps
        dest_l = self._dest
        weight_l = self._weight
        olabel_l = self._olabel
        tokens_get = tokens.get

        record = bool(observers)
        eps_states: List[int] = []
        eps_first_out: List[int] = []
        eps_n: List[int] = []
        eps_src: List[int] = []
        arc_idx_out: List[int] = []
        arc_dest_out: List[int] = []
        improved_out: List[bool] = []

        worklist: Deque[Tuple[int, int]] = deque((s, -1) for s in seeds)
        arc_event = 0
        while worklist:
            state, src = worklist.popleft()
            score, bp = tokens[state]
            n_eps = n_eps_l[state]
            if n_eps == 0:
                continue
            eps_first = first_l[state] + n_non_l[state]
            if record:
                eps_states.append(state)
                eps_first_out.append(eps_first)
                eps_n.append(n_eps)
                eps_src.append(src)
            for a in range(eps_first, eps_first + n_eps):
                dest = dest_l[a]
                if record:
                    arc_idx_out.append(a)
                    arc_dest_out.append(dest)
                search.epsilon_arcs_processed += 1
                new_score = score + weight_l[a]
                existing = tokens_get(dest)
                if existing is not None and existing[0] >= new_score:
                    if record:
                        improved_out.append(False)
                    arc_event += 1
                    continue
                trace_prev.append(bp)
                trace_word.append(olabel_l[a])
                if existing is None:
                    search.tokens_created += 1
                else:
                    search.tokens_updated += 1
                tokens[dest] = (new_score, len(trace_prev) - 1)
                if record:
                    improved_out.append(True)
                worklist.append((dest, arc_event))
                arc_event += 1

        if record:
            event = ClosureEvent(
                pass_index=pass_index,
                round_index=0,
                states=eps_states,
                first=eps_first_out,
                n_arcs=eps_n,
                src=eps_src,
                arc_idx=arc_idx_out,
                arc_dest=arc_dest_out,
                improved=improved_out,
            )
            for observer in observers:
                observer.on_closure(event)

    def _finalize(
        self,
        tokens: Dict[int, Tuple[float, int]],
        search: SearchStats,
        trace_prev: List[int],
        trace_word: List[int],
    ) -> DecodeResult:
        """Best (preferably final) token; shared fallback policy."""
        if not tokens:
            raise DecodeError("no active tokens at the end of the utterance")
        final_l = self._final
        best: Optional[Tuple[float, int]] = None
        for state, (score, bp) in tokens.items():
            final_weight = final_l[state]
            if final_weight <= LOG_ZERO / 2:
                continue
            total = score + final_weight
            if best is None or total > best[0]:
                best = (total, bp)
        reached_final = best is not None
        if best is None:
            # No final token survived: fall back to the best live token.
            state = max(tokens, key=lambda s: tokens[s][0])
            best = tokens[state]

        score, bp = best
        words: List[int] = []
        index = bp
        while index >= 0:
            if trace_word[index] != 0:
                words.append(trace_word[index])
            index = trace_prev[index]
        words.reverse()
        return DecodeResult(
            words=tuple(words),
            log_likelihood=score,
            reached_final=reached_final,
            stats=search,
        )
