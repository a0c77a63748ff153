"""Resumable decode sessions and the fused multi-session frame sweep.

:class:`repro.decoder.batch.BatchDecoder` decodes complete utterances; a
live voice pipeline does not have complete utterances -- acoustic scores
arrive a batch at a time behind the GPU (paper Section III-A).  This
module makes the kernel's per-utterance search state (the
:class:`~repro.decoder.kernel.Frontier` plus its token trace) a
first-class :class:`DecodeSession` that can be fed incrementally:

* :meth:`DecodeSession.push` accepts any prefix of the utterance's score
  matrix, in chunks of any size;
* :meth:`DecodeSession.partial` returns the current best hypothesis
  without disturbing the search, so a UI can show words as they are
  spoken;
* :meth:`DecodeSession.finalize` ends the session and returns the same
  :class:`DecodeResult` a one-shot ``decode`` of the full matrix would --
  word for word and bit for bit on the path score, regardless of how the
  frames were chunked (asserted in ``tests/test_decode_session.py``).

:func:`advance_sessions` is how every session moves: it advances one
or many sessions one frame each through the kernel's single entry point,
:meth:`repro.decoder.kernel.SearchKernel.advance` -- all frontiers
concatenated session-major, every stage of the recurrence (pruning via
each session's own strategy state, the bulk arc gather, score
accumulation, the segment-max merge and the epsilon closure) run once
over the combined arrays, keyed by ``session * num_states + state`` so
sessions never mix.  Per-session work drops from ~25 numpy dispatches
per frame to a handful of cheap splits, which is what lets a
continuous-batching server beat sequential single-session serving.
:meth:`DecodeSession.push_frame` is a fleet of one.  Each session's
result -- words, path score, every :class:`SearchStats` counter and its
observers' event stream -- is bit-identical whatever fleet it advanced
in.

The fused sweep's gather/expand/merge array work runs on the decoder's
configured kernel backend (``DecoderConfig.backend``; see
:mod:`repro.decoder.backends`).  The compiled numba backend parallelizes
the fused expansion across the concatenated rows of *all* sessions in
the sweep, so continuous batching is where it pays most -- with
bit-identical per-session results, as the backend contract requires.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple, Union

import numpy as np

from repro.common.errors import DecodeError
from repro.acoustic.scorer import AcousticScores
from repro.decoder.batch import BatchDecoder
from repro.decoder.kernel import Frontier, KernelObserver
from repro.decoder.result import DecodeResult

Chunk = Union[AcousticScores, np.ndarray]


def chunk_matrix(chunk: Chunk) -> np.ndarray:
    """Normalise a scores chunk to a 2-D ``frames x phone-scores`` matrix.

    The shared front-door validation of every serving layer
    (:class:`~repro.system.server.StreamingServer` and the sharded tier's
    :class:`~repro.system.tier.ServingTier`): malformed chunks are
    rejected before they are buffered, queued, or shipped to a worker.
    """
    matrix = chunk.matrix if isinstance(chunk, AcousticScores) else np.asarray(chunk)
    if matrix.ndim != 2:
        raise DecodeError("scores chunk must be 2-D (frames x phone scores)")
    return matrix


class DecodeSession:
    """One utterance's resumable search state on a shared engine.

    Create with :meth:`BatchDecoder.open_session`.  Frames may arrive in
    chunks of any size; the session holds the frontier and token trace
    between pushes, exactly as the accelerator holds them in main memory
    between Acoustic Likelihood Buffer refills.
    """

    def __init__(
        self, decoder: BatchDecoder, observers: Sequence[KernelObserver] = ()
    ) -> None:
        self._decoder = decoder
        self._kernel = decoder.kernel
        self._frontier: Frontier = self._kernel.init_frontier(observers)
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def decoder(self) -> BatchDecoder:
        return self._decoder

    @property
    def frames_pushed(self) -> int:
        return self._frontier.num_frames

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def alive(self) -> bool:
        """False once the beam emptied the search; the next push raises."""
        return self._frontier.states.size > 0

    @property
    def trace_memory_bytes(self) -> int:
        """Current traceback-buffer capacity, in bytes."""
        return self._frontier.trace.nbytes

    @property
    def trace_peak_bytes(self) -> int:
        """High-water mark of the traceback buffer, in bytes.

        With ``commit_interval=0`` this grows with the utterance; with
        commits enabled it plateaus at O(active tokens x window).
        """
        return self._frontier.trace.peak_bytes

    @property
    def committed_frames(self) -> int:
        """Frames covered by the committed (never-retracted) prefix."""
        return self._frontier.trace.committed_frames

    # ------------------------------------------------------------------
    def push_frame(self, frame_scores: np.ndarray) -> None:
        """Advance the search by one frame of acoustic scores."""
        advance_sessions([(self, frame_scores)])

    def push(self, chunk: Chunk) -> int:
        """Advance by a chunk of frames; returns the number consumed."""
        matrix = chunk_matrix(chunk)
        for row in matrix:
            self.push_frame(row)
        return len(matrix)

    def partial(self) -> DecodeResult:
        """Best hypothesis over the frames seen so far.

        Non-destructive: the session keeps accepting frames afterwards.
        The returned stats are a snapshot, detached from the live
        session.  Incremental under ``commit_interval > 0``: the
        committed prefix is reused as-is and only the tail beyond the
        last commit is backtracked, and the stats snapshot pins views
        over the append-only per-frame lists instead of copying them --
        partial cost stays O(window), not O(frames so far).
        """
        self._require_open()
        result = self._kernel.finalize(self._frontier)
        return replace(result, stats=result.stats.snapshot())

    def finalize(self) -> DecodeResult:
        """End the session and return the final hypothesis.

        Equivalent to ``BatchDecoder.decode`` on the concatenation of all
        pushed chunks.  The session rejects further pushes afterwards.
        """
        self._require_open()
        if self._frontier.num_frames == 0:
            raise DecodeError("no frames to decode")
        self._finalized = True
        return self._kernel.finalize(self._frontier)

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._finalized:
            raise DecodeError("session is already finalized")


# ----------------------------------------------------------------------
# Fused multi-session sweep
# ----------------------------------------------------------------------
def advance_sessions(
    pairs: Sequence[Tuple[DecodeSession, np.ndarray]],
) -> None:
    """Advance sessions one frame each in a single fused sweep.

    ``pairs`` holds ``(session, frame_scores)`` for each session to
    advance; sessions must be distinct, open, and share one decoder (one
    compiled graph and search config), and every row must be 1-D and at
    least ``min_score_width`` wide.  The result is bit-identical per
    session to advancing each session alone.
    """
    if not pairs:
        return
    sessions = [session for session, _ in pairs]
    decoder = sessions[0]._decoder
    if len(set(map(id, sessions))) != len(sessions):
        raise DecodeError("fused sweep requires distinct sessions")
    for session in sessions:
        if session._decoder is not decoder:
            raise DecodeError("fused sweep requires sessions of one decoder")
        session._require_open()
    rows = [np.asarray(row) for _, row in pairs]
    width = decoder.min_score_width
    for row in rows:
        if row.ndim != 1 or row.shape[0] < width:
            raise DecodeError(
                "frame scores must be 1-D rows with at least "
                f"{width} entries (one per phone id on the graph), "
                f"got shape {row.shape}"
            )
    # Ragged rows stack at the narrowest width: no arc reads a phone
    # score past ``min_score_width``, so the trim cannot change a result.
    narrowest = min(row.shape[0] for row in rows)
    frame_stack = np.stack([row[:narrowest] for row in rows])
    decoder.kernel.advance([s._frontier for s in sessions], frame_stack)
