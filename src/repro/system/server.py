"""Continuous-batching streaming decode server (beyond-paper serving
tier: the executable counterpart of the Section VI server-workload
discussion, built on the software decoders).

:mod:`repro.system.stream` *models* the latency of serving many live
streams analytically; this module *executes* that serving shape.  A
:class:`StreamingServer` multiplexes any number of live
:class:`repro.decoder.session.DecodeSession` objects through one
vectorized engine:

* sessions **join and leave mid-flight** -- :meth:`open_session` admits a
  new stream at any time, a session retires the moment its input is
  closed and its buffered frames are drained;
* audio arrives as **ragged chunks** -- each :meth:`push` buffers any
  number of score frames per session, and every :meth:`step` advances up
  to ``max_batch`` ready sessions by exactly one frame in a single fused
  lockstep sweep (:func:`repro.decoder.session.advance_sessions`);
* **per-session latency and throughput** are recorded: queue wait per
  frame, attributed decode time, frames/s, plus server-level sweep
  occupancy and aggregate throughput.

Because the fused sweep is bit-identical to per-session decoding, a
server serving N streams produces exactly the words and path scores of N
one-shot ``BatchDecoder.decode`` calls -- the correctness anchor tested
in ``tests/test_streaming_server.py``.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import AdmissionError, ConfigError, DecodeError
from repro.acoustic.batch_scorer import BatchScorer
from repro.acoustic.scorer import DnnScorer
from repro.decoder.batch import BatchDecoder
from repro.decoder.result import DecodeResult
from repro.decoder.session import Chunk, advance_sessions, chunk_matrix
from repro.decoder.viterbi import BeamSearchConfig
from repro.wfst.layout import CompiledWfst


@dataclass(frozen=True)
class ServerConfig:
    """Scheduler knobs.

    Attributes:
        max_batch: most sessions advanced per lockstep sweep; ready
            sessions beyond the cap wait for the next sweep, and served
            sessions rotate to the back of the queue (round-robin, so
            nobody starves).
        max_sessions: admission limit on concurrently live sessions;
            :meth:`StreamingServer.open_session` load-sheds with a typed
            :class:`~repro.common.errors.AdmissionError` once this many
            sessions are live (0 = unlimited).  The sharded tier uses it
            to bound each worker's sweep queue.
    """

    max_batch: int = 64
    max_sessions: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.max_sessions < 0:
            raise ConfigError("max_sessions must be >= 0")


@dataclass
class SessionStats:
    """Latency/throughput record of one session's life on the server."""

    session_id: int
    opened_s: float
    frames_pushed: int = 0
    frames_decoded: int = 0
    sweeps: int = 0
    wait_seconds_total: float = 0.0
    max_wait_s: float = 0.0
    decode_seconds: float = 0.0
    finalized_s: Optional[float] = None
    #: High-water mark of the session's traceback buffer, in bytes
    #: (bounded by the commit window under ``commit_interval > 0``).
    trace_peak_bytes: int = 0
    #: Frames whose words were committed (stable-prefix output).
    committed_frames: int = 0

    @property
    def mean_wait_s(self) -> float:
        """Mean time a frame sat buffered before its sweep decoded it."""
        if not self.frames_decoded:
            return 0.0
        return self.wait_seconds_total / self.frames_decoded

    @property
    def frames_per_second(self) -> float:
        """Decode throughput over this session's attributed sweep time."""
        if self.decode_seconds <= 0.0:
            return 0.0
        return self.frames_decoded / self.decode_seconds


@dataclass
class ServerStats:
    """Aggregate scheduler counters across every sweep.

    Kept as running totals (not per-sweep lists) so a server can run
    indefinitely with O(1) stats memory.
    """

    sweeps: int = 0
    frames_decoded: int = 0
    busy_seconds: float = 0.0
    sessions_opened: int = 0
    sessions_finalized: int = 0
    max_occupancy: int = 0
    #: Feature frames scored server-side (``mode="features"`` sessions),
    #: the time spent inside the stacked forward, and how many batched
    #: scoring calls covered them (scored_frames / score_batches = mean
    #: cross-session batch height).
    scored_frames: int = 0
    score_seconds: float = 0.0
    score_batches: int = 0

    @property
    def busy_frames_per_second(self) -> float:
        """Frames decoded per second of engine busy time, all sessions
        (not wall time: compare ``TierStats.aggregate_frames_per_second``)."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.frames_decoded / self.busy_seconds

    @property
    def scored_frames_per_second(self) -> float:
        """Feature frames scored per second spent in the stacked DNN."""
        if self.score_seconds <= 0.0:
            return 0.0
        return self.scored_frames / self.score_seconds

    @property
    def mean_occupancy(self) -> float:
        """Mean sessions advanced per sweep (the batching win); every
        ready session decodes exactly one frame per sweep."""
        if not self.sweeps:
            return 0.0
        return self.frames_decoded / self.sweeps


@dataclass
class SessionRecord:
    """Terminal state of a retired session."""

    session_id: int
    result: Optional[DecodeResult]
    error: Optional[str]
    stats: SessionStats

    @property
    def ok(self) -> bool:
        return self.result is not None


class _Live:
    """A session plus its buffered, timestamped score frames (and, for
    ``mode="features"`` sessions, the not-yet-scored feature chunks)."""

    __slots__ = ("session", "buffer", "features", "mode", "input_closed",
                 "stats")

    def __init__(self, session, stats: SessionStats,
                 mode: str = "scores") -> None:
        self.session = session
        self.buffer: Deque[Tuple[np.ndarray, float]] = deque()
        #: Pending feature chunks awaiting the next batched scoring pass.
        self.features: Deque[Tuple[np.ndarray, float]] = deque()
        self.mode = mode
        self.input_closed = False
        self.stats = stats


class StreamingServer:
    """Serve many live decode sessions through one vectorized engine."""

    def __init__(
        self,
        graph: CompiledWfst,
        search_config: BeamSearchConfig = BeamSearchConfig(),
        server_config: ServerConfig = ServerConfig(),
        clock: Callable[[], float] = time.perf_counter,
        scorer: Optional[DnnScorer] = None,
    ) -> None:
        self.decoder = BatchDecoder(graph, search_config)
        self.server_config = server_config
        self.stats = ServerStats()
        self._clock = clock
        self._live: "OrderedDict[int, _Live]" = OrderedDict()
        self._records: Dict[int, SessionRecord] = {}
        self._ids = itertools.count()
        # All sessions must push rows of one width so any subset can be
        # stacked into a fused sweep; pinned by the first push.
        self._frame_width: Optional[int] = None
        # Server-side acoustic scoring: feature-mode sessions push MFCC
        # chunks, and every step scores the pending chunks of *all* such
        # sessions in one stacked DNN forward (batch-stable, so the
        # scores match client-side per-session scoring bit for bit).
        self._batch_scorer = BatchScorer(scorer) if scorer is not None else None
        if self._batch_scorer is not None and (
            self._batch_scorer.width < self.decoder.min_score_width
        ):
            raise ConfigError(
                f"scorer produces {self._batch_scorer.width}-wide score "
                f"rows but the graph's phone ids need at least "
                f"{self.decoder.min_score_width}"
            )

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel array backend the fused sweeps run on
        ("numpy"/"numba"; selected by ``search_config.backend``)."""
        return self.decoder.backend_name

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, mode: str = "scores") -> int:
        """Admit a new live stream; returns its session id.

        Args:
            mode: ``"scores"`` (the client pushes pre-scored likelihood
                rows via :meth:`push`) or ``"features"`` (the client
                pushes MFCC features via :meth:`push_features` and the
                server scores them, batched across sessions).

        Raises:
            AdmissionError: when ``max_sessions`` live sessions already
                exist -- the join is load-shed without touching them.
            ConfigError: ``mode="features"`` on a server built without a
                ``scorer``, or an unknown mode.
        """
        if mode not in ("scores", "features"):
            raise ConfigError(f"unknown session mode {mode!r}")
        if mode == "features" and self._batch_scorer is None:
            raise ConfigError(
                "mode='features' needs a server constructed with scorer="
            )
        limit = self.server_config.max_sessions
        if limit and len(self._live) >= limit:
            raise AdmissionError(
                f"server at its admission limit ({limit} live sessions); "
                f"retry after a session retires"
            )
        sid = next(self._ids)
        self._live[sid] = _Live(
            self.decoder.open_session(), SessionStats(sid, self._clock()),
            mode=mode,
        )
        self.stats.sessions_opened += 1
        return sid

    def push(self, session_id: int, chunk: Chunk) -> int:
        """Buffer a chunk of acoustic score frames for a live session.

        Chunks are validated here -- wide enough for every phone id on
        the graph, and one width across all sessions -- so a malformed
        chunk is rejected at the door instead of aborting a later fused
        sweep that other sessions' frames already entered.
        """
        live = self._require_live(session_id)
        if live.input_closed:
            raise DecodeError(f"input of session {session_id} is closed")
        if live.mode != "scores":
            raise DecodeError(
                f"session {session_id} is a features-mode session; "
                f"push MFCC chunks via push_features"
            )
        matrix = chunk_matrix(chunk)
        if len(matrix):
            width = matrix.shape[1]
            if width < self.decoder.min_score_width:
                raise DecodeError(
                    f"score rows must have at least "
                    f"{self.decoder.min_score_width} entries (one per phone "
                    f"id on the graph), got {width}"
                )
            if self._frame_width is None:
                self._frame_width = width
            elif width != self._frame_width:
                raise DecodeError(
                    f"score rows must be {self._frame_width} wide like "
                    f"every other session's (got {width}); one server "
                    f"serves one acoustic model"
                )
        now = self._clock()
        for row in matrix:
            live.buffer.append((row, now))
        live.stats.frames_pushed += len(matrix)
        return len(matrix)

    def push_features(self, session_id: int, features: np.ndarray) -> int:
        """Buffer a chunk of MFCC feature rows for a features-mode session.

        The chunk is scored server-side on the next :meth:`step`, stacked
        with every other feature session's pending chunks into one DNN
        forward -- bit-identical to the client scoring it alone.
        """
        live = self._require_live(session_id)
        if live.input_closed:
            raise DecodeError(f"input of session {session_id} is closed")
        if live.mode != "features":
            raise DecodeError(
                f"session {session_id} is a scores-mode session; "
                f"push likelihood rows via push"
            )
        scorer = self._batch_scorer
        assert scorer is not None  # guaranteed by open_session
        matrix = np.asarray(features, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != scorer.input_dim:
            raise DecodeError(
                f"feature chunks must be (frames, {scorer.input_dim}), "
                f"got shape {matrix.shape}"
            )
        if self._frame_width is None:
            self._frame_width = scorer.width
        elif scorer.width != self._frame_width:
            raise DecodeError(
                f"scored rows would be {scorer.width} wide but the fleet "
                f"pushes {self._frame_width}-wide rows; one server serves "
                f"one acoustic model"
            )
        if len(matrix):
            live.features.append((matrix, self._clock()))
        live.stats.frames_pushed += len(matrix)
        return len(matrix)

    def close_input(self, session_id: int) -> None:
        """Mark end of stream; the session retires once its buffer drains."""
        self._require_live(session_id).input_closed = True

    def partial(self, session_id: int) -> Optional[DecodeResult]:
        """Current best hypothesis of a live session (decoded frames only).

        Returns ``None`` once the session's beam has emptied -- it is
        dead but not yet retired; its error is recorded at retirement --
        so a fleet-wide partial poller never trips on a dying session.
        """
        live = self._require_live(session_id)
        if not live.session.alive:
            return None
        return live.session.partial()

    def result(self, session_id: int) -> SessionRecord:
        """Terminal record of a retired session."""
        record = self._records.get(session_id)
        if record is None:
            state = "still live" if session_id in self._live else "unknown"
            raise DecodeError(f"session {session_id} has no result ({state})")
        return record

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One lockstep sweep: up to ``max_batch`` ready sessions advance
        one buffered frame each; returns how many advanced.

        Served sessions rotate to the back of the queue, so when more
        than ``max_batch`` sessions are ready the cap round-robins over
        them instead of starving the newest arrivals."""
        self._score_pending()
        ready: List[_Live] = []
        for live in list(self._live.values()):
            if not live.buffer:
                continue
            if not live.session.alive:
                # The beam emptied this session's search on an earlier
                # frame; retire it with the engine's error instead of
                # poisoning the whole sweep.
                self._retire(
                    live,
                    error="beam emptied the search at frame "
                    f"{live.session.frames_pushed}",
                )
                continue
            ready.append(live)
            if len(ready) == self.server_config.max_batch:
                break

        if ready:
            pairs = []
            enqueued_at = []
            for live in ready:
                row, t_enq = live.buffer.popleft()
                pairs.append((live.session, row))
                enqueued_at.append(t_enq)
                self._live.move_to_end(live.stats.session_id)
            t0 = self._clock()
            advance_sessions(pairs)
            elapsed = self._clock() - t0
            share = elapsed / len(ready)
            for live, t_enq in zip(ready, enqueued_at):
                stats = live.stats
                stats.frames_decoded += 1
                stats.sweeps += 1
                stats.decode_seconds += share
                # Queue wait runs to the sweep's start; the sweep itself
                # is accounted in decode_seconds.
                wait = max(0.0, t0 - t_enq)
                stats.wait_seconds_total += wait
                stats.max_wait_s = max(stats.max_wait_s, wait)
            self.stats.sweeps += 1
            self.stats.frames_decoded += len(ready)
            self.stats.busy_seconds += elapsed
            self.stats.max_occupancy = max(
                self.stats.max_occupancy, len(ready)
            )

        self._retire_finished()
        return len(ready)

    def drain(self) -> None:
        """Sweep until no session has buffered frames, retiring finished
        sessions along the way."""
        while self.step():
            pass

    def _score_pending(self) -> None:
        """Batched scoring pass: pack the pending feature chunks of all
        feature-mode sessions, run one stacked DNN forward, scatter the
        score rows into the sessions' frame buffers (the in-process
        score plane).  Original push timestamps are kept so queue-wait
        accounting spans scoring time too."""
        if self._batch_scorer is None:
            return
        owners: List[Tuple[_Live, float]] = []
        chunks: List[np.ndarray] = []
        for live in self._live.values():
            while live.features:
                matrix, t_enq = live.features.popleft()
                owners.append((live, t_enq))
                chunks.append(matrix)
        if not chunks:
            return
        t0 = self._clock()
        planes = self._batch_scorer.score_chunks(chunks)
        elapsed = self._clock() - t0
        total = 0
        for (live, t_enq), plane in zip(owners, planes):
            total += len(plane)
            for row in plane:
                live.buffer.append((row, t_enq))
        self.stats.scored_frames += total
        self.stats.score_seconds += elapsed
        self.stats.score_batches += 1

    # ------------------------------------------------------------------
    # Convenience driver
    # ------------------------------------------------------------------
    def serve_staggered(
        self,
        scores_batch: Sequence[Chunk],
        chunk_frames: int = 10,
        stagger: int = 0,
        on_join: Optional[Callable[[int, int, int], None]] = None,
        on_round: Optional[Callable[[int], None]] = None,
        mode: str = "scores",
    ) -> List[SessionRecord]:
        """Serve whole utterances as concurrent chunked live sessions.

        Each utterance becomes a session pushing ``chunk_frames``-sized
        chunks, all live sessions advancing in lockstep sweeps between
        chunk rounds -- the continuous-batching traffic shape.  With
        ``stagger > 0`` one session joins every ``stagger`` rounds
        (sessions join and leave mid-flight); ``stagger=0`` admits
        everyone up front.  ``on_join(round_no, index, session_id)`` and
        ``on_round(round_no)`` let callers narrate progress.  With
        ``mode="features"`` the inputs are MFCC feature matrices instead
        of score chunks and the server scores them in batched passes.
        Returns each session's terminal :class:`SessionRecord` in input
        order -- a session that died mid-stream has its remaining audio
        dropped and its engine error recorded.
        """
        if chunk_frames < 1:
            raise ConfigError("chunk_frames must be >= 1")
        if stagger < 0:
            raise ConfigError("stagger must be >= 0")
        push = self.push_features if mode == "features" else self.push
        matrices = [chunk_matrix(scores) for scores in scores_batch]
        sids: List[Optional[int]] = [None] * len(matrices)
        offsets = [0] * len(matrices)

        def admit(i: int, round_no: int) -> None:
            sids[i] = self.open_session(mode=mode)
            if len(matrices[i]) == 0:
                self.close_input(sids[i])
            if on_join is not None:
                on_join(round_no, i, sids[i])

        round_no = 0
        while True:
            if stagger == 0:
                while None in sids:
                    admit(sids.index(None), round_no)
            elif round_no % stagger == 0 and None in sids:
                admit(sids.index(None), round_no)
            pushed = 0
            for i, (sid, matrix) in enumerate(zip(sids, matrices)):
                if sid is None or offsets[i] >= len(matrix):
                    continue
                if not self.is_live(sid):
                    # The session died mid-stream (beam emptied); drop its
                    # remaining audio and keep the recorded error.
                    offsets[i] = len(matrix)
                    continue
                chunk = matrix[offsets[i]: offsets[i] + chunk_frames]
                push(sid, chunk)
                offsets[i] += len(chunk)
                pushed += 1
                if offsets[i] >= len(matrix):
                    self.close_input(sid)
            self.drain()
            if on_round is not None:
                on_round(round_no)
            round_no += 1
            if pushed == 0 and None not in sids:
                break
        self.drain()
        return [self.result(sid) for sid in sids]

    def decode_streaming(
        self,
        scores_batch: Sequence[Chunk],
        chunk_frames: int = 10,
    ) -> List[DecodeResult]:
        """Chunk-serve whole utterances; results in input order.

        Convenience wrapper over :meth:`serve_staggered` (all sessions
        admitted up front) that unwraps the records: output matches
        ``BatchDecoder.decode_batch`` exactly, and any session failure
        raises its ``DecodeError``.
        """
        records = self.serve_staggered(scores_batch, chunk_frames=chunk_frames)
        results = []
        for record in records:
            if record.error is not None:
                raise DecodeError(
                    f"session {record.session_id}: {record.error}"
                )
            results.append(record.result)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_live(self, session_id: int) -> bool:
        """True while the session accepts pushes (not yet retired)."""
        return session_id in self._live

    @property
    def live_session_ids(self) -> List[int]:
        return list(self._live.keys())

    @property
    def finished_session_ids(self) -> List[int]:
        return list(self._records.keys())

    @property
    def pending_frames(self) -> int:
        """Buffered frames not yet decoded, across all live sessions
        (scored rows plus feature frames awaiting the batched scorer)."""
        return sum(
            len(live.buffer) + sum(len(m) for m, _ in live.features)
            for live in self._live.values()
        )

    def frames_decoded(self, session_id: int) -> int:
        """Frames decoded so far for a live *or* retired session (the
        tier's workers use this to ack shared-memory chunks only once
        their rows have actually been consumed)."""
        live = self._live.get(session_id)
        if live is not None:
            return live.stats.frames_decoded
        record = self._records.get(session_id)
        if record is None:
            raise DecodeError(f"unknown session {session_id}")
        return record.stats.frames_decoded

    # ------------------------------------------------------------------
    def _require_live(self, session_id: int) -> _Live:
        live = self._live.get(session_id)
        if live is None:
            record = self._records.get(session_id)
            if record is None:
                raise DecodeError(f"unknown session {session_id}")
            why = record.error if record.error else "finished cleanly"
            raise DecodeError(f"session {session_id} already retired: {why}")
        return live

    def _retire(self, live: _Live, result: Optional[DecodeResult] = None,
                error: Optional[str] = None) -> None:
        stats = live.stats
        stats.finalized_s = self._clock()
        stats.trace_peak_bytes = live.session.trace_peak_bytes
        stats.committed_frames = live.session.committed_frames
        self._records[stats.session_id] = SessionRecord(
            stats.session_id, result=result, error=error, stats=stats
        )
        del self._live[stats.session_id]
        self.stats.sessions_finalized += 1

    def _retire_finished(self) -> None:
        finished = [
            live
            for live in self._live.values()
            if live.input_closed and not live.buffer and not live.features
        ]
        for live in finished:
            try:
                self._retire(live, result=live.session.finalize())
            except DecodeError as exc:
                self._retire(live, error=str(exc))
