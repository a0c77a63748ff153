"""Workloads on the multi-user serving path: ``tier-scores`` and
``tier-open-loop``.

A :class:`~repro.system.tier.ServingTier` with two workers serves
scores-mode sessions over the 8k-state synthetic graph (``max_active``
300, commits off), so the door, the score-plane transport, the worker
scheduler and the fused kernel carry the load, with no acoustic or
commit work.  Each session is 100 frames sent as ten 10-frame chunks.

Load comes from this process: a generator thread and the main thread as
result collector.  The collector waits in ``result()`` while pushes
continue, as a gateway does, so contention on the door's lock shows in
the numbers.

* ``tier-scores``, closed loop: 32 live sessions, each pushed as fast as
  the tier accepts it and replaced when its record returns.  Decoded
  frames per second is the tier's capacity; a session's latency runs
  from its input closing until ``result()`` returns its record.
  Memory is read after a fixed number of sessions.
* ``tier-open-loop``: Poisson session arrivals at a fixed 15 sessions/s,
  about 40% of capacity, one chunk per 100 ms of real time.  Each chunk
  falls due on the schedule whatever the tier does, and a session's
  final latency runs from its last chunk's due time until ``result()``
  returns its record.  A refused, failed or timed-out session counts as
  a miss at :data:`RESULT_TIMEOUT_S`.

The open loop is not in ``BENCHMARK.json``: the door stalls there for
seconds, sometimes past the 30 s timeout.  When a session's close
reaches its worker after all its frames are decoded, the worker retires
it only on its next sweep, which needs another push, while ``result()``
holds the door's lock through each 50 ms poll and starves the pushes.
Its final latency swings from about 15 ms to tens of seconds between
runs, which no bound can hold; run it with ``--workload tier-open-loop``.
"""

from __future__ import annotations

import os
import queue
import shutil
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import proc
from perfbench.harness import Outcome, repeated_setup, span_median_s
from perfbench.stats import Pacer, percentile, tail
from perfbench.trace import Tracer
from repro.common.errors import ReproError
from repro.datasets import SyntheticGraphConfig
from repro.decoder import BatchDecoder
from repro.decoder.kernel import DecoderConfig
from repro.decoder.session import chunk_matrix
from repro.graph import GraphCache, GraphRecipe, compile_graph
from repro.system import ServingTier, TierConfig, make_memory_workload
from repro.wfst.io import save_graph_mmap

NUM_STATES = 8_000
NUM_PHONES = 50
#: One fixed graph and utterance set: decode cost moves with their seed
#: far more than the bound allows, so the benchmark seed draws the
#: traffic -- which utterance each session replays, and when it arrives.
CORPUS_SEED = 7
BEAM = 8.0
MAX_ACTIVE = 300
#: Distinct utterances; each session replays a seeded pick of them.
UTTERANCES = 32
FRAMES = 100
CHUNK_FRAMES = 10
CHUNK_PERIOD_S = 0.1
WORKERS = 2
#: Open-loop arrival rate, about 40% of the tier's measured capacity.
RATE_PER_S = 15.0
#: Open-loop sessions per run: a p95 with ten beyond it.
OPEN_LOOP_SESSIONS = 220
TAIL_PERCENTILE = 95.0
#: Closed-loop live sessions.
LIVE_SESSIONS = 32
#: The closed loop runs on past ``--seconds`` until this many sessions
#: have returned.  Its resident memory is read when they have: the door
#: and workers keep every record, so memory read at the end of the
#: window would grow with throughput.
CLOSED_LOOP_SESSIONS = 600
RESULT_TIMEOUT_S = 30.0
#: Spawning is quick but noisy, so the median takes more set-ups.
SETUP_REPEATS = 5


class _Tier:
    """A spawned, warmed tier plus everything needed to check it."""

    def __init__(self, tier, workload, graph_dir: str) -> None:
        self.tier = tier
        self.workload = workload
        self.scores = [chunk_matrix(s) for s in workload.scores]
        self.graph_dir = graph_dir


def _build(workdir: str, tracer: Tracer) -> _Tier:
    with tracer.span("setup.compile"):
        # A fresh in-memory cache: set-up always pays the compile.
        artifact = compile_graph(
            GraphRecipe.synthetic_graph(SyntheticGraphConfig(
                num_states=NUM_STATES, num_phones=NUM_PHONES, seed=CORPUS_SEED
            )),
            cache=GraphCache(),
        )
    workload = make_memory_workload(
        num_utterances=UTTERANCES,
        frames_per_utterance=FRAMES,
        beam=BEAM,
        max_active=MAX_ACTIVE,
        seed=CORPUS_SEED,
        graph=artifact.graph,
    )
    with tracer.span("setup.spawn"):
        graph_dir = os.path.join(workdir, f"graph-{time.monotonic_ns()}")
        save_graph_mmap(artifact.graph, graph_dir)
        tier = ServingTier(
            graph_dir=graph_dir,
            search_config=DecoderConfig(
                beam=BEAM, max_active=MAX_ACTIVE, commit_interval=0
            ),
            tier_config=TierConfig(num_workers=WORKERS, max_sessions=256),
        )
        # Warm every worker: page in the mapped graph, build the flat
        # layout, create the score planes.
        warm = [tier.open_session() for _ in range(2 * WORKERS)]
        for i, sid in enumerate(warm):
            tier.push(sid, workload.scores[i % len(workload.scores)])
            tier.close_input(sid)
        for sid in warm:
            tier.result(sid, timeout=RESULT_TIMEOUT_S)
    return _Tier(tier, workload, graph_dir)


def _teardown(built: _Tier) -> None:
    built.tier.shutdown()
    shutil.rmtree(built.graph_dir, ignore_errors=True)


class _Run:
    """Shared state of one measurement: the tier, its inputs, and what
    the generator and collector observed."""

    def __init__(self, built: _Tier, tracer: Tracer, rng) -> None:
        self.tier = built.tier
        self.scores = built.scores
        self.tracer = tracer
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.push_ms: List[float] = []
        self.open_ms: List[float] = []
        self.late_s: List[float] = []
        #: (session id, utterance index, record) of every finished session.
        self.records: List[Tuple[int, int, object]] = []
        self.frames_done = 0
        self.lock = threading.Lock()

    def count(self, ok: bool) -> bool:
        with self.lock:
            self.attempted += 1
            self.failed += not ok
        return ok

    def timed_open(self) -> Optional[int]:
        """Open a session; ``None`` when the tier refuses it."""
        t0 = time.perf_counter()
        try:
            with self.tracer.span("tier.open"):
                sid = self.tier.open_session()
        except ReproError:
            self.count(False)
            return None
        self.open_ms.append((time.perf_counter() - t0) * 1e3)
        self.count(True)
        return sid

    def timed_push(self, sid: int, chunk: np.ndarray) -> bool:
        t0 = time.perf_counter()
        try:
            with self.tracer.span("tier.push", sid):
                self.tier.push(sid, chunk)
        except ReproError:
            return self.count(False)
        self.push_ms.append((time.perf_counter() - t0) * 1e3)
        return self.count(True)

    def close(self, sid: int) -> None:
        with self.tracer.span("tier.close", sid):
            self.tier.close_input(sid)

    def collect(self, sid: int, utt: int) -> bool:
        """Wait for a session's record; False on a timeout or error."""
        try:
            with self.tracer.span("tier.result", sid):
                record = self.tier.result(sid, timeout=RESULT_TIMEOUT_S)
        except ReproError:
            return self.count(False)
        if not record.ok:
            return self.count(False)
        with self.lock:
            self.records.append((sid, utt, record))
            self.frames_done += record.stats.frames_decoded
        return self.count(True)


def _open_loop(run: _Run, seconds: float) -> List[float]:
    """Poisson arrivals on a fixed schedule; returns per-session final
    latencies in seconds."""
    sessions = max(OPEN_LOOP_SESSIONS, int(RATE_PER_S * seconds))
    arrivals = np.cumsum(run.rng.exponential(1.0 / RATE_PER_S, size=sessions))
    utts = run.rng.integers(0, UTTERANCES, size=sessions)
    chunks = FRAMES // CHUNK_FRAMES
    events = sorted(
        (float(arrivals[s]) + j * CHUNK_PERIOD_S, s, j)
        for s in range(sessions) for j in range(chunks)
    )
    done: "queue.Queue[Optional[Tuple[int, int, float]]]" = queue.Queue()
    pacer = Pacer()
    latencies: List[float] = []

    def generate() -> None:
        sids: Dict[int, Optional[int]] = {}
        try:
            for due, s, j in events:
                run.late_s.append(pacer.wait(due))
                if j == 0:
                    sids[s] = run.timed_open()
                sid = sids[s]
                if sid is None:
                    if j == chunks - 1:
                        done.put((-1, s, due))
                    continue
                matrix = run.scores[utts[s]]
                rows = matrix[j * CHUNK_FRAMES: (j + 1) * CHUNK_FRAMES]
                if not run.timed_push(sid, rows):
                    # A shed chunk leaves the session incomplete: end it
                    # and count it as a miss.
                    sids[s] = None
                    run.close(sid)
                    done.put((-1, s, due))
                    continue
                if j == chunks - 1:
                    run.close(sid)
                    done.put((sid, s, due))
        finally:
            done.put(None)

    generator = threading.Thread(target=generate, name="loadgen-open")
    with run.tracer.span("loadgen.open_loop"):
        generator.start()
        try:
            while True:
                item = done.get()
                if item is None:
                    break
                sid, s, due = item
                if sid >= 0 and run.collect(sid, int(utts[s])):
                    latencies.append(pacer.latency(due, time.perf_counter()))
                else:
                    latencies.append(RESULT_TIMEOUT_S)
        finally:
            generator.join()
    return latencies


def _closed_loop(
    run: _Run, seconds: float
) -> Tuple[float, List[float], float]:
    """:data:`LIVE_SESSIONS` sessions kept live for ``seconds``; returns
    the decoded frames per second, the per-session latencies (input
    closed to record returned) in seconds, and the serving processes'
    memory in MiB after :data:`CLOSED_LOOP_SESSIONS` sessions.

    The rate is the median over consecutive groups of
    :data:`LIVE_SESSIONS` completions of the group's frames over its
    time span: the ramp-up until the first record returns is left out,
    and one slow stretch moves the median less than a total."""
    slots = threading.Semaphore(LIVE_SESSIONS)
    done: "queue.Queue[Optional[Tuple[int, int, float]]]" = queue.Queue()
    stop = threading.Event()

    def generate() -> None:
        try:
            while not stop.is_set():
                slots.acquire()
                if stop.is_set():
                    break
                utt = int(run.rng.integers(0, UTTERANCES))
                sid = run.timed_open()
                if sid is None:
                    slots.release()
                    continue
                matrix = run.scores[utt]
                for j in range(0, FRAMES, CHUNK_FRAMES):
                    if not run.timed_push(sid, matrix[j: j + CHUNK_FRAMES]):
                        break
                run.close(sid)
                done.put((sid, utt, time.perf_counter()))
        finally:
            done.put(None)

    generator = threading.Thread(target=generate, name="loadgen-closed")
    #: (time, cumulative frames) at each completion inside the window.
    marks: List[Tuple[float, int]] = []
    latencies: List[float] = []
    pss = 0.0
    with run.tracer.span("loadgen.closed_loop"):
        end = time.perf_counter() + seconds
        generator.start()
        try:
            while True:
                item = done.get()
                if item is None:
                    break
                sid, utt, closed_t = item
                ok = run.collect(sid, utt)
                now = time.perf_counter()
                latencies.append(now - closed_t if ok else RESULT_TIMEOUT_S)
                if len(latencies) == CLOSED_LOOP_SESSIONS:
                    pss = proc.pss_mib(proc.process_tree())
                if now > end and len(latencies) >= CLOSED_LOOP_SESSIONS:
                    stop.set()
                else:
                    marks.append((now, run.frames_done))
                slots.release()
        finally:
            stop.set()
            slots.release()
            generator.join()
    rates = [
        (marks[i + LIVE_SESSIONS][1] - marks[i][1])
        / (marks[i + LIVE_SESSIONS][0] - marks[i][0])
        for i in range(0, len(marks) - LIVE_SESSIONS, LIVE_SESSIONS)
    ]
    return (statistics.median(rates) if rates else 0.0), latencies, pss


def run(seed: int, seconds: float, tracer: Tracer, workdir: str) -> Outcome:
    """The ``tier-scores`` workload: the closed loop."""
    return _measure(seed, seconds, tracer, workdir, open_loop=False)


def run_open_loop(
    seed: int, seconds: float, tracer: Tracer, workdir: str
) -> Outcome:
    """The ``tier-open-loop`` workload."""
    return _measure(seed, seconds, tracer, workdir, open_loop=True)


def _measure(
    seed: int, seconds: float, tracer: Tracer, workdir: str, open_loop: bool
) -> Outcome:
    built, setup_s = repeated_setup(
        lambda tr: _build(workdir, tr), _teardown, tracer, SETUP_REPEATS
    )
    tier = built.tier
    try:
        run_state = _Run(built, tracer, np.random.default_rng([seed, 11]))
        pids = proc.process_tree()
        pss0 = proc.pss_mib(pids)
        cpu0 = proc.cpu_seconds(pids)
        start = time.perf_counter()
        if open_loop:
            latencies = _open_loop(run_state, seconds)
            throughput = run_state.frames_done / (time.perf_counter() - start)
            pss = proc.pss_mib(proc.process_tree())
        else:
            throughput, latencies, pss = _closed_loop(run_state, seconds)
        cpu_s = proc.cpu_seconds(pids) - cpu0
    finally:
        tier.shutdown()
        shutil.rmtree(built.graph_dir, ignore_errors=True)

    # Outside the timed window: every finished session must match a
    # one-shot decode of its utterance, word for word and bit for bit.
    reference = BatchDecoder(
        built.workload.graph, DecoderConfig(beam=BEAM, max_active=MAX_ACTIVE)
    ).decode_batch(built.workload.scores)
    mismatches = [
        f"session {sid} (utterance {utt})"
        for sid, utt, record in run_state.records
        if record.result.words != reference[utt].words
        or record.result.log_likelihood != reference[utt].log_likelihood
    ]

    p50_ms = percentile(latencies, 50) * 1e3
    tail_ms = tail(latencies, TAIL_PERCENTILE) * 1e3
    cpu_per_audio = cpu_s * 1e3 / (run_state.frames_done / 100.0)
    latency = "final_latency" if open_loop else "saturated_latency"
    named = {
        "decoded_fps" if open_loop else "capacity_fps": (
            throughput, "frames/s", 1),
        f"{latency}_p50_ms": (p50_ms, "ms", len(latencies)),
        f"{latency}_p{TAIL_PERCENTILE:g}_ms": (tail_ms, "ms", len(latencies)),
        "cpu_ms_per_audio_s": (cpu_per_audio, "ms/s", 1),
        "pss_mib": (pss, "MiB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }
    end_to_end = {
        "throughput_per_s": throughput,
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_audio_s": cpu_per_audio,
        "pss_mib": pss,
        "setup_s": setup_s,
    }

    server_stats = [s for s in tier.worker_stats if s is not None]
    sweeps = sum(s.sweeps for s in server_stats)
    busy = sum(s.busy_seconds for s in server_stats)
    records = [r for _sid, _utt, r in run_state.records]
    search = [r.result.stats for r in records]
    frames = sum(s.frames for s in search) or 1
    stats = tier.stats
    per_layer = {
        "tier.push_ms_p50": percentile(run_state.push_ms, 50),
        "tier.push_ms_p99": percentile(run_state.push_ms, 99),
        "tier.open_ms_p99": percentile(run_state.open_ms, 99),
        "ring.ipc_bytes_per_frame": stats.ipc_bytes_per_frame,
        "ring.stalls": float(stats.ring_stalls),
        "server.occupancy": sum(s.frames_decoded for s in server_stats)
        / max(sweeps, 1),
        "server.wait_ms_p50": statistics.median(
            r.stats.mean_wait_s for r in records) * 1e3,
        "server.wait_ms_max": max(r.stats.max_wait_s for r in records) * 1e3,
        "server.busy_s": busy,
        "kernel.sweep_ms": busy / max(sweeps, 1) * 1e3,
        "kernel.active_tokens_per_frame": sum(
            sum(s.active_tokens_per_frame) for s in search) / frames,
        "kernel.arcs_per_frame": sum(
            s.arcs_processed + s.epsilon_arcs_processed for s in search
        ) / frames,
        "traceback.trace_peak_kib": stats.trace_peak_bytes / 1024.0,
        "traceback.committed_frames": float(stats.committed_frames),
        "setup.compile_s": span_median_s(tracer, "setup.compile"),
        "setup.spawn_s": span_median_s(tracer, "setup.spawn"),
        "mem.growth_mib": pss - pss0,
    }
    if open_loop:
        per_layer["loadgen.late_ms_p99"] = percentile(run_state.late_s, 99) * 1e3
    return Outcome(
        attempted=run_state.attempted,
        failed=run_state.failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        named=named,
        mismatches=mismatches,
    )
