"""Workload ``device-dictation``: the paper's on-device setting.

An in-process :class:`~repro.system.server.StreamingServer` with a
trained DNN (two hidden layers 1024 wide) serves a few long dictation
streams in features mode: six concurrent streams of 50 s of audio each,
made of concatenated utterances, with a committed prefix every 20
frames.  No IPC and few users; DNN scoring takes about half the busy
time and commit/partial runs on every chunk.

The loop is closed: each round pushes one 10-frame chunk per stream,
drains the server, then reads ``partial()`` of every stream -- what a
dictation UI does to show words as they are spoken.  A round's wall
time is one chunk latency sample.  Passes over the same six streams
repeat until ``--seconds`` have passed; throughput and CPU time are
medians over the passes, so a burst of load from outside the benchmark
moves them less.

The task -- graph, trained DNN and utterances -- is fixed; the benchmark
seed draws which utterances make up each stream.  Decode cost moves with
the task's seed far more than the bound allows.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

from perfbench import proc
from perfbench.harness import (
    SETUP_REPEATS,
    Outcome,
    repeated_setup,
    span_median_s,
)
from perfbench.stats import percentile, tail
from perfbench.trace import Tracer
import repro.datasets.audio_task as audio_task_module
import repro.system.server as server_module
from repro.acoustic.batch_scorer import BatchScorer
from repro.common.errors import ReproError
from repro.datasets import AudioTaskConfig, generate_audio_task
from repro.decoder import BatchDecoder
from repro.decoder.kernel import DecoderConfig
from repro.system import StreamingServer

VOCAB = 30
CORPUS_SENTENCES = 300
#: Distinct utterances the streams are cut from.
UTTERANCES = 24
TRAIN_UTTERANCES = 50
EPOCHS = 4
HIDDEN = (1024, 1024)
STREAMS = 6
#: 50 s of audio at 10 ms frames.
STREAM_FRAMES = 5_000
CHUNK_FRAMES = 10
BEAM = 14.0
MAX_ACTIVE = 150
COMMIT_INTERVAL = 20
TASK_SEED = 1
TAIL_PERCENTILE = 95.0

SEARCH = DecoderConfig(
    beam=BEAM, max_active=MAX_ACTIVE, commit_interval=COMMIT_INTERVAL
)


def _build(tracer: Tracer):
    with tracer.patched(audio_task_module, "compose", "setup.compile"), \
            tracer.patched(audio_task_module, "train_dnn", "setup.train"):
        audio = generate_audio_task(AudioTaskConfig(
            vocab_size=VOCAB,
            corpus_sentences=CORPUS_SENTENCES,
            num_utterances=UTTERANCES,
            train_utterances=TRAIN_UTTERANCES,
            epochs=EPOCHS,
            hidden_dims=HIDDEN,
            seed=TASK_SEED,
        ))
    with tracer.span("setup.spawn"):
        server = StreamingServer(audio.task.graph, SEARCH, scorer=audio.scorer)
        # Warm the flat layout, the scorer and the allocator.
        sid = server.open_session(mode="features")
        features = audio.task.utterances[0].features
        for off in range(0, len(features), CHUNK_FRAMES):
            server.push_features(sid, features[off: off + CHUNK_FRAMES])
            server.drain()
            server.partial(sid)
        server.close_input(sid)
        server.drain()
        server.result(sid)
    return audio, server


def _streams(seed: int, audio) -> List[np.ndarray]:
    """Seeded dictation streams: utterance features end to end."""
    rng = np.random.default_rng([seed, 23])
    features = [u.features for u in audio.task.utterances]
    streams = []
    for _ in range(STREAMS):
        parts, frames = [], 0
        while frames < STREAM_FRAMES:
            part = features[int(rng.integers(len(features)))]
            parts.append(part)
            frames += len(part)
        streams.append(np.vstack(parts)[:STREAM_FRAMES])
    return streams


def _pass(server, streams, tracer: Tracer, latencies: List[float]) -> Tuple[
        list, int, int]:
    """Serve every stream once; returns (records, attempted, failed)."""
    attempted = failed = 0
    sids = [server.open_session(mode="features") for _ in streams]
    attempted += len(sids)
    for off in range(0, STREAM_FRAMES, CHUNK_FRAMES):
        t0 = time.perf_counter()
        with tracer.span("dictation.round"):
            for sid, stream in zip(sids, streams):
                attempted += 1
                try:
                    with tracer.span("server.push_features", sid):
                        server.push_features(
                            sid, stream[off: off + CHUNK_FRAMES]
                        )
                except ReproError:
                    failed += 1
            with tracer.span("server.drain"):
                server.drain()
            for sid in sids:
                attempted += 1
                with tracer.span("server.partial", sid):
                    if server.partial(sid) is None:
                        failed += 1  # the beam emptied this stream
        latencies.append(time.perf_counter() - t0)
    for sid in sids:
        server.close_input(sid)
    server.drain()
    records = [server.result(sid) for sid in sids]
    failed += sum(1 for r in records if not r.ok)
    return records, attempted + len(records), failed


def run(seed: int, seconds: float, tracer: Tracer, workdir: str) -> Outcome:
    (audio, server), setup_s = repeated_setup(
        _build, lambda built: None, tracer
    )
    streams = _streams(seed, audio)
    before = server.stats
    busy0, sweeps0, frames0 = before.busy_seconds, before.sweeps, before.frames_decoded
    scored0, batches0 = before.scored_frames, before.score_batches

    latencies: List[float] = []
    records: List[Tuple[int, object]] = []
    pass_s: List[float] = []
    pass_cpu_s: List[float] = []
    attempted = failed = 0
    pids = proc.process_tree()
    pss0 = proc.pss_mib(pids)
    t0 = time.perf_counter()
    with tracer.patched(server_module, "advance_sessions", "kernel.advance_sessions"), \
            tracer.patched(BatchScorer, "score_chunks", "scorer.score_chunks"):
        while True:
            cpu0, start = proc.cpu_seconds(pids), time.perf_counter()
            done, a, f = _pass(server, streams, tracer, latencies)
            pass_s.append(time.perf_counter() - start)
            pass_cpu_s.append(proc.cpu_seconds(pids) - cpu0)
            records.extend(enumerate(done))
            attempted += a
            failed += f
            if time.perf_counter() - t0 >= seconds:
                break
    pss = proc.pss_mib(pids)

    # Outside the timed window: every stream of every pass must match a
    # one-shot decode of its scored features.
    reference = BatchDecoder(audio.task.graph, SEARCH).decode_batch(
        [audio.scorer.score(stream) for stream in streams]
    )
    mismatches = [
        f"pass {i // STREAMS} stream {index}"
        for i, (index, record) in enumerate(records)
        if record.ok and (
            record.result.words != reference[index].words
            or record.result.log_likelihood != reference[index].log_likelihood
        )
    ]

    stats = server.stats
    frames = stats.frames_decoded - frames0
    pass_frames = STREAMS * STREAM_FRAMES
    throughput = statistics.median(pass_frames / s for s in pass_s)
    p50_ms = percentile(latencies, 50) * 1e3
    p95_ms = tail(latencies, TAIL_PERCENTILE) * 1e3
    cpu_per_audio = statistics.median(
        c * 1e3 / (pass_frames / 100.0) for c in pass_cpu_s
    )
    named = {
        "decoded_fps": (throughput, "frames/s", len(pass_s)),
        "chunk_latency_p50_ms": (p50_ms, "ms", len(latencies)),
        "chunk_latency_p95_ms": (p95_ms, "ms", len(latencies)),
        "cpu_ms_per_audio_s": (cpu_per_audio, "ms/s", len(pass_s)),
        "pss_mib": (pss, "MiB", 1),
        "mem_growth_mib": (pss - pss0, "MiB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }
    end_to_end = {
        "throughput_per_s": throughput,
        "latency_p50_ms": p50_ms,
        "latency_tail_ms": p95_ms,
        "cpu_ms_per_audio_s": cpu_per_audio,
        "pss_mib": pss,
        "setup_s": setup_s,
    }

    finished = [r for _index, r in records if r.ok]
    search = [r.result.stats for r in finished]
    searched = sum(s.frames for s in search) or 1
    sweeps = stats.sweeps - sweeps0
    batches = stats.score_batches - batches0
    per_layer = {
        "server.occupancy": frames / max(sweeps, 1),
        "server.wait_ms_p50": statistics.median(
            r.stats.mean_wait_s for r in finished) * 1e3,
        "server.wait_ms_max": max(r.stats.max_wait_s for r in finished) * 1e3,
        "server.busy_s": stats.busy_seconds - busy0,
        "kernel.sweep_ms": span_median_s(tracer, "kernel.advance_sessions") * 1e3,
        "kernel.active_tokens_per_frame": sum(
            sum(s.active_tokens_per_frame) for s in search) / searched,
        "kernel.arcs_per_frame": sum(
            s.arcs_processed + s.epsilon_arcs_processed for s in search
        ) / searched,
        "traceback.partial_ms": span_median_s(tracer, "server.partial") * 1e3,
        "traceback.trace_peak_kib": max(
            r.stats.trace_peak_bytes for r in finished) / 1024.0,
        "traceback.committed_frames": float(
            sum(r.stats.committed_frames for r in finished)),
        "scorer.score_ms": span_median_s(tracer, "scorer.score_chunks") * 1e3,
        "scorer.rows_per_batch": (stats.scored_frames - scored0) / max(batches, 1),
        "setup.compile_s": span_median_s(tracer, "setup.compile"),
        "setup.train_s": span_median_s(tracer, "setup.train"),
        "setup.spawn_s": span_median_s(tracer, "setup.spawn"),
        "mem.growth_mib": pss - pss0,
    }
    return Outcome(
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        named=named,
        mismatches=mismatches,
    )
