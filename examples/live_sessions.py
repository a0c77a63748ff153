#!/usr/bin/env python
"""Live decode sessions: continuous batching over one vectorized engine.

The paper's accelerator serves a *live* pipeline -- audio arrives 10 ms
at a time and the search runs batch by batch behind the GPU.  This
example drives that traffic shape in software:

1. users call in at different times (sessions join mid-flight);
2. each pushes small chunks of acoustic scores as they are "spoken";
3. one :class:`StreamingServer` advances every live session in fused
   lockstep sweeps, emitting partial hypotheses as words appear;
4. sessions retire the moment their input ends, and the final words are
   checked against one-shot offline decoding -- streaming costs nothing
   in accuracy, by construction.

Run:  python examples/live_sessions.py
"""

from repro.datasets import TaskConfig, generate_task
from repro.decoder import BatchDecoder, BeamSearchConfig
from repro.system import StreamingServer

BEAM = 12.0
CHUNK_FRAMES = 10  # 100 ms of audio per push
STAGGER_ROUNDS = 4  # rounds between arrivals


def main() -> None:
    task = generate_task(
        TaskConfig(vocab_size=120, corpus_sentences=500, num_utterances=5,
                   seed=33)
    )
    matrices = [u.scores.matrix for u in task.utterances]
    oneshot = BatchDecoder(task.graph, BeamSearchConfig(beam=BEAM)).decode_batch(
        [u.scores for u in task.utterances]
    )

    server = StreamingServer(task.graph, BeamSearchConfig(beam=BEAM))
    caller_of = {}
    last_partial = {}

    def on_join(round_no, i, sid):
        caller_of[sid] = i
        print(f"[round {round_no:3d}] caller {i} joined "
              f"({len(matrices[i])} frames of audio)")

    def on_round(round_no):
        # Report partial hypotheses as new words appear.
        for sid in server.live_session_ids:
            i = caller_of[sid]
            hypothesis = server.partial(sid)
            if hypothesis is None:  # beam emptied; error surfaces at the end
                continue
            words = hypothesis.words
            if words != last_partial.get(i):
                last_partial[i] = words
                text = " ".join(task.lexicon.word_of(w) for w in words)
                print(f"[round {round_no:3d}] caller {i} so far: "
                      f"\"{text}\"")

    print(f"{len(matrices)} callers, {CHUNK_FRAMES}-frame chunks, one "
          f"caller joining every {STAGGER_ROUNDS} rounds\n")
    records = server.serve_staggered(
        [u.scores for u in task.utterances],
        chunk_frames=CHUNK_FRAMES,
        stagger=STAGGER_ROUNDS,
        on_join=on_join,
        on_round=on_round,
    )

    print("\nFinal hypotheses (streamed == one-shot offline):")
    for i, record in enumerate(records):
        assert record.result.words == oneshot[i].words
        assert record.result.log_likelihood == oneshot[i].log_likelihood
        s = record.stats
        print(f"  caller {i}: {s.frames_decoded} frames, "
              f"{s.frames_per_second:6.0f} frames/s, mean wait "
              f"{s.mean_wait_s * 1e3:5.2f} ms  "
              f"\"{' '.join(task.transcript(record.result))}\"")
    stats = server.stats
    print(f"\nServer: {stats.frames_decoded} frames in {stats.sweeps} "
          f"lockstep sweeps (mean occupancy {stats.mean_occupancy:.1f} "
          f"sessions), {stats.busy_frames_per_second:.0f} "
          f"frames/s of engine busy time")
    print("Streaming sessions decode word-identically to offline batches "
          "-- continuous batching is free accuracy-wise.")


if __name__ == "__main__":
    main()
