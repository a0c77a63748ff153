"""Observer event streams of the vectorized kernel, pinned byte for byte.

The vectorized kernel runs one frame recurrence for any number of
frontiers; observer events are cut per frontier out of the shared sweep
arrays, with row indices rebased to that frontier.  This suite pins the
resulting streams on the portable numpy backend (no compiled extra
needed):

* **golden digests** -- the full event stream of one utterance (the
  ``init_frontier`` closure plus every frame's prune / expand / closure
  events, every field's dtype, shape and bytes) under each pruning
  strategy, hashed and compared with a checked-in digest.  The graph
  and scores are built from integer formulas with dyadic weights, so
  the digest depends on the kernel alone, not on a random generator;
* **fleet identity** -- sessions with recorders attached, advanced
  together through :func:`~repro.decoder.session.advance_sessions`
  (ragged lengths, observed and unobserved sessions mixed), emit the
  same per-session streams as each session advanced alone.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.acoustic.scorer import AcousticScores
from repro.decoder import BatchDecoder, DecoderConfig, KernelObserver, advance_sessions
from repro.wfst import CompiledWfst, EPSILON, Fst

#: The three pruning strategies of ``tests/test_kernel_equivalence.py``.
CONFIGS = {
    "beam": dict(beam=6.0),
    "histogram": dict(beam=8.0, max_active=60),
    "adaptive": dict(
        beam=5.0, pruning="adaptive", target_active=50, min_beam=2.0
    ),
}

#: sha256 of the numpy event stream per strategy (see ``_digest``),
#: captured from the solo-frontier recurrence the fused sweep replaced.
GOLDEN = {
    "beam": "9e117eb3bf2393235a7fb5827d43f86d087e5e7604e72c87526f0ec784150ec5",
    "histogram": "478746e875aa1a7cf2d2f0553bb8b743ed816e10311603ab8d44bd01f8e9141d",
    "adaptive": "006feef752f638addf2f1ebbde7f317694193ab512c60fb7958e13e4f5fce7dc",
}

NUM_STATES = 240
NUM_PHONES = 12
NUM_FRAMES = 12


def golden_graph() -> CompiledWfst:
    """A fan-out graph with epsilon arcs, built from integer formulas.

    Every state has three non-epsilon arcs; every third state (the start
    state included, so ``init_frontier`` runs a closure) has an epsilon
    arc, and half of those chain into further epsilon states.  Weights are multiples of 1/8, exact in float32 and float64.
    """
    fst = Fst()
    fst.add_states(NUM_STATES)
    fst.set_start(0)
    for s in range(NUM_STATES):
        for k in range(3):
            phone = 1 + (s * 7 + k * 5) % NUM_PHONES
            word = 1 + (s + k) % 9 if (s + k) % 4 == 0 else 0
            weight = -((s * 3 + k) % 8) / 8.0
            fst.add_arc(s, phone, word, weight, (s * 13 + k * 29 + 1) % NUM_STATES)
        if s % 3 == 0:
            # Even sources lead to another epsilon state: multi-round
            # closures.
            dest = (s * 11 + (3 if s % 2 == 0 else 7)) % NUM_STATES
            fst.add_arc(s, EPSILON, 0, -0.25 - (s % 5) / 8.0, dest)
        if s % 10 == 0:
            fst.set_final(s, -(s % 4) / 4.0)
    return CompiledWfst.from_fst(fst)


def golden_scores(num_frames: int = NUM_FRAMES, offset: int = 0) -> np.ndarray:
    """Frame-by-phone acoustic scores, multiples of 1/4 in [-5.5, 0]."""
    frame = np.arange(offset, offset + num_frames, dtype=np.int64)[:, None]
    phone = np.arange(NUM_PHONES + 1, dtype=np.int64)[None, :]
    return -((frame * 31 + phone * 17) % 23) / 4.0


class Recorder(KernelObserver):
    """Keeps every event it is handed, in arrival order."""

    def __init__(self):
        self.events = []

    def on_prune(self, event):
        self.events.append(event)

    def on_expand(self, event):
        self.events.append(event)

    def on_closure(self, event):
        self.events.append(event)


def _digest(events) -> str:
    """sha256 over every event's type and fields (dtype, shape, bytes)."""
    h = hashlib.sha256()
    for event in events:
        h.update(type(event).__name__.encode())
        for field in dataclasses.fields(event):
            value = getattr(event, field.name)
            h.update(field.name.encode())
            if value is None:
                h.update(b"None")
                continue
            arr = np.ascontiguousarray(np.asarray(value))
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _solo_events(graph, config, matrix):
    """One session with a recorder, advanced one frame at a time."""
    recorder = Recorder()
    session = BatchDecoder(graph, config).open_session(observers=[recorder])
    for row in matrix:
        session.push_frame(row)
    session.finalize()
    return recorder.events


@pytest.fixture(scope="module")
def graph():
    return golden_graph()


@pytest.mark.parametrize("strategy", sorted(CONFIGS))
def test_event_stream_matches_golden_digest(graph, strategy):
    config = DecoderConfig(backend="numpy", **CONFIGS[strategy])
    events = _solo_events(graph, config, golden_scores())
    kinds = {type(event).__name__ for event in events}
    assert kinds == {"PruneEvent", "ExpandEvent", "ClosureEvent"}
    # The init_frontier closure is part of the pinned stream.
    assert type(events[0]).__name__ == "ClosureEvent"
    assert events[0].pass_index == 0
    assert _digest(events) == GOLDEN[strategy]


@pytest.mark.parametrize("strategy", sorted(CONFIGS))
def test_fleet_streams_match_solo_streams(graph, strategy):
    config = DecoderConfig(backend="numpy", **CONFIGS[strategy])
    # Ragged lengths and offsets: the fleet shrinks as sessions finish
    # and every session sees different scores on the same frame.
    matrices = [golden_scores(n, offset) for n, offset in
                ((12, 0), (7, 5), (10, 11), (4, 2))]
    observed = (0, 1, 3)  # session 2 runs without observers
    decoder = BatchDecoder(graph, config)
    recorders = {i: Recorder() for i in observed}
    sessions = [
        decoder.open_session(
            observers=[recorders[i]] if i in recorders else ()
        )
        for i in range(len(matrices))
    ]
    for frame in range(max(len(m) for m in matrices)):
        advance_sessions([
            (session, matrix[frame])
            for session, matrix in zip(sessions, matrices)
            if frame < len(matrix)
        ])
    fleet = [session.finalize() for session in sessions]

    for i, matrix in enumerate(matrices):
        solo = BatchDecoder(graph, config).decode(AcousticScores(matrix))
        assert fleet[i].words == solo.words
        assert fleet[i].log_likelihood == solo.log_likelihood
        if i in recorders:
            expected = _solo_events(graph, config, matrix)
            assert _digest(recorders[i].events) == _digest(expected)
