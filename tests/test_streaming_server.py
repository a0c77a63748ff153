"""Tests for the continuous-batching StreamingServer.

Correctness anchor: any traffic pattern -- concurrent sessions, ragged
chunks, joins and leaves mid-flight -- produces exactly the words and
path scores of one-shot ``BatchDecoder.decode_batch``.
"""

import numpy as np
import pytest

from repro.common.errors import AdmissionError, ConfigError, DecodeError
from repro.decoder import BatchDecoder, BeamSearchConfig
from repro.system import ServerConfig, StreamingServer


@pytest.fixture()
def config():
    return BeamSearchConfig(beam=14.0, max_active=60)


@pytest.fixture()
def oneshot(small_task, config):
    decoder = BatchDecoder(small_task.graph, config)
    return decoder.decode_batch([u.scores for u in small_task.utterances])


class TestEquivalence:
    @pytest.mark.parametrize("chunk_frames", [1, 3, 10, 1000])
    def test_decode_streaming_matches_oneshot(
        self, small_task, config, oneshot, chunk_frames
    ):
        server = StreamingServer(small_task.graph, config)
        results = server.decode_streaming(
            [u.scores for u in small_task.utterances],
            chunk_frames=chunk_frames,
        )
        for expected, got in zip(oneshot, results):
            assert got.words == expected.words
            assert got.log_likelihood == expected.log_likelihood
            assert got.reached_final == expected.reached_final

    def test_sessions_join_and_leave_mid_flight(
        self, small_task, config, oneshot
    ):
        """Stagger arrivals so the sweep population changes constantly."""
        server = StreamingServer(small_task.graph, config)
        utts = small_task.utterances
        sids = {}
        offsets = {}
        for round_no in range(200):
            if round_no % 2 == 0 and len(sids) < len(utts):
                i = len(sids)
                sids[i] = server.open_session()
                offsets[i] = 0
            pushed = False
            for i, sid in sids.items():
                matrix = utts[i].scores.matrix
                if offsets[i] >= len(matrix):
                    continue
                chunk = matrix[offsets[i]: offsets[i] + 3]
                server.push(sid, chunk)
                offsets[i] += len(chunk)
                pushed = True
                if offsets[i] >= len(matrix):
                    server.close_input(sid)
            server.step()
            if not pushed and len(sids) == len(utts):
                break
        server.drain()
        assert server.stats.sessions_finalized == len(utts)
        for i, sid in sids.items():
            record = server.result(sid)
            assert record.ok
            assert record.result.words == oneshot[i].words
            assert record.result.log_likelihood == oneshot[i].log_likelihood


class TestScheduling:
    def test_max_batch_caps_sweep_occupancy(self, small_task, config):
        server = StreamingServer(
            small_task.graph, config, ServerConfig(max_batch=2)
        )
        server.decode_streaming(
            [u.scores for u in small_task.utterances], chunk_frames=5
        )
        assert server.stats.max_occupancy <= 2
        assert server.stats.frames_decoded == sum(
            u.num_frames for u in small_task.utterances
        )

    def test_max_batch_round_robins_instead_of_starving(
        self, small_task, config
    ):
        """With more ready sessions than max_batch, the cap rotates over
        them -- every session makes progress."""
        server = StreamingServer(
            small_task.graph, config, ServerConfig(max_batch=2)
        )
        sids = [server.open_session() for _ in range(3)]
        matrix = small_task.utterances[0].scores.matrix
        for sid in sids:
            server.push(sid, matrix[:6])
        for _ in range(3):
            assert server.step() == 2
        decoded = {
            sid: server._live[sid].stats.frames_decoded for sid in sids
        }
        assert all(count >= 1 for count in decoded.values()), decoded
        assert sum(decoded.values()) == 6

    def test_stats_recorded(self, small_task, config):
        server = StreamingServer(small_task.graph, config)
        scores = [u.scores for u in small_task.utterances]
        server.decode_streaming(scores, chunk_frames=5)
        stats = server.stats
        total = sum(u.num_frames for u in small_task.utterances)
        assert stats.frames_decoded == total
        assert stats.sweeps > 0
        assert stats.sessions_opened == len(scores)
        assert stats.sessions_finalized == len(scores)
        assert stats.busy_seconds > 0
        assert stats.busy_frames_per_second > 0
        assert 1.0 <= stats.mean_occupancy <= len(scores)

    def test_per_session_stats(self, small_task, config):
        server = StreamingServer(small_task.graph, config)
        utt = small_task.utterances[0]
        sid = server.open_session()
        server.push(sid, utt.scores)
        server.close_input(sid)
        server.drain()
        record = server.result(sid)
        assert record.stats.frames_pushed == utt.num_frames
        assert record.stats.frames_decoded == utt.num_frames
        assert record.stats.sweeps == utt.num_frames
        assert record.stats.decode_seconds > 0
        assert record.stats.frames_per_second > 0
        assert record.stats.mean_wait_s >= 0
        assert record.stats.max_wait_s >= record.stats.mean_wait_s
        assert record.stats.finalized_s is not None

    def test_partial_mid_stream(self, small_task, config):
        decoder = BatchDecoder(small_task.graph, config)
        server = StreamingServer(small_task.graph, config)
        utt = small_task.utterances[0]
        sid = server.open_session()
        server.push(sid, utt.scores.matrix[:8])
        server.drain()
        from repro.acoustic.scorer import AcousticScores

        expected = decoder.decode(AcousticScores(utt.scores.matrix[:8]))
        partial = server.partial(sid)
        assert partial.words == expected.words
        assert partial.log_likelihood == expected.log_likelihood
        # The session keeps decoding afterwards.
        server.push(sid, utt.scores.matrix[8:])
        server.close_input(sid)
        server.drain()
        assert server.result(sid).result.words == decoder.decode(utt.scores).words

    def test_pending_frames_and_live_ids(self, small_task, config):
        server = StreamingServer(small_task.graph, config)
        sid = server.open_session()
        assert server.live_session_ids == [sid]
        server.push(sid, small_task.utterances[0].scores.matrix[:5])
        assert server.pending_frames == 5
        server.step()
        assert server.pending_frames == 4
        server.close_input(sid)
        server.drain()
        assert server.live_session_ids == []
        assert server.finished_session_ids == [sid]


class TestErrors:
    def test_unknown_session_rejected(self, small_graph):
        server = StreamingServer(small_graph)
        with pytest.raises(DecodeError):
            server.push(99, np.zeros((1, 5)))
        with pytest.raises(DecodeError):
            server.result(99)

    def test_push_after_close_rejected(self, small_task):
        server = StreamingServer(small_task.graph)
        sid = server.open_session()
        server.close_input(sid)
        with pytest.raises(DecodeError):
            server.push(sid, small_task.utterances[0].scores)

    def test_result_of_live_session_rejected(self, small_task):
        server = StreamingServer(small_task.graph)
        sid = server.open_session()
        with pytest.raises(DecodeError):
            server.result(sid)

    def test_session_dying_mid_stream_surfaces_real_error(self):
        """A beam-emptied session reports the engine's error, not a
        confusing 'unknown/retired session' message, and remaining audio
        for it is dropped instead of crashing the push loop."""
        import math

        from repro.wfst import CompiledWfst, EPSILON, Fst

        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, 0.0, s1)
        fst.add_arc(s1, EPSILON, EPSILON, math.log(0.9), s2)
        fst.set_final(s2, 0.0)
        graph = CompiledWfst.from_fst(fst)
        matrix = np.full((6, 3), -1e9)
        matrix[:, 1] = math.log(0.8)

        server = StreamingServer(graph, BeamSearchConfig(beam=30.0))
        with pytest.raises(DecodeError) as exc:
            server.decode_streaming([matrix], chunk_frames=2)
        assert "beam emptied" in str(exc.value) or "no active tokens" in str(
            exc.value
        )
        # Pushing to the retired session explains what happened to it.
        sid = server.finished_session_ids[0]
        with pytest.raises(DecodeError, match="retired"):
            server.push(sid, matrix[:1])

    def test_partial_of_dying_session_returns_none(self):
        """A dead-but-not-retired session polls as None instead of
        raising, so fleet-wide partial polling is safe."""
        import math

        from repro.wfst import CompiledWfst, EPSILON, Fst

        fst = Fst()
        s0, s1, s2 = fst.add_states(3)
        fst.set_start(s0)
        fst.add_arc(s0, 1, 1, 0.0, s1)
        fst.add_arc(s1, EPSILON, EPSILON, math.log(0.9), s2)
        fst.set_final(s2, 0.0)
        graph = CompiledWfst.from_fst(fst)
        matrix = np.full((2, 3), -1e9)
        matrix[:, 1] = math.log(0.8)

        server = StreamingServer(graph, BeamSearchConfig(beam=30.0))
        sid = server.open_session()
        server.push(sid, matrix)
        server.step()
        assert server.partial(sid) is not None  # one frame in: fine
        server.step()  # frame 2 finds only epsilon arcs: beam empties
        assert server.is_live(sid)
        assert server.partial(sid) is None

    def test_zero_frame_session_records_error(self, small_graph):
        server = StreamingServer(small_graph)
        sid = server.open_session()
        server.close_input(sid)
        server.drain()
        record = server.result(sid)
        assert not record.ok
        assert "no frames" in record.error

    def test_malformed_chunks_rejected_at_push(self, small_task):
        """Bad widths bounce at push() -- they can never reach a fused
        sweep where other sessions' frames would be lost."""
        server = StreamingServer(small_task.graph)
        sid = server.open_session()
        width = small_task.utterances[0].scores.matrix.shape[1]
        # Too narrow for the graph's phone ids.
        with pytest.raises(DecodeError):
            server.push(sid, np.zeros((2, 1)))
        # Width disagreeing with the fleet's established width.
        server.push(sid, small_task.utterances[0].scores.matrix[:2])
        other = server.open_session()
        with pytest.raises(DecodeError):
            server.push(other, np.full((2, width + 3), -1.0))

    def test_session_push_frame_validates_rows(self, small_task):
        from repro.decoder import BatchDecoder

        session = BatchDecoder(small_task.graph).open_session()
        with pytest.raises(DecodeError):
            session.push_frame(np.zeros(1))  # too narrow
        with pytest.raises(DecodeError):
            session.push_frame(
                np.zeros((2, small_task.utterances[0].scores.matrix.shape[1]))
            )  # not a row

    def test_invalid_configs_rejected(self, small_graph):
        with pytest.raises(ConfigError):
            ServerConfig(max_batch=0)
        server = StreamingServer(small_graph)
        with pytest.raises(ConfigError):
            server.decode_streaming([np.zeros((1, 5))], chunk_frames=0)

    def test_empty_batch(self, small_graph):
        assert StreamingServer(small_graph).decode_streaming([]) == []


class TestErrorIsolation:
    """Every rejected operation is typed and leaves other live sessions
    undisturbed: they keep decoding to exactly their one-shot words."""

    def _serve_out(self, server, sids, utts, oneshot, offsets=None):
        """Stream the fleet to completion and check it against one-shot.

        ``offsets`` carries frames already pushed before the error under
        test, so nothing is pushed twice."""
        offsets = dict(offsets or {})
        for i in sids:
            offsets.setdefault(i, 0)
        while any(offsets[i] < utts[i].num_frames for i in sids):
            for i, sid in sids.items():
                matrix = utts[i].scores.matrix
                if offsets[i] >= len(matrix):
                    continue
                server.push(sid, matrix[offsets[i]: offsets[i] + 4])
                offsets[i] += len(matrix[offsets[i]: offsets[i] + 4])
                if offsets[i] >= len(matrix):
                    server.close_input(sid)
            server.step()
        server.drain()
        for i, sid in sids.items():
            record = server.result(sid)
            assert record.ok, record.error
            assert record.result.words == oneshot[i].words
            assert record.result.log_likelihood == oneshot[i].log_likelihood

    def test_push_after_close_leaves_others_undisturbed(
        self, small_task, config, oneshot
    ):
        server = StreamingServer(small_task.graph, config)
        utts = small_task.utterances
        sids = {i: server.open_session() for i in range(len(utts))}
        victim = server.open_session()
        server.push(victim, utts[0].scores.matrix[:3])
        server.close_input(victim)
        with pytest.raises(DecodeError, match="closed"):
            server.push(victim, utts[0].scores.matrix[3:6])
        self._serve_out(server, sids, utts, oneshot)

    def test_join_at_admission_limit_leaves_others_undisturbed(
        self, small_task, config, oneshot
    ):
        """A join while the sweep queue is saturated (every admission
        slot holds a live session with buffered frames) sheds with a
        typed AdmissionError; the saturated fleet is untouched."""
        utts = small_task.utterances
        server = StreamingServer(
            small_task.graph, config, ServerConfig(max_sessions=len(utts))
        )
        sids = {i: server.open_session() for i in range(len(utts))}
        for i, sid in sids.items():
            server.push(sid, utts[i].scores.matrix[:4])
        with pytest.raises(AdmissionError, match="admission limit"):
            server.open_session()
        assert server.stats.sessions_opened == len(utts)
        self._serve_out(
            server, sids, utts, oneshot, offsets={i: 4 for i in sids}
        )

    def test_mid_stream_width_mismatch_leaves_others_undisturbed(
        self, small_task, config, oneshot
    ):
        """A session that switches score width mid-stream bounces at
        push() with a typed DecodeError; its own earlier frames and
        every other session keep decoding normally."""
        utts = small_task.utterances
        server = StreamingServer(small_task.graph, config)
        sids = {i: server.open_session() for i in range(len(utts))}
        offender = sids[0]
        width = utts[0].scores.matrix.shape[1]
        server.push(offender, utts[0].scores.matrix[:4])
        server.step()
        with pytest.raises(DecodeError, match="wide like"):
            server.push(offender, np.full((2, width + 5), -1.0))
        # The offender continues with correctly shaped frames, so the
        # fleet (offender included) still matches one-shot decoding.
        self._serve_out(server, sids, utts, oneshot, offsets={0: 4})
