"""Cross-backend differential suite for the kernel dispatch layer.

The compiled (numba) backend of :mod:`repro.decoder.backends` is a pure
speed knob: every array backend must produce word-identical output,
bit-identical path scores, identical order-independent counters and an
identical observer event stream for every graph, engine and pruning
strategy.  This suite is the gate on that contract:

* dispatch behaviour -- explicit selection, ``REPRO_KERNEL_BACKEND``,
  graceful :class:`BackendFallbackWarning` fallback when numba is not
  installed (never a crash);
* randomized differential decoding over :class:`GraphRecipe` axes
  (composed lexicon-times-LM graphs and Kaldi-statistics synthetic
  graphs), ragged fused session fleets, and all three pruning
  strategies, numpy vs numba;
* full observer event-stream identity numpy vs numba on the vectorized
  kernel, and normalized prune/expand agreement against the scalar
  :class:`ReferenceKernel` oracle.

Numba-dependent tests skip cleanly when the ``[compiled]`` extra is not
installed; everything else runs on the portable numpy backend.
"""

import warnings

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.acoustic.scorer import AcousticScores
from repro.datasets import SyntheticGraphConfig
from repro.decoder import (
    BackendFallbackWarning,
    BatchDecoder,
    ClosureEvent,
    DecoderConfig,
    ExpandEvent,
    KernelObserver,
    PruneEvent,
    ReferenceKernel,
    SearchKernel,
    advance_sessions,
    available_backends,
    numba_available,
    resolve_backend,
)
from repro.decoder.backends import (
    BACKEND_ENV_VAR,
    KERNEL_BACKENDS,
    KernelBackend,
)
from repro.decoder.backends.numpy_backend import NumpyBackend
from repro.graph import GraphCompiler, GraphRecipe

requires_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed ([compiled] extra)"
)

#: The three pruning strategies of the kernel's strategy layer.
CONFIGS = {
    "beam": dict(beam=6.0),
    "histogram": dict(beam=8.0, max_active=60),
    "adaptive": dict(
        beam=5.0, pruning="adaptive", target_active=50, min_beam=2.0
    ),
}

#: Graph axes: composed (lexicon o LM) and synthetic (Kaldi statistics).
RECIPES = {
    "composed": GraphRecipe.composed(
        vocab_size=60, corpus_sentences=300, seed=11
    ),
    "synthetic": GraphRecipe.synthetic_graph(
        SyntheticGraphConfig(num_states=900, num_phones=30, seed=21)
    ),
}


@pytest.fixture(scope="module", params=sorted(RECIPES))
def graph(request):
    return GraphCompiler().compile(RECIPES[request.param]).graph


def _config(strategy, backend):
    return DecoderConfig(backend=backend, **CONFIGS[strategy])


def _scores_fleet(graph, seed, frame_counts):
    """A ragged fleet of random utterances sized for ``graph``."""
    width = BatchDecoder(graph).min_score_width
    rng = np.random.default_rng(seed)
    return [
        AcousticScores(rng.normal(loc=-2.0, scale=2.0, size=(frames, width)))
        for frames in frame_counts
    ]


def _core_counters(stats):
    return (
        stats.frames,
        stats.tokens_pruned,
        stats.states_expanded,
        stats.arcs_processed,
        stats.tokens_created,
        tuple(stats.active_tokens_per_frame),
        tuple(sorted(stats.visited_state_degrees)),
    )


# ----------------------------------------------------------------------
# Dispatch layer
# ----------------------------------------------------------------------
class TestDispatch:
    def test_registry_and_default(self):
        assert KERNEL_BACKENDS == ("auto", "numpy", "numba")
        assert "numpy" in available_backends()
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_without_env_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend("auto").name == "numpy"
        assert resolve_backend().name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend("auto").name == "numpy"
        # Explicit config beats the environment.
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        assert resolve_backend("numpy").name == "numpy"

    def test_unknown_names_raise(self, monkeypatch):
        with pytest.raises(ConfigError):
            resolve_backend("fortran")
        with pytest.raises(ConfigError):
            DecoderConfig(backend="fortran")
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(ConfigError):
            resolve_backend("auto")

    def test_config_flows_to_engines(self):
        recipe = RECIPES["synthetic"]
        compiled = GraphCompiler().compile(recipe).graph
        decoder = BatchDecoder(compiled, DecoderConfig(backend="numpy"))
        assert decoder.backend_name == "numpy"
        assert decoder.kernel.backend_name == "numpy"

    def test_abstract_backend_is_abstract(self):
        backend = KernelBackend()
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(NotImplementedError):
            backend.csr_gather(empty, empty)
        with pytest.raises(NotImplementedError):
            backend.segment_best(empty, np.empty(0))

    @pytest.mark.skipif(
        numba_available(), reason="covers the numba-missing fallback"
    )
    def test_missing_numba_warns_and_falls_back(self):
        with pytest.warns(BackendFallbackWarning, match="compiled"):
            backend = resolve_backend("numba")
        assert backend.name == "numpy"
        assert isinstance(backend, NumpyBackend)
        assert available_backends() == ("numpy",)
        # The fallback flows through configs the same way: a decoder
        # asking for numba still comes up, on numpy.
        with pytest.warns(BackendFallbackWarning):
            kernel = SearchKernel(
                GraphCompiler().compile(RECIPES["synthetic"]).graph,
                DecoderConfig(backend="numba"),
            )
        assert kernel.backend_name == "numpy"

    @requires_numba
    def test_numba_resolves_when_installed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = resolve_backend("numba")
        assert backend.name == "numba"
        assert available_backends() == ("numpy", "numba")


# ----------------------------------------------------------------------
# Randomized differential decoding, numpy vs numba
# ----------------------------------------------------------------------
@requires_numba
@pytest.mark.parametrize("strategy", sorted(CONFIGS))
class TestBackendsDecodeIdentically:
    def test_batch_words_scores_counters(self, graph, strategy):
        fleet = _scores_fleet(graph, seed=7, frame_counts=(6, 9, 4, 7))
        base = BatchDecoder(graph, _config(strategy, "numpy"))
        compiled = BatchDecoder(graph, _config(strategy, "numba"))
        assert compiled.backend_name == "numba"

        for ref, jit in zip(
            base.decode_batch(fleet), compiled.decode_batch(fleet)
        ):
            assert jit.words == ref.words
            assert jit.log_likelihood == ref.log_likelihood  # bitwise
            assert jit.reached_final == ref.reached_final
            assert _core_counters(jit.stats) == _core_counters(ref.stats)

    def test_ragged_fused_sweep(self, graph, strategy):
        """A live ragged fleet through ``advance_sessions``, per backend."""
        fleet = _scores_fleet(graph, seed=13, frame_counts=(5, 8, 3))
        results = {}
        for backend in ("numpy", "numba"):
            decoder = BatchDecoder(graph, _config(strategy, backend))
            sessions = [decoder.open_session() for _ in fleet]
            max_frames = max(s.num_frames for s in fleet)
            for frame in range(max_frames):
                advance_sessions([
                    (session, scores.frame(frame))
                    for session, scores in zip(sessions, fleet)
                    if frame < scores.num_frames
                ])
            results[backend] = [s.finalize() for s in sessions]
        for ref, jit in zip(results["numpy"], results["numba"]):
            assert jit.words == ref.words
            assert jit.log_likelihood == ref.log_likelihood
            assert _core_counters(jit.stats) == _core_counters(ref.stats)

    def test_chunked_sessions_match_one_shot(self, graph, strategy):
        fleet = _scores_fleet(graph, seed=29, frame_counts=(8,))
        matrix = fleet[0].matrix
        decoder = BatchDecoder(graph, _config(strategy, "numba"))
        one_shot = decoder.decode(fleet[0])
        session = decoder.open_session()
        session.push(matrix[:3])
        session.push(matrix[3:])
        streamed = session.finalize()
        assert streamed.words == one_shot.words
        assert streamed.log_likelihood == one_shot.log_likelihood


# ----------------------------------------------------------------------
# Observer event streams
# ----------------------------------------------------------------------
class _Recorder(KernelObserver):
    """Records every event as a fully normalized comparable tuple."""

    def __init__(self):
        self.events = []

    def on_prune(self, event: PruneEvent) -> None:
        self.events.append((
            "prune", event.frame,
            tuple(event.walk_states), tuple(event.survivor_states),
            tuple(event.survivor_read_idx), event.threshold,
            event.beam_pruned, event.cap_pruned,
        ))

    def on_expand(self, event: ExpandEvent) -> None:
        self.events.append((
            "expand", event.frame, tuple(event.frame_scores),
            tuple(event.states), tuple(event.first), tuple(event.n_arcs),
            tuple(event.read_idx), tuple(event.arc_idx),
            tuple(event.arc_dest),
            None if event.arc_src is None else tuple(event.arc_src),
            None if event.arc_scores is None else tuple(event.arc_scores),
        ))

    def on_closure(self, event: ClosureEvent) -> None:
        self.events.append((
            "closure", event.pass_index, event.round_index,
            tuple(event.states), tuple(event.first), tuple(event.n_arcs),
            None if event.src is None else tuple(event.src),
            tuple(event.arc_idx),
        ))


def _kernel_events(graph, config, scores):
    kernel = SearchKernel(graph, config)
    recorder = _Recorder()
    frontier = kernel.init_frontier([recorder])
    for row in scores.matrix:
        kernel.advance([frontier], row[None])
    kernel.finalize(frontier)
    return recorder.events


@requires_numba
@pytest.mark.parametrize("strategy", sorted(CONFIGS))
def test_observer_streams_are_byte_identical(graph, strategy):
    """numpy vs numba: the *entire* event stream, field for field."""
    scores = _scores_fleet(graph, seed=37, frame_counts=(7,))[0]
    base = _kernel_events(graph, _config(strategy, "numpy"), scores)
    jit = _kernel_events(graph, _config(strategy, "numba"), scores)
    assert len(base) > 0
    assert jit == base


@pytest.mark.parametrize(
    "backend",
    ["numpy", pytest.param("numba", marks=requires_numba)],
)
def test_prune_expand_summaries_match_reference(graph, backend):
    """Vectorized backends vs the scalar oracle, normalized.

    Closure events and the epsilon arc sets are discipline
    approximations (FIFO passes vs relaxation rounds), so the oracle
    comparison covers the prune/expand stream only: survivor *sets*,
    thresholds, pruned counts, and the expanded arc *sets*.  Beam-only
    pruning keeps survivor sets unambiguous (no cap ties).
    """
    scores = _scores_fleet(graph, seed=41, frame_counts=(6,))[0]
    config = DecoderConfig(beam=6.0, backend=backend)

    vec = _kernel_events(graph, config, scores)
    oracle = _Recorder()
    ReferenceKernel(graph, config).decode(scores, [oracle])

    def summarize(events):
        out = []
        for event in events:
            if event[0] == "prune":
                _, frame, _, survivors, _, threshold, beam, cap = event
                out.append((
                    "prune", frame, tuple(sorted(survivors)),
                    threshold, beam, cap,
                ))
            elif event[0] == "expand":
                out.append((
                    "expand", event[1], tuple(sorted(event[7])),
                ))
        return out

    assert summarize(vec) == summarize(oracle.events)


# ----------------------------------------------------------------------
# Backend primitives, op by op
# ----------------------------------------------------------------------
@requires_numba
class TestPrimitivesAgree:
    def _backends(self):
        return resolve_backend("numpy"), resolve_backend("numba")

    def test_csr_gather(self):
        rng = np.random.default_rng(3)
        first = rng.integers(0, 500, size=40).astype(np.int64)
        counts = rng.integers(0, 7, size=40).astype(np.int64)
        base, jit = self._backends()
        for out_base, out_jit in zip(
            base.csr_gather(first, counts), jit.csr_gather(first, counts)
        ):
            np.testing.assert_array_equal(out_jit, out_base)
            assert out_jit.dtype == out_base.dtype

    def test_segment_best_first_wins_on_ties(self):
        keys = np.array([4, 2, 4, 2, 9, 4], dtype=np.int64)
        scores = np.array([1.0, 3.0, 1.0, 3.0, -2.0, 1.0])
        base, jit = self._backends()
        uniq_b, win_b = base.segment_best(keys, scores)
        uniq_j, win_j = jit.segment_best(keys, scores)
        np.testing.assert_array_equal(uniq_j, uniq_b)
        np.testing.assert_array_equal(win_j, win_b)
        # Earliest candidate wins ties -- positions 1 (key 2), 0 (key 4).
        np.testing.assert_array_equal(uniq_b, [2, 4, 9])
        np.testing.assert_array_equal(win_b, [1, 0, 4])

    def test_segment_best_signed_zero_ties(self):
        keys = np.array([5, 5, 5], dtype=np.int64)
        scores = np.array([-0.0, 0.0, -1.0])
        base, jit = self._backends()
        uniq_b, win_b = base.segment_best(keys, scores)
        uniq_j, win_j = jit.segment_best(keys, scores)
        np.testing.assert_array_equal(uniq_j, uniq_b)
        np.testing.assert_array_equal(win_j, win_b)

    def test_segment_best_random(self):
        rng = np.random.default_rng(17)
        keys = rng.integers(0, 50, size=400).astype(np.int64)
        # Quantized scores force plenty of exact ties.
        scores = np.round(rng.normal(size=400) * 4) / 4
        base, jit = self._backends()
        uniq_b, win_b = base.segment_best(keys, scores)
        uniq_j, win_j = jit.segment_best(keys, scores)
        np.testing.assert_array_equal(uniq_j, uniq_b)
        np.testing.assert_array_equal(win_j, win_b)
