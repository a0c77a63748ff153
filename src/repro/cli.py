"""Command-line interface.

Seven subcommands cover the common workflows:

* ``repro-asr compile``      -- run the staged graph compiler on a recipe
  (composed lexicon ∘ LM or synthetic Kaldi-like graph), print the
  per-pass report and cache/save the packed artifact.
* ``repro-asr build-task``   -- generate a synthetic ASR task and save its
  decoding graph.
* ``repro-asr decode``       -- decode a task's utterances on any engine
  of the shared search kernel: ``--engine reference`` (scalar oracle),
  ``batch`` (vectorized), ``lattice`` (N-best summaries) or ``gpu``
  (workload summaries); ``--streaming`` for chunked live sessions and
  ``--pruning adaptive --target-active N`` for the adaptive-beam
  strategy.
* ``repro-asr serve``        -- continuous-batching serving demo: live
  sessions join mid-flight and stream chunks through one fused engine;
  ``--workers N`` serves through the sharded multi-process tier over one
  memory-mapped graph and reports p50/p99 SLO stats.
* ``repro-asr simulate``     -- decode on the cycle-accurate accelerator
  simulator in any of the paper's four configurations.
* ``repro-asr compare``      -- run the six-platform comparison on a
  memory-system workload and print the Figure 9/10/11 style table.
* ``repro-asr sweep``        -- design-space sweep over accelerator
  parameters (trace-once/replay-many with an on-disk trace cache),
  with JSON/CSV artifacts; the engine behind the paper's Figures 4-5.

Run ``python -m repro.cli --help`` for details.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.analysis import engine as analysis_engine
from repro.common.errors import ConfigError
from repro.datasets import (
    AudioTaskConfig,
    SyntheticGraphConfig,
    TaskConfig,
    generate_audio_task,
    generate_task,
)
from repro.decoder import (
    BatchDecoder,
    DecoderConfig,
    KERNEL_BACKENDS,
    LatticeDecoder,
    PRUNING_STRATEGIES,
    ViterbiDecoder,
    word_error_rate,
)
from repro.decoder.backends import resolve_backend
from repro.energy import AcceleratorEnergyModel
from repro.graph import (
    DEFAULT_GRAPH_CACHE,
    GraphCache,
    GraphRecipe,
    compile_graph,
)
from repro.system import (
    ServerConfig,
    ServingTier,
    StreamingServer,
    TierConfig,
    make_memory_workload,
    run_platform_comparison,
)
from repro.wfst import load_any_graph, save_wfst, sort_states_by_arc_count

CONFIG_NAMES = ("base", "state", "arc", "both")


def _accel_config(name: str) -> AcceleratorConfig:
    base = AcceleratorConfig()
    return {
        "base": base,
        "state": base.with_state_direct(),
        "arc": base.with_prefetch(),
        "both": base.with_both(),
    }[name]


def _add_task_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vocab", type=int, default=200,
                        help="vocabulary size (default 200)")
    parser.add_argument("--utterances", type=int, default=5,
                        help="number of test utterances (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--beam", type=float, default=14.0)
    parser.add_argument("--lm-order", type=int, choices=(2, 3), default=2,
                        dest="lm_order",
                        help="grammar transducer order: 2 = bigram, "
                             "3 = trigram (default 2)")


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", metavar="PATH",
                        help="decode a pre-compiled graph artifact "
                             "(npz graph or bundle from 'repro compile "
                             "--output') instead of the task's own; must "
                             "have been compiled from the same recipe for "
                             "meaningful WER")
    parser.add_argument("--graph-cache", default=DEFAULT_GRAPH_CACHE,
                        dest="graph_cache", metavar="DIR|none",
                        help=f"on-disk compiled-graph artifact cache "
                             f"(default {DEFAULT_GRAPH_CACHE}; "
                             f"'none' disables)")


def _graph_cache(args: argparse.Namespace) -> Optional[GraphCache]:
    directory = getattr(args, "graph_cache", None)
    if directory is None or directory == "none":
        return GraphCache()
    return GraphCache(directory)


def _task_config(args: argparse.Namespace) -> TaskConfig:
    return TaskConfig(
        vocab_size=args.vocab,
        num_utterances=args.utterances,
        seed=args.seed,
        lm_order=getattr(args, "lm_order", 2),
    )


def _build_task(args: argparse.Namespace):
    """The task of ``args``: compiled through the cache, or, with
    ``--graph``, generated around a pre-compiled graph (no compile)."""
    graph = load_any_graph(args.graph) if getattr(args, "graph", None) else None
    return generate_task(
        _task_config(args), graph_cache=_graph_cache(args), graph=graph
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel-backend", choices=KERNEL_BACKENDS,
                        default="auto", dest="kernel_backend",
                        help="search-kernel array backend: 'numpy' "
                             "(portable default), 'numba' (compiled; "
                             "needs the [compiled] extra, falls back to "
                             "numpy with a warning), or 'auto' (reads "
                             "REPRO_KERNEL_BACKEND, then numpy). Purely "
                             "a speed knob: every backend decodes "
                             "bit-identically (default: auto)")


def _add_pruning_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pruning", choices=PRUNING_STRATEGIES,
                        default="beam",
                        help="pruning strategy: fixed 'beam' window or "
                             "'adaptive' (tracks --target-active tokens "
                             "per frame; default: beam)")
    parser.add_argument("--max-active", type=int, default=0,
                        dest="max_active",
                        help="histogram cap on tokens per frame "
                             "(0 disables; default 0)")
    parser.add_argument("--target-active", type=int, default=0,
                        dest="target_active",
                        help="adaptive-beam target active-token count "
                             "(required with --pruning adaptive)")


def _decoder_config(args: argparse.Namespace) -> DecoderConfig:
    return DecoderConfig(
        beam=args.beam,
        max_active=getattr(args, "max_active", 0),
        pruning=getattr(args, "pruning", "beam"),
        target_active=getattr(args, "target_active", 0),
        backend=getattr(args, "kernel_backend", "auto"),
        commit_interval=getattr(args, "commit_interval", 0),
    )


def cmd_compile(args: argparse.Namespace) -> int:
    """Run the staged graph compiler and print the per-pass report."""
    if args.states:
        if args.remove_epsilons:
            raise ConfigError(
                "--remove-epsilons applies to composed recipes only "
                "(synthetic graphs are generated pre-packed)"
            )
        if args.no_arcsort:
            raise ConfigError(
                "--no-arcsort applies to composed recipes only"
            )
        recipe = GraphRecipe.synthetic_graph(SyntheticGraphConfig(
            num_states=args.states, num_phones=args.phones, seed=args.seed
        ))
    else:
        recipe = GraphRecipe.composed(
            vocab_size=args.vocab,
            corpus_sentences=args.corpus_sentences,
            lm_order=args.lm_order,
            silence_prob=args.silence_prob,
            seed=args.seed,
            remove_epsilons=args.remove_epsilons,
            arcsort=not args.no_arcsort,
        )
    cache = _graph_cache(args)
    artifact = compile_graph(recipe, cache=cache)
    print(artifact.report())
    graph = artifact.graph
    print(f"graph: {graph.num_states} states / {graph.num_arcs} arcs "
          f"({graph.total_size_bytes / 1024:.0f} KB), "
          f"{100 * graph.epsilon_fraction():.1f}% epsilon")
    if cache.directory is not None:
        print(f"cache: {cache.directory} "
              f"({cache.hits} hit(s), {cache.compiles} compile(s))")
    if args.output:
        from repro.wfst import save_graph_bundle

        save_graph_bundle(
            graph,
            args.output,
            fingerprint=graph.fingerprint(),
            recipe=recipe.to_dict(),
            passes=[p.to_dict() for p in artifact.passes],
        )
        print(f"artifact bundle written to {args.output}")
    return 0


def cmd_build_task(args: argparse.Namespace) -> int:
    task = _build_task(args)
    print(f"task: vocab {task.lexicon.vocab_size}, graph "
          f"{task.graph.num_states} states / {task.graph.num_arcs} arcs "
          f"({task.graph.total_size_bytes / 1024:.0f} KB)")
    if args.output:
        save_wfst(task.graph, args.output)
        print(f"graph written to {args.output}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from repro.decoder import DecodeResult
    from repro.gpu import GpuViterbiDecoder

    task = _build_task(args)
    if args.graph:
        print(f"decoding pre-compiled graph {args.graph} "
              f"({task.graph.num_states} states)")
    config = _decoder_config(args)
    scores = [u.scores for u in task.utterances]
    server = None
    extras: List[List[str]] = [[] for _ in task.utterances]
    t0 = time.perf_counter()
    if args.streaming:
        server = StreamingServer(task.graph, config)
        results = server.decode_streaming(
            scores, chunk_frames=args.chunk_frames
        )
    elif args.engine == "batch":
        decoder = BatchDecoder(task.graph, config)
        results = decoder.decode_batch(scores)
    elif args.engine == "lattice":
        lattice_decoder = LatticeDecoder(task.graph, config)
        results = []
        for i, utt in enumerate(task.utterances):
            lattice = lattice_decoder.decode(utt.scores)
            entries = lattice.nbest(args.nbest)
            best = entries[0]
            results.append(DecodeResult(
                words=best.words,
                log_likelihood=best.log_likelihood,
                reached_final=lattice.reached_final,
                stats=lattice.stats,
            ))
            extras[i].append(
                f"  lattice: {lattice.num_nodes} nodes / "
                f"{lattice.num_edges} edges"
            )
            for rank, entry in enumerate(entries, start=1):
                words = " ".join(
                    task.lexicon.word_of(w) for w in entry.words
                )
                extras[i].append(
                    f"  nbest {rank}: {entry.log_likelihood:9.3f}  {words}"
                )
    elif args.engine == "gpu":
        gpu = GpuViterbiDecoder(task.graph, config=config)
        results = []
        for i, utt in enumerate(task.utterances):
            result, work = gpu.decode(utt.scores)
            results.append(result)
            extras[i].append(
                f"  gpu workload: {work.kernel_launches} launches, "
                f"{work.arcs_expanded} arcs + "
                f"{work.epsilon_arcs_expanded} eps arcs expanded, "
                f"{work.atomic_updates} atomics, "
                f"{work.epsilon_iterations} eps iterations"
            )
    else:
        reference = ViterbiDecoder(task.graph, config)
        results = [reference.decode(u.scores) for u in task.utterances]
    elapsed = time.perf_counter() - t0

    total = 0.0
    for i, (utt, result) in enumerate(zip(task.utterances, results)):
        wer = word_error_rate(utt.words, result.words)
        total += wer
        print(f"utt {i}: WER {wer:.2f}  "
              f"({result.stats.arcs_processed} arcs, "
              f"{result.stats.mean_active_tokens:.0f} active tokens/frame)  "
              f"{' '.join(task.transcript(result))}")
        for line in extras[i]:
            print(line)
    frames = sum(u.num_frames for u in task.utterances)
    engine = "streaming" if args.streaming else args.engine
    # The scalar reference discipline has no array backend to report.
    backend = (
        "" if (args.engine == "reference" and not args.streaming)
        else f" [{resolve_backend(config.backend).name} kernel]"
    )
    print(f"engine '{engine}'{backend}: {frames} frames in "
          f"{elapsed * 1e3:.1f} ms ({frames / elapsed:.0f} frames/s)")
    if server is not None:
        stats = server.stats
        print(f"streaming: {stats.sweeps} sweeps, mean occupancy "
              f"{stats.mean_occupancy:.1f} sessions/sweep, "
              f"{stats.busy_frames_per_second:.0f} frames/s of "
              f"engine busy time")
    print(f"mean WER {total / len(task.utterances):.3f}")
    return 0


def _serve_tier(args: argparse.Namespace, task, scorer=None) -> int:
    """Serve the task through the sharded multi-process tier.

    With ``scorer`` (``--score-features``) sessions run in features
    mode: the front door's scoring thread batches every live session's
    MFCC chunks into stacked DNN forwards and ships the scored planes to
    the shards over zero-copy shared memory."""
    mode = "features" if scorer is not None else "scores"
    tier = ServingTier(
        graph=task.graph,
        search_config=DecoderConfig(
            beam=args.beam, backend=args.kernel_backend,
            commit_interval=args.commit_interval,
        ),
        tier_config=TierConfig(
            num_workers=args.workers, max_batch=args.max_batch
        ),
        scorer=scorer,
    )
    with tier:
        if mode == "features":
            matrices = [u.features for u in task.utterances]
            push = tier.push_features
        else:
            matrices = [u.scores.matrix for u in task.utterances]
            push = tier.push
        sids = []
        for i, matrix in enumerate(matrices):
            sid = tier.open_session(mode=mode)
            sids.append(sid)
            print(f"session {sid} joined -> shard {tier.worker_of(sid)} "
                  f"({len(matrix)} frames)")
        offsets = [0] * len(matrices)
        while any(o < len(m) for o, m in zip(offsets, matrices)):
            for i, (sid, matrix) in enumerate(zip(sids, matrices)):
                if offsets[i] >= len(matrix):
                    continue
                chunk = matrix[offsets[i]: offsets[i] + args.chunk_frames]
                push(sid, chunk)
                offsets[i] += len(chunk)
                if offsets[i] >= len(matrix):
                    tier.close_input(sid)
        records = [tier.result(sid) for sid in sids]
        stats = tier.stats

    total_wer = 0.0
    decoded = 0
    for i, record in enumerate(records):
        if record.error is not None:
            print(f"session {record.session_id}: FAILED ({record.error})")
            continue
        utt = task.utterances[i]
        wer = word_error_rate(utt.words, record.result.words)
        total_wer += wer
        decoded += 1
        s = record.stats
        print(f"session {record.session_id}: WER {wer:.2f}  "
              f"{s.frames_decoded} frames, mean wait "
              f"{s.mean_wait_s * 1e3:.2f} ms  "
              f"{' '.join(task.transcript(record.result))}")
    slo = stats.slo()
    print(f"tier: {args.workers} shards served {stats.sessions_finished} "
          f"sessions / {stats.frames_decoded} frames on the "
          f"{stats.kernel_backend} kernel backend; aggregate "
          f"{slo['aggregate_frames_per_second']:.0f} frames/s")
    print(f"SLO: session latency p50 "
          f"{slo['p50_session_latency_s'] * 1e3:.1f} ms / p99 "
          f"{slo['p99_session_latency_s'] * 1e3:.1f} ms; frame wait p50 "
          f"{slo['p50_mean_wait_s'] * 1e3:.2f} ms / p99 "
          f"{slo['p99_mean_wait_s'] * 1e3:.2f} ms")
    print(f"traceback: peak trace memory "
          f"{slo['trace_memory_bytes'] / 1024:.1f} KiB/session, "
          f"{slo['committed_frames']:.0f} committed frames "
          f"(commit interval {args.commit_interval})")
    if scorer is not None:
        print(f"scoring: {stats.scored_frames} frames in "
              f"{stats.score_batches} cross-session batches, "
              f"{stats.scored_frames_per_second:.0f} scored frames/s; "
              f"transport {stats.descriptors_shipped} descriptors, "
              f"{stats.ipc_bytes_per_frame:.1f} pipe bytes/frame "
              f"({stats.ring_stalls} plane stalls)")
    if decoded:
        print(f"mean WER {total_wer / decoded:.3f}")
    return 0 if decoded == len(records) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Continuous-batching demo: staggered live sessions, chunked input."""
    if args.chunk_frames < 1:
        raise ConfigError("--chunk-frames must be >= 1")
    if args.stagger < 0:
        raise ConfigError("--stagger must be >= 0")
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    scorer = None
    if args.score_features:
        # Features mode needs a trained acoustic model and the MFCCs it
        # was trained on -- the audio-backed task carries both.
        audio = generate_audio_task(
            AudioTaskConfig(
                vocab_size=min(args.vocab, 60),
                num_utterances=args.utterances,
                seed=args.seed,
            )
        )
        task, scorer = audio.task, audio.scorer
        print(f"audio task: DNN frame accuracy "
              f"{audio.frame_accuracy:.3f}, score width "
              f"{scorer.dnn.config.num_classes + 1}")
    else:
        task = _build_task(args)
    if args.workers > 1:
        return _serve_tier(args, task, scorer=scorer)
    server = StreamingServer(
        task.graph,
        DecoderConfig(beam=args.beam, backend=args.kernel_backend,
                      commit_interval=args.commit_interval),
        ServerConfig(max_batch=args.max_batch),
        scorer=scorer,
    )

    def announce_join(round_no: int, i: int, sid: int) -> None:
        print(f"[round {round_no:3d}] session {sid} joined "
              f"({task.utterances[i].num_frames} frames)")

    records = server.serve_staggered(
        [u.features if scorer is not None else u.scores
         for u in task.utterances],
        chunk_frames=args.chunk_frames,
        stagger=args.stagger,
        on_join=announce_join,
        mode="features" if scorer is not None else "scores",
    )

    total_wer = 0.0
    decoded = 0
    for i, record in enumerate(records):
        if record.error is not None:
            print(f"session {record.session_id}: FAILED ({record.error})")
            continue
        utt = task.utterances[i]
        wer = word_error_rate(utt.words, record.result.words)
        total_wer += wer
        decoded += 1
        s = record.stats
        print(f"session {record.session_id}: WER {wer:.2f}  "
              f"{s.frames_decoded} frames in "
              f"{s.sweeps} sweeps, {s.frames_per_second:.0f} frames/s, "
              f"mean wait {s.mean_wait_s * 1e3:.2f} ms  "
              f"{' '.join(task.transcript(record.result))}")
    stats = server.stats
    print(f"kernel backend: {server.kernel_backend}")
    print(f"served {stats.sessions_finalized} sessions / "
          f"{stats.frames_decoded} frames in {stats.sweeps} sweeps "
          f"(mean occupancy {stats.mean_occupancy:.1f}, "
          f"max {stats.max_occupancy}); "
          f"{stats.busy_frames_per_second:.0f} frames/s of engine busy time")
    peak_trace = max(
        (r.stats.trace_peak_bytes for r in records if r.error is None),
        default=0,
    )
    committed = sum(
        r.stats.committed_frames for r in records if r.error is None
    )
    print(f"traceback: peak trace memory {peak_trace / 1024:.1f} "
          f"KiB/session, {committed} committed frames "
          f"(commit interval {args.commit_interval})")
    if scorer is not None:
        print(f"scoring: {stats.scored_frames} frames in "
              f"{stats.score_batches} cross-session batches, "
              f"{stats.scored_frames_per_second:.0f} scored frames/s")
    if decoded:
        print(f"mean WER {total_wer / decoded:.3f}")
    return 0 if decoded == len(records) else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    task = _build_task(args)
    config = _accel_config(args.config)
    sorted_graph = (
        sort_states_by_arc_count(
            task.graph, max_direct_arcs=config.state_direct_max_arcs
        )
        if config.state_direct_enabled
        else None
    )
    sim = AcceleratorSimulator(
        task.graph, config, beam=args.beam, sorted_graph=sorted_graph
    )
    energy_model = AcceleratorEnergyModel()
    total_cycles = 0
    total_energy = 0.0
    speech = 0.0
    for i, utt in enumerate(task.utterances):
        result = sim.decode(utt.scores)
        total_cycles += result.stats.cycles
        total_energy += energy_model.energy(config, result.stats).total_j
        speech += utt.duration_seconds
        s = result.stats
        print(f"utt {i}: {s.cycles} cycles | miss state "
              f"{s.state_cache.miss_ratio:.3f} arc {s.arc_cache.miss_ratio:.3f} "
              f"token {s.token_cache.miss_ratio:.3f} | hash "
              f"{s.hash.avg_cycles_per_request:.2f} cyc/req | "
              f"DRAM {s.traffic.total_bytes() / 1024:.0f} KB")
    seconds = total_cycles / config.frequency_hz
    print(f"config '{args.config}': {seconds * 1e3:.3f} ms for {speech:.2f} s "
          f"of speech ({seconds / speech:.5f} s/s), "
          f"{total_energy * 1e3:.3f} mJ")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = make_memory_workload(
        num_utterances=1,
        frames_per_utterance=args.frames,
        beam=8.0,
        max_active=args.max_active,
        seed=args.seed,
        graph_config=SyntheticGraphConfig(
            num_states=args.states, num_phones=50, seed=args.seed
        ),
    )
    comparison = run_platform_comparison(workload)
    report = comparison.report()
    print(f"{'platform':16s} {'decode s/s':>12s} {'power W':>10s} "
          f"{'energy J/s':>12s}")
    for row in report.rows():
        print(f"{row['platform']:16s} {row['decode_s_per_speech_s']:12.5f} "
              f"{row['avg_power_w']:10.3f} {row['energy_j_per_speech_s']:12.5f}")
    speed = report.speedup_vs("GPU")
    energy = report.energy_reduction_vs("GPU")
    print(f"\nvs GPU: speedup {speed['ASIC+State&Arc']:.2f}x, "
          f"energy reduction {energy['ASIC+State&Arc']:.0f}x "
          f"(paper: 1.7x, 287x)")
    return 0


#: Default on-disk trace cache for ``repro sweep`` (content-addressed;
#: safe to delete at any time -- see docs/ARCHITECTURE.md).
DEFAULT_TRACE_CACHE = os.path.join(
    os.path.expanduser("~"), ".cache", "repro-asr", "traces"
)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Design-space sweep via the trace-once/replay-many runner."""
    from repro.explore import ParameterGrid, SweepRunner, TraceCache

    workload = make_memory_workload(
        num_utterances=1,
        frames_per_utterance=args.frames,
        beam=8.0,
        max_active=args.max_active,
        seed=args.seed,
        graph_config=SyntheticGraphConfig(
            num_states=args.states, num_phones=50, seed=args.seed
        ),
        graph=load_any_graph(args.graph) if args.graph else None,
        graph_cache=_graph_cache(args),
    )
    if args.param:
        grid = ParameterGrid.from_specs(args.param)
        points = grid.points()
        labels = None
    else:
        # Default: the paper's four accelerator configurations.
        points = [
            {},
            {"state_direct_enabled": True},
            {"prefetch_enabled": True},
            {"state_direct_enabled": True, "prefetch_enabled": True},
        ]
        labels = ["ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"]

    cache_dir = None if args.trace_cache == "none" else args.trace_cache
    runner = SweepRunner(
        workload,
        base_config=_accel_config(args.config),
        trace_cache=TraceCache(cache_dir),
        processes=args.processes,
    )
    result = runner.run(points, labels=labels)

    print(f"{len(result)} points in {result.elapsed_seconds:.2f}s "
          f"({result.trace_recordings} trace(s) recorded, "
          f"{result.trace_cache_hits} cache hit(s), "
          f"{result.processes} process(es))")
    header = (f"{'point':40s} {'cycles':>12s} {'decode s/s':>11s} "
              f"{'arc miss':>9s} {'hash c/r':>9s} {'power mW':>9s} "
              f"{'energy mJ':>10s}")
    print(header)
    print("-" * len(header))
    for p in result.points:
        print(f"{p.label[:40]:40s} {p.cycles:12d} "
              f"{p.decode_s_per_speech_s:11.5f} "
              f"{100 * p.stats.arc_cache.miss_ratio:8.1f}% "
              f"{p.stats.hash.avg_cycles_per_request:9.2f} "
              f"{p.avg_power_w * 1e3:9.0f} {p.energy_j * 1e3:10.3f}")
    if args.json:
        print(f"JSON artifact: {result.to_json(args.json)}")
    if args.csv:
        print(f"CSV artifact: {result.to_csv(args.csv)}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    return analysis_engine.run_from_options(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asr",
        description="MICRO 2016 ASR-accelerator reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compile",
        help="run the staged graph compiler (recipe -> packed artifact)",
    )
    p.add_argument("--vocab", type=int, default=200,
                   help="composed recipe: vocabulary size (default 200)")
    p.add_argument("--corpus-sentences", type=int, default=2000,
                   dest="corpus_sentences",
                   help="composed recipe: LM training sentences "
                        "(default 2000)")
    p.add_argument("--lm-order", type=int, choices=(2, 3), default=2,
                   dest="lm_order",
                   help="grammar order: 2 = bigram, 3 = trigram (default 2)")
    p.add_argument("--silence-prob", type=float, default=0.2,
                   dest="silence_prob")
    p.add_argument("--remove-epsilons", action="store_true",
                   dest="remove_epsilons",
                   help="fold output-free epsilon arcs (bigger graph, "
                        "no epsilon pipeline passes)")
    p.add_argument("--no-arcsort", action="store_true", dest="no_arcsort",
                   help="pack arcs in construction order (non-epsilon "
                        "first only)")
    p.add_argument("--states", type=int, default=0,
                   help="compile a synthetic Kaldi-like graph with this "
                        "many states instead of composing L ∘ G")
    p.add_argument("--phones", type=int, default=50,
                   help="synthetic recipe: phone inventory (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph-cache", default=DEFAULT_GRAPH_CACHE,
                   dest="graph_cache", metavar="DIR|none",
                   help=f"artifact cache directory (default "
                        f"{DEFAULT_GRAPH_CACHE}; 'none' disables)")
    p.add_argument("--output", help="write the artifact bundle (npz)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("build-task", help="generate a synthetic ASR task")
    _add_task_args(p)
    _add_graph_args(p)
    p.add_argument("--output", help="write the compiled graph (npz)")
    p.set_defaults(func=cmd_build_task)

    p = sub.add_parser("decode", help="decode with the software decoder")
    _add_task_args(p)
    _add_graph_args(p)
    _add_pruning_args(p)
    _add_backend_arg(p)
    p.add_argument("--engine",
                   choices=("reference", "batch", "lattice", "gpu"),
                   default="reference",
                   help="decode engine: scalar token passing, the "
                        "vectorized batch engine, the lattice/N-best "
                        "decoder, or the GPU workload model -- all on "
                        "the shared search kernel (default: reference)")
    p.add_argument("--nbest", type=int, default=3,
                   help="hypotheses to print per utterance with "
                        "--engine lattice (default 3)")
    p.add_argument("--streaming", action="store_true",
                   help="decode through chunked live sessions on the "
                        "continuous-batching server (word-identical to "
                        "the offline engines)")
    p.add_argument("--chunk-frames", type=int, default=10,
                   dest="chunk_frames",
                   help="frames per streamed chunk (default 10)")
    p.add_argument("--commit-interval", type=int, default=0,
                   dest="commit_interval",
                   help="with --streaming: frames between committed-"
                        "prefix traceback commits (bounds trace memory "
                        "and makes partials stable; 0 disables, "
                        "default 0)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("serve",
                       help="continuous-batching live serving demo")
    _add_task_args(p)
    _add_graph_args(p)
    _add_backend_arg(p)
    p.add_argument("--chunk-frames", type=int, default=10,
                   dest="chunk_frames",
                   help="frames per streamed chunk (default 10)")
    p.add_argument("--commit-interval", type=int, default=0,
                   dest="commit_interval",
                   help="frames between committed-prefix traceback "
                        "commits: bounds per-session trace memory and "
                        "keeps partial output stable (0 disables, "
                        "default 0)")
    p.add_argument("--stagger", type=int, default=3,
                   help="rounds between session arrivals; 0 admits every "
                        "session up front (default 3)")
    p.add_argument("--max-batch", type=int, default=64, dest="max_batch",
                   help="max sessions per lockstep sweep (default 64)")
    p.add_argument("--workers", type=int, default=1,
                   help="decode worker processes; >= 2 serves through "
                        "the sharded tier over one memory-mapped graph "
                        "and prints p50/p99 SLO stats (default 1: "
                        "in-process server)")
    p.add_argument("--score-features", action="store_true",
                   dest="score_features",
                   help="serve an audio-backed task in features mode: "
                        "sessions push MFCC chunks and the server scores "
                        "them in cross-session batched DNN forwards "
                        "(bit-identical words to pushing scores); with "
                        "--workers >= 2 the scored planes reach the "
                        "shards over zero-copy shared memory")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="decode on the accelerator simulator")
    _add_task_args(p)
    _add_graph_args(p)
    p.add_argument("--config", choices=CONFIG_NAMES, default="both",
                   help="accelerator configuration (default: both)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="six-platform comparison")
    p.add_argument("--states", type=int, default=50_000)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--max-active", type=int, default=2000, dest="max_active")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="design-space sweep over accelerator parameters "
             "(trace-once/replay-many)",
    )
    p.add_argument("--states", type=int, default=20_000,
                   help="workload graph size (default 20000 states)")
    p.add_argument("--frames", type=int, default=15)
    p.add_argument("--max-active", type=int, default=1200, dest="max_active")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--config", choices=CONFIG_NAMES, default="base",
                   help="base configuration the sweep starts from")
    p.add_argument("--param", action="append", metavar="PATH=V1,V2,...",
                   help="sweep dimension over a config field path, e.g. "
                        "'arc_cache.size_bytes=256K,1M' or "
                        "'prefetch_enabled=false,true', or a workload "
                        "axis: 'beam=6,8,10', 'pruning=beam,adaptive', "
                        "'target_active=500,1000' (re-traced per value); "
                        "repeatable (dimensions combine as a cartesian "
                        "product). Default: the paper's four "
                        "configurations")
    p.add_argument("--processes", type=int, default=None,
                   help="replay worker processes (default: CPU count)")
    p.add_argument("--graph", metavar="PATH",
                   help="sweep over a pre-compiled graph artifact instead "
                        "of synthesizing one (npz graph or bundle)")
    p.add_argument("--graph-cache", default=DEFAULT_GRAPH_CACHE,
                   dest="graph_cache", metavar="DIR|none",
                   help=f"compiled-graph artifact cache (default "
                        f"{DEFAULT_GRAPH_CACHE}; 'none' disables)")
    p.add_argument("--trace-cache", default=DEFAULT_TRACE_CACHE,
                   metavar="DIR|none",
                   help=f"on-disk trace cache directory (default "
                        f"{DEFAULT_TRACE_CACHE}; 'none' disables)")
    p.add_argument("--json", help="write the sweep result as JSON")
    p.add_argument("--csv", help="write the sweep result as CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "lint",
        help="run the invariant linter (determinism, typed errors, "
             "fingerprint completeness, arg purity, validation "
             "completeness; see docs/INVARIANTS.md)",
    )
    analysis_engine.add_arguments(p)
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
