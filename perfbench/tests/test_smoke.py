"""Each workload end to end at a tiny shape: finishes in seconds, checks
its outputs, and prints the result line BENCHMARK.json promises."""

import json
import os

import pytest

import benchmarks.common as bench_common
from perfbench import device_dictation, proc, run, sweep, tier_scores
from repro.system import make_memory_workload

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TIER = dict(
    NUM_STATES=500, UTTERANCES=2, FRAMES=20, RATE_PER_S=40.0,
    OPEN_LOOP_SESSIONS=24, LIVE_SESSIONS=4, CLOSED_LOOP_SESSIONS=30,
    TAIL_PERCENTILE=50.0,
    SETUP_REPEATS=2,
)
TINY = {
    "tier-scores": (tier_scores, TIER),
    "tier-open-loop": (tier_scores, TIER),
    "device-dictation": (device_dictation, dict(
        VOCAB=10, CORPUS_SENTENCES=30, UTTERANCES=3, TRAIN_UTTERANCES=4,
        EPOCHS=1, HIDDEN=(16,), STREAMS=2, STREAM_FRAMES=60,
        TAIL_PERCENTILE=50.0,
    )),
    "sweep": (sweep, dict(NUM_STATES=2_000, MIN_POINTS=4, TAIL_PERCENTILE=50.0)),
}


def _tiny_standard_workload(seed):
    return make_memory_workload(
        num_utterances=1, frames_per_utterance=6, beam=8.0, max_active=200,
        seed=seed, num_states=2_000, num_phones=50,
        graph_cache=bench_common.GRAPH_CACHE,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_run(name, trace, monkeypatch, capsys):
    module, shape = TINY[name]
    for attr, value in shape.items():
        monkeypatch.setattr(module, attr, value)
    monkeypatch.setattr(bench_common, "standard_workload", _tiny_standard_workload)
    code = run.run_one(name, seed=5, seconds=0.5, trace=trace)
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0
    # Tier workers and the resource tracker are stopped and reaped.
    assert proc._direct_children() == []
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert os.path.exists(os.path.join(run.OUT_DIR, f"trace-{name}-5.json"))
