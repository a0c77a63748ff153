"""Spans: parents, sessions, self time, and patching that restores."""

import json
import types

from perfbench.trace import Tracer


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_spans_record_parent_session_and_self_time(tmp_path):
    clock = _Clock()
    tracer = Tracer(enabled=True, clock=clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner", session=7):
            clock.now += 2.0
        clock.now += 0.5
    inner, outer = tracer.spans()
    assert inner[1] == "inner" and inner[4] == outer[0] and inner[5] == 7
    assert outer[4] == -1
    assert tracer.self_time_s() == {"outer": 1.5, "inner": 2.0}
    path = tmp_path / "trace.json"
    tracer.write(str(path), {"workload": "x"})
    payload = json.loads(path.read_text())
    assert len(payload["spans"]) == 2 and payload["meta"] == {"workload": "x"}


def test_disabled_tracer_records_nothing_and_patches_nothing():
    module = types.SimpleNamespace(f=lambda: 1)
    tracer = Tracer(enabled=False)
    original = module.f
    with tracer.patched(module, "f", "f"), tracer.span("x"):
        assert module.f is original
    assert tracer.spans() == []


def test_patched_wraps_calls_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer(enabled=True)
    original = Layer.__dict__["work"]
    with tracer.patched(Layer, "work", "layer.work"):
        with tracer.span("caller"):
            assert Layer().work(1) == 2
    assert Layer.__dict__["work"] is original
    (work, caller) = tracer.spans()
    assert work[1] == "layer.work" and work[4] == caller[0]
