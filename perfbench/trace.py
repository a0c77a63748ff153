"""In-memory spans for the traced run.

A span records a call into one layer: name, start, end, the span that
caused it, and the session it served.  Spans are kept in memory and
written as JSON when the run ends.  The untraced run uses a disabled
tracer, whose spans cost one attribute check.

Layers inside the program are reached from the benchmark's own files:
:meth:`Tracer.patched` temporarily wraps a public function or method so
each call records a span, and restores it afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, name, start s, end s, parent span id or -1, session id or -1)
Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(
        self, enabled: bool, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextlib.contextmanager
    def _record(self, name: str, session: int) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            with self._lock:
                self._spans.append((span_id, name, start, end, parent, session))

    def span(self, name: str, session: Optional[int] = None):
        """Context manager timing one call (a no-op when disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, -1 if session is None else session)

    @contextlib.contextmanager
    def patched(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Record a span named ``name`` around every call of
        ``owner.attr`` while the block runs (nothing when disabled)."""
        if not self.enabled:
            yield
            return
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._record(name, -1):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        with self._lock:
            return [s for s in self._spans if name is None or s[1] == name]

    def durations_ms(self, name: str) -> List[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans(name)]

    def self_time_s(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its direct
        children cover (children of one span run on its thread, one at
        a time, so their durations do not overlap)."""
        spans = self.spans()
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _session in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _session in spans:
            totals[name] += (end - start) - child_time[sid]
        return dict(totals)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span plus per-name self time as one JSON file."""
        spans = self.spans()
        payload = {
            "meta": meta,
            "self_time_s": self.self_time_s(),
            "fields": ["id", "name", "start_s", "end_s", "parent", "session"],
            "spans": [list(s) for s in spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
