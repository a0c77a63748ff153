"""Property tests: the replayer's precomputed LRU schedule against the
simulator's :class:`~repro.accel.cache.Cache`.

:func:`repro.accel.replay.lru_schedule` runs a cache's tag store once,
ahead of any timing; the replay then only looks its answers up.  These
tests pin it to the cache model the monolithic simulator uses, on random
line streams over direct-mapped, single-set and set-associative
geometries, including long runs of one line.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.accel import Cache, MemoryController, Region
from repro.accel.config import CacheConfig
from repro.accel.replay import lru_schedule

LINE = 64

#: (num_sets, assoc): direct-mapped, fully associative single sets, and
#: everything between.
geometries = st.tuples(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4]))

#: Runs of (line id, repeat count), so long runs of one line are common.
runs = st.lists(
    st.tuples(st.integers(0, 15), st.integers(1, 12)), min_size=1, max_size=80
)


def expand(line_runs):
    return [line for line, count in line_runs for _ in range(count)]


def simulate(lines, num_sets, assoc):
    """Per-access hits of the simulator's cache on an all-write stream,
    its miss count and its write-backs (dirty evictions + final flush)."""
    config = CacheConfig(num_sets * assoc * LINE, assoc, line_bytes=LINE)
    cache = Cache(config, MemoryController(), Region.TOKENS)
    hits = []
    for t, line in enumerate(lines):
        _done, hit = cache.access(t, line * LINE, write=True)
        hits.append(hit)
    evicted = cache.stats.writebacks
    flushed = cache.flush_dirty(len(lines))
    return hits, cache.stats.misses, evicted + flushed


@settings(max_examples=120, deadline=None)
@given(runs, geometries)
@example([(0, 1), (1, 1)] * 20, (1, 1))      # one-way, one set: thrash
@example([(7, 500)], (1, 1))                   # one line, a long run
@example([(i % 5, 3) for i in range(30)], (1, 4))  # LRU cycling past assoc
def test_schedule_matches_cache(line_runs, geometry):
    num_sets, assoc = geometry
    lines = expand(line_runs)
    src = lru_schedule(np.array(lines, dtype=np.int64), num_sets, assoc)
    hits, misses, writebacks = simulate(lines, num_sets, assoc)

    assert src.dtype == np.int32
    assert (src >= 0).tolist() == hits
    assert int(np.count_nonzero(src < 0)) == misses
    # Every line a write allocates is written back exactly once.
    assert writebacks == misses


@settings(max_examples=120, deadline=None)
@given(runs, geometries)
@example([(0, 1), (1, 1), (0, 1), (2, 1), (0, 2)], (1, 4))  # hit after hit
def test_hits_name_the_fill_of_their_line(line_runs, geometry):
    """A hit's ordinal is the latest miss of the same line before it."""
    num_sets, assoc = geometry
    lines = expand(line_runs)
    src = lru_schedule(np.array(lines, dtype=np.int64), num_sets, assoc)
    last_fill = {}
    ordinal = 0
    for line, s in zip(lines, src.tolist()):
        if s < 0:
            last_fill[line] = ordinal
            ordinal += 1
        else:
            assert s == last_fill[line]


def test_empty_stream():
    assert len(lru_schedule(np.empty(0, dtype=np.int64), 4, 2)) == 0
