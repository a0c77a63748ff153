"""The benchmark's statistics: percentiles, tail support, IQR, pacing."""

import statistics

import numpy as np
import pytest

from perfbench.stats import (
    Pacer,
    highest_supported_percentile,
    iqr_spread,
    percentile,
    tail,
)


@pytest.mark.parametrize("q", [0, 10, 50, 90, 95, 99, 100])
def test_percentile_matches_numpy(q):
    samples = list(np.random.default_rng(3).exponential(size=37))
    assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (200, 95.0), (1000, 99.0), (100, 90.0), (20, 50.0), (10, 0.0), (3, 0.0),
])
def test_highest_supported_percentile_leaves_ten_beyond(n, expected):
    p = highest_supported_percentile(n)
    assert p == pytest.approx(expected)
    if p:
        assert n * (1 - p / 100) >= 10 - 1e-9


def test_tail_refuses_a_thin_tail():
    assert tail(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))
    with pytest.raises(ValueError, match="needs 200 samples"):
        tail(list(range(199)), 95)


def test_iqr_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert iqr_spread(values) == pytest.approx((q3 - q1) / median)
    assert iqr_spread([5.0, 5.0, 5.0]) == 0.0


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_pacer_waits_for_due_time_and_is_never_early():
    clock = _FakeClock()
    pacer = Pacer(clock=clock, sleep=clock.sleep)
    assert pacer.wait(0.5) == 0.0
    assert clock.now == pytest.approx(100.5)


def test_due_time_latency_charges_a_stall_to_later_operations():
    clock = _FakeClock()
    pacer = Pacer(clock=clock, sleep=clock.sleep)
    # The system stalls 2 s while the operation due at 0.1 s waits.
    clock.now += 2.0
    late = pacer.wait(0.1)
    assert late == pytest.approx(1.9)
    clock.now += 0.05  # the operation itself takes 50 ms once sent
    # Timed from its due time, not from when it was finally sent.
    assert pacer.latency(0.1, clock.now) == pytest.approx(1.95)
