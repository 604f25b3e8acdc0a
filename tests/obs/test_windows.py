"""Windowed time-series: ring slots, window math, quantiles, expiry."""

from __future__ import annotations

import math

import pytest

from repro.obs.clock import ManualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import WindowedCounter, WindowedHistogram
from repro.obs.telemetry.windows import WindowSnapshot, _ring_params


@pytest.fixture
def clock():
    return ManualClock(start=1000.0)


@pytest.fixture
def registry(clock):
    return MetricsRegistry(clock=clock)


# -- ring parameters -----------------------------------------------------------------


def test_ring_params_round_up_to_whole_slots():
    assert _ring_params(10.0, 600.0) == (10.0, 60)
    assert _ring_params(10.0, 601.0) == (10.0, 61)


def test_ring_params_reject_bad_shapes():
    with pytest.raises(ValueError):
        _ring_params(0.0, 60.0)
    with pytest.raises(ValueError):
        _ring_params(10.0, 5.0)


# -- windowed histogram --------------------------------------------------------------


def test_window_covers_recent_observations(clock):
    h = WindowedHistogram(
        "h", buckets=(0.1, 1.0), interval=10.0, horizon=60.0, clock=clock
    )
    h.observe(0.05)
    h.observe(0.5)
    clock.advance(15.0)
    h.observe(2.0)
    window = h.window(60.0)
    assert window.count == 3
    assert window.sum == pytest.approx(2.55)
    assert window.buckets == [1, 1, 1]


def test_window_excludes_expired_slots(clock):
    h = WindowedHistogram(
        "h", buckets=(0.1, 1.0), interval=10.0, horizon=600.0, clock=clock
    )
    h.observe(0.05)
    clock.advance(120.0)
    h.observe(0.5)
    # 30 s window: only the second observation is inside.
    assert h.window(30.0).count == 1
    # The full horizon still sees both.
    assert h.window(600.0).count == 2


def test_ring_recycles_old_slots_in_place(clock):
    h = WindowedHistogram(
        "h", buckets=(1.0,), interval=10.0, horizon=30.0, clock=clock
    )
    h.observe(0.5)
    # One whole lap later the same position is recycled, not accumulated.
    clock.advance(30.0)
    h.observe(0.5)
    assert h.window(30.0).count == 1


def test_window_is_per_label_series(clock):
    h = WindowedHistogram("h", interval=10.0, horizon=60.0, clock=clock)
    h.observe(0.1, code="ok")
    h.observe(0.1, code="err")
    h.observe(0.1, code="err")
    assert h.window(60.0, code="ok").count == 1
    assert h.window(60.0, code="err").count == 2
    assert h.window(60.0, code="missing").count == 0


def test_cumulative_export_unchanged_by_ring(registry, clock):
    """The ring never leaks into snapshot()/render(): a windowed
    histogram is byte-identical to a plain one on the export side."""
    h = registry.windowed_histogram("h", buckets=(0.1, 1.0))
    plain = MetricsRegistry(clock=ManualClock(start=1000.0))
    p = plain.histogram("h", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 3.0):
        h.observe(value)
        p.observe(value)
    assert registry.render() == plain.render()
    assert registry.export_state() == plain.export_state()


def test_windowed_histogram_registers_as_histogram(registry):
    h = registry.windowed_histogram("h")
    # get-or-create through the plain accessor returns the same object:
    # isinstance(WindowedHistogram, Histogram) holds.
    assert registry.histogram("h") is h


def test_quantile_over_window(clock):
    h = WindowedHistogram(
        "h", buckets=(0.1, 0.5, 1.0), interval=10.0, horizon=60.0, clock=clock
    )
    for _ in range(95):
        h.observe(0.05)
    for _ in range(5):
        h.observe(0.7)
    assert h.quantile(0.5, 60.0) == pytest.approx(0.1)
    assert h.quantile(0.95, 60.0) == pytest.approx(0.1)
    assert h.quantile(0.99, 60.0) == pytest.approx(1.0)


def test_quantile_overflow_bucket_is_inf(clock):
    h = WindowedHistogram(
        "h", buckets=(0.1,), interval=10.0, horizon=60.0, clock=clock
    )
    h.observe(5.0)
    assert h.quantile(0.95, 60.0) == math.inf


# -- window snapshot -----------------------------------------------------------------


def test_snapshot_merge_requires_matching_bounds():
    a = WindowSnapshot(bounds=(0.1,), buckets=[1, 0], seconds=60.0)
    b = WindowSnapshot(bounds=(0.2,), buckets=[0, 1], seconds=60.0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_snapshot_merge_adds_and_rate():
    a = WindowSnapshot(
        bounds=(0.1,), buckets=[3, 0], sum=0.15, count=3, seconds=60.0
    )
    b = WindowSnapshot(
        bounds=(0.1,), buckets=[0, 2], sum=4.0, count=2, seconds=60.0
    )
    a.merge(b)
    assert a.count == 5 and a.buckets == [3, 2]
    assert a.rate == pytest.approx(5 / 60.0)
    assert a.mean == pytest.approx(4.15 / 5)


def test_empty_snapshot_quantile_and_rate():
    empty = WindowSnapshot(bounds=(0.1,), buckets=[0, 0])
    assert empty.quantile(0.95) == 0.0
    assert empty.rate == 0.0


def test_quantile_rejects_out_of_range():
    snap = WindowSnapshot(bounds=(0.1,), buckets=[1, 0], count=1)
    with pytest.raises(ValueError):
        snap.quantile(0.0)
    with pytest.raises(ValueError):
        snap.quantile(1.5)


# -- windowed counter ----------------------------------------------------------------


def test_counter_window_sum_and_rate(clock):
    c = WindowedCounter("c", interval=60.0, horizon=3600.0, clock=clock)
    c.inc(5, code="ok")
    clock.advance(120.0)
    c.inc(1, code="ok")
    assert c.value(code="ok") == 6
    assert c.window_sum(60.0, code="ok") == 1
    assert c.window_sum(3600.0, code="ok") == 6
    assert c.rate(60.0, code="ok") == pytest.approx(1 / 60.0)


def test_counter_window_expires(clock):
    c = WindowedCounter("c", interval=60.0, horizon=300.0, clock=clock)
    c.inc(10)
    clock.advance(400.0)
    assert c.window_sum(300.0) == 0
    assert c.value() == 10  # cumulative value never expires


def test_counter_rejects_negative(clock):
    c = WindowedCounter("c", clock=clock)
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_export_matches_plain(clock):
    registry = MetricsRegistry(clock=clock)
    c = registry.windowed_counter("c")
    c.inc(3, code="ok")
    plain = MetricsRegistry()
    plain.counter("c").inc(3, code="ok")
    assert registry.render() == plain.render()
    assert registry.export_state() == plain.export_state()
