"""Federation: merging registry states into one view."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import merge_states


def _seed(registry):
    registry.counter("requests_total").inc(3, code="ok")
    registry.gauge("depth").set(7)
    h = registry.histogram("seconds", buckets=(0.1, 1.0))
    h.observe(0.05, exemplar="t-1")
    h.observe(0.5)
    return registry


# -- merge ---------------------------------------------------------------------------


def test_merge_sums_matching_label_sets():
    a = _seed(MetricsRegistry()).export_state()
    b = _seed(MetricsRegistry()).export_state()
    merged = merge_states(a, b)
    assert merged["requests_total"]["series"][0]["value"] == 6.0
    histogram = merged["seconds"]["series"][0]
    assert histogram["count"] == 4
    assert histogram["buckets"] == [2, 2, 0]


def test_merge_keeps_distinct_label_sets_apart():
    a = MetricsRegistry()
    a.counter("c").inc(1, shard="0")
    b = MetricsRegistry()
    b.counter("c").inc(2, shard="1")
    merged = merge_states(a.export_state(), b.export_state())
    assert [
        (s["labels"]["shard"], s["value"])
        for s in merged["c"]["series"]
    ] == [("0", 1.0), ("1", 2.0)]


def test_merge_rejects_kind_conflict():
    a = MetricsRegistry()
    a.counter("m").inc()
    b = MetricsRegistry()
    b.gauge("m").set(1)
    with pytest.raises(ValueError):
        merge_states(a.export_state(), b.export_state())


def test_merge_rejects_bounds_conflict():
    a = MetricsRegistry()
    a.histogram("m", buckets=(0.1,)).observe(0.05)
    b = MetricsRegistry()
    b.histogram("m", buckets=(0.2,)).observe(0.05)
    with pytest.raises(ValueError):
        merge_states(a.export_state(), b.export_state())


def test_merge_renders_as_prometheus():
    from repro.obs.export import render_prometheus

    merged = merge_states(
        _seed(MetricsRegistry()).export_state(),
        _seed(MetricsRegistry()).export_state(),
    )
    text = render_prometheus(merged)
    assert 'requests_total{code="ok"} 6' in text
    assert 'seconds_bucket{le="+Inf"} 4' in text
