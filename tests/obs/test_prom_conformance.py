"""Prometheus exposition conformance: escaping, sanitisation, invariants.

Two layers under test: :func:`repro.obs.export.render_prometheus` (the
single renderer behind ``render()``, ``GET /metrics``, and the federated
cluster view) and ``scripts/check_prom.py`` (the promtool-style linter
CI runs over live server output).  The renderer's output must lint
clean; the linter must catch the breakages the renderer prevents.
"""

from __future__ import annotations

import pytest

from repro.obs.export import (
    render_prometheus,
    sanitize_label_name,
    sanitize_metric_name,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import merge_states

from ..conftest import load_check_prom

check_prom = load_check_prom()


def render_registry(registry):
    return render_prometheus(registry.export_state())


# -- name and label sanitisation -----------------------------------------------------


def test_metric_name_sanitisation():
    assert sanitize_metric_name("requests_total") == "requests_total"
    assert sanitize_metric_name("beam:stage_seconds") == "beam:stage_seconds"
    assert sanitize_metric_name("my.metric-name") == "my_metric_name"
    assert sanitize_metric_name("2fast") == "_2fast"
    assert sanitize_metric_name("") == "_"


def test_label_name_sanitisation():
    assert sanitize_label_name("code") == "code"
    assert sanitize_label_name("http.status") == "http_status"
    assert sanitize_label_name("le:gacy") == "le_gacy"
    assert sanitize_label_name("9lives") == "_9lives"


def test_label_value_escaping_roundtrips_the_linter():
    registry = MetricsRegistry()
    registry.counter("c").inc(code='quote " backslash \\ newline \n end')
    text = render_registry(registry)
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    assert check_prom.lint(text) == []


def test_weird_metric_and_label_names_render_lintable():
    registry = MetricsRegistry()
    registry.counter("span.seconds-by-name").inc(**{"span_name": "a b"})
    text = render_registry(registry)
    assert "span_seconds_by_name" in text
    assert check_prom.lint(text) == []


# -- histogram invariants ------------------------------------------------------------


def test_histogram_renders_cumulative_with_inf():
    registry = MetricsRegistry()
    h = registry.histogram("seconds", buckets=(0.1, 1.0))
    for v in (0.05, 0.05, 0.5, 3.0):
        h.observe(v)
    text = render_registry(registry)
    assert 'seconds_bucket{le="0.1"} 2' in text
    assert 'seconds_bucket{le="1.0"} 3' in text
    assert 'seconds_bucket{le="+Inf"} 4' in text
    assert "seconds_count 4" in text
    assert "seconds_sum 3.6" in text
    assert check_prom.lint(text) == []


def test_exemplars_only_on_bucket_lines():
    registry = MetricsRegistry()
    registry.histogram("seconds", buckets=(0.1,)).observe(
        0.05, exemplar="trace-1"
    )
    text = render_registry(registry)
    bucket_lines = [l for l in text.splitlines() if "# {" in l]
    assert bucket_lines and all("_bucket" in l for l in bucket_lines)
    assert 'trace_id="trace-1"' in bucket_lines[0]
    assert check_prom.lint(text) == []


def test_federated_merge_lints_clean():
    shards = []
    for shard in range(3):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(2, shard=str(shard))
        registry.histogram("seconds", buckets=(0.1, 1.0)).observe(
            0.05, exemplar=f"t-{shard}"
        )
        shards.append(registry.export_state())
    text = render_prometheus(merge_states(*shards))
    assert check_prom.lint(text) == []


def test_full_telemetry_surface_lints_clean():
    """The hub's whole metric family — windowed series, SLO events,
    sampler accounting — renders a clean exposition."""
    from repro.obs.telemetry import TelemetryHub

    class Result:
        ok = True
        error_code = None
        tier = "full"
        total_seconds = 0.02
        degraded = anytime = cached = False
        elapsed = 0.02
        queue_seconds = 0.001
        worker_id = 1
        fingerprint = "f" * 12

    hub = TelemetryHub(metrics=MetricsRegistry(), scope="gateway")
    for i in range(20):
        hub.observe(Result(), trace_id=f"t-{i}")
    text = render_prometheus(hub.metrics.export_state())
    assert "telemetry_requests_total" in text
    assert "slo_events_total" in text
    assert check_prom.lint(text) == []


# -- the linter catches what the renderer prevents -----------------------------------


@pytest.mark.parametrize(
    "text,needle",
    [
        ("# TYPE c counter\nc{bad-name=\"x\"} 1\n", "malformed label set"),
        ("# TYPE c counter\nc 1\nc 2\n", "duplicate sample"),
        ("c 1\n", "before any TYPE"),
        ("# TYPE c counter\nc notanumber\n", "bad sample value"),
        ("# TYPE c counter\n# TYPE c gauge\nc 1\n", "duplicate TYPE"),
        ("# TYPE c widget\nc 1\n", "unknown type"),
        (
            '# TYPE c counter\nc{v="unterminated\\q"} 1\n',
            "bad escape",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\nh_sum 0.05\nh_count 1\n',
            'no le="+Inf"',
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_sum 0.1\nh_count 3\n",
            "not cumulative",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\nh_sum 0.1\nh_count 9\n',
            "_count 9",
        ),
        (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\nh_count 3\n',
            "missing _sum",
        ),
        (
            "# TYPE c counter\nc 1 # {trace_id=\"t\"} 1\n",
            "exemplar on non-bucket",
        ),
    ],
)
def test_linter_catches(text, needle):
    errors = check_prom.lint(text)
    assert any(needle in error for error in errors), errors


def test_linter_accepts_clean_document():
    text = (
        "# HELP requests_total requests\n"
        "# TYPE requests_total counter\n"
        'requests_total{code="ok"} 5\n'
        "# TYPE seconds histogram\n"
        'seconds_bucket{le="0.1"} 2 # {trace_id="t-1"} 0.05\n'
        'seconds_bucket{le="+Inf"} 2\n'
        "seconds_sum 0.1\n"
        "seconds_count 2\n"
    )
    assert check_prom.lint(text) == []
