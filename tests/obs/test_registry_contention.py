"""Registry and telemetry under thread contention.

The gateway records worker series and observes requests from its
dispatcher threads while ``/metrics`` and ``/slo`` render from the HTTP
loop — all against one registry.  These tests hammer that combination
from 16 threads and assert nothing is lost, torn, or deadlocked.
"""

from __future__ import annotations

import threading

from repro.obs.clock import ManualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryHub

THREADS = 16
PER_THREAD = 500


class _OkResult:
    ok = True
    error_code = None
    tier = "full"
    total_seconds = 0.01
    degraded = anytime = cached = False
    elapsed = 0.01
    queue_seconds = 0.0
    worker_id = 0
    fingerprint = "f" * 12


def run_all(workers):
    threads = [threading.Thread(target=fn) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive(), "worker deadlocked"


def test_counter_and_windowed_counter_under_contention():
    registry = MetricsRegistry()
    plain = registry.counter("plain_total")
    windowed = registry.windowed_counter("windowed_total")

    def worker():
        for i in range(PER_THREAD):
            plain.inc(code="ok")
            windowed.inc(code="ok")

    run_all([worker] * THREADS)
    expected = THREADS * PER_THREAD
    assert plain.value(code="ok") == expected
    assert windowed.value(code="ok") == expected
    assert windowed.window_sum(3600.0, code="ok") == expected


def test_windowed_histogram_under_contention():
    registry = MetricsRegistry()
    histogram = registry.windowed_histogram(
        "seconds", buckets=(0.1, 1.0), interval=10.0, horizon=600.0
    )

    def worker(seed):
        def run():
            for i in range(PER_THREAD):
                histogram.observe(
                    0.05 if (seed + i) % 2 else 0.5,
                    exemplar=f"t-{seed}-{i}",
                    code="ok",
                )
        return run

    run_all([worker(s) for s in range(THREADS)])
    expected = THREADS * PER_THREAD
    assert histogram.count(code="ok") == expected
    window = histogram.window(600.0, code="ok")
    assert window.count == expected
    assert sum(window.buckets) == expected


def test_export_during_record_race():
    """Readers rendering and exporting while writers record and observe:
    every exported histogram series is whole (its count equals its
    bucket total), and the final totals are exact."""
    registry = MetricsRegistry()
    hub = TelemetryHub(metrics=registry, scope="gateway")
    requests = registry.counter("worker_requests_total")
    seconds = registry.histogram("worker_translate_seconds", buckets=(0.1, 1.0))
    stop = threading.Event()
    exports: list[int] = []
    torn: list[str] = []

    def writer():
        for i in range(PER_THREAD):
            requests.inc(worker="0", code="ok")
            seconds.observe(0.05 if i % 2 else 0.5, worker="0", tier="full")
            hub.observe(_OkResult())

    def reader():
        while not stop.is_set():
            registry.render()
            for name, metric in registry.export_state().items():
                if metric["kind"] != "histogram":
                    continue
                for series in metric["series"]:
                    if series["count"] != sum(series["buckets"]):
                        torn.append(name)
            hub.slo_report()
            exports.append(1)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for t in readers:
        t.start()
    run_all([writer] * 4)
    stop.set()
    for t in readers:
        t.join(30)
        assert not t.is_alive(), "reader deadlocked"

    assert exports, "no reader exported while the writers ran"
    assert not torn, f"torn histogram series in {sorted(set(torn))}"
    assert requests.value(worker="0", code="ok") == 4 * PER_THREAD
    assert seconds.count(worker="0", tier="full") == 4 * PER_THREAD
    assert hub.metrics.counter("telemetry_requests_total").value(
        scope="gateway", code="ok"
    ) == 4 * PER_THREAD


def test_hub_observe_under_contention():
    clock = ManualClock(start=0.0, tick=0.0001)
    hub = TelemetryHub(
        metrics=MetricsRegistry(clock=clock), scope="gateway"
    )

    def worker(seed):
        def run():
            for i in range(PER_THREAD):
                hub.observe(_OkResult(), trace_id=f"t-{seed}-{i}")
        return run

    run_all([worker(s) for s in range(THREADS)])
    expected = THREADS * PER_THREAD
    counter = hub.metrics.counter("telemetry_requests_total")
    assert counter.value(scope="gateway", code="ok") == expected
    report = hub.slo_report()
    availability = next(
        s for s in report["slos"] if s["name"] == "availability"
    )
    assert availability["windows"]["6h"]["good"] == expected
