"""The TelemetryHub: one always-on observation point per serving scope.

The gateway, each cluster shard, and the cluster front end each own a
hub.  :meth:`TelemetryHub.observe` classifies one finished request into
the windowed request counter/latency histogram (with the trace id as the
bucket exemplar), the SLO engine, and the tail sampler.  It **never
raises**: telemetry is always on, so a telemetry bug must degrade to a
dropped observation, not a failed request.

``scope`` labels every series the hub writes (``scope="gateway"`` on
shards, ``scope="cluster"`` on the front end), so the federated merge
(:func:`repro.obs.telemetry.merge_states`) sums like with like and a
request observed by both a shard and the cluster never double-counts
within one label set.
"""

from __future__ import annotations

import logging
from typing import Any, Iterable, Mapping

from ..clock import Clock, monotonic
from ..metrics import MetricsRegistry
from .sampler import TailSampler
from .slo import SloEngine, SloSpec, default_slos

__all__ = ["TelemetryHub"]

log = logging.getLogger("repro.obs.telemetry")

# Request latency buckets: 1 ms .. 30 s — serving-side (queue + worker),
# wider than the translator's internal DEFAULT_BUCKETS.  The gateway's
# worker_translate_seconds uses them too.
REQUEST_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class TelemetryHub:
    """Always-on per-scope telemetry: windows + SLOs + tail sampling."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        scope: str = "gateway",
        specs: Iterable[SloSpec] | None = None,
        deadline: float | None = None,
        slow_threshold: float | None = None,
        sampler: TailSampler | None = None,
        interval: float = 60.0,
    ) -> None:
        self.scope = scope
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            clock=clock or monotonic
        )
        clock = clock or self.metrics.clock
        # The latency objective tracks the configured deadline when one
        # exists; otherwise a half-second interactive bar.
        threshold = deadline if deadline else 0.5
        self.engine = SloEngine(
            specs if specs is not None else default_slos(threshold),
            metrics=self.metrics,
            clock=clock,
            scope=scope,
            interval=interval,
        )
        self.sampler = sampler if sampler is not None else TailSampler(
            slow_threshold=(
                slow_threshold if slow_threshold is not None else threshold * 2
            ),
            clock=clock,
            metrics=self.metrics,
        )
        self._requests = self.metrics.windowed_counter(
            "telemetry_requests_total",
            "finished requests by outcome code",
            interval=interval,
        )
        self._latency = self.metrics.windowed_histogram(
            "telemetry_request_seconds",
            "end-to-end request seconds by outcome code",
            buckets=REQUEST_BUCKETS,
        )

    # -- write side ----------------------------------------------------------------

    def observe(self, result: Any, *, trace_id: str | None = None) -> None:
        """Record one finished request (a ``GatewayResult``-shaped object).

        Never raises — see the module docstring.
        """
        try:
            code = getattr(result, "error_code", None) or "ok"
            ok = bool(getattr(result, "ok", False))
            seconds = float(getattr(result, "total_seconds", 0.0) or 0.0)
            tier = getattr(result, "tier", None)
            self._requests.inc(scope=self.scope, code=code)
            self._latency.observe(
                seconds, exemplar=trace_id, scope=self.scope, code=code
            )
            self.engine.record(
                ok=ok,
                error_code=None if ok else code,
                tier=tier,
                seconds=seconds,
                shed=code == "shed_overload",
            )
            if trace_id:
                verdict = self.sampler.classify(
                    ok, None if ok else code, seconds
                )
                self.sampler.offer(
                    trace_id, verdict, self._trace_record(result, seconds)
                )
        except Exception:  # pragma: no cover - defensive: see docstring
            log.exception("telemetry observe failed; observation dropped")

    @staticmethod
    def _trace_record(result: Any, seconds: float) -> dict[str, Any]:
        record: dict[str, Any] = {"total_seconds": seconds}
        for name in (
            "error_code", "tier", "elapsed", "queue_seconds",
            "worker_id", "fingerprint", "cached", "degraded", "anytime",
        ):
            value = getattr(result, name, None)
            if value is not None and value is not False:
                record[name] = value
        return record

    # -- read side -----------------------------------------------------------------

    def slo_report(self) -> dict[str, Any]:
        """The ``/slo`` document: SLO engine report plus live traffic
        summary and sampler accounting."""
        report = self.engine.report()
        window = self._latency.window(60.0, scope=self.scope, code="ok")
        p95 = window.quantile(0.95)
        report["traffic"] = {
            "window_seconds": 60.0,
            "requests": window.count,
            "rps": window.rate,
            "p95_seconds": None if p95 == float("inf") else p95,
        }
        report["sampler"] = self.sampler.stats()
        return report

    def snapshot(self) -> Mapping[str, Any]:
        return self.slo_report()
