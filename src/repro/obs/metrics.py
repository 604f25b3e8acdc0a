"""Unified metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per serving component (gateway, cache,
pool) — or one shared across them — replaces the ad-hoc counter dicts
and ``+=`` fields that used to live inside ``CacheStats`` /
``WorkerStats`` / ``GatewayStats``.  Every mutation happens under a
per-metric lock, so the unlocked read-modify-write races the old
hand-rolled counters were prone to (two gateway threads both doing
``counters[name] += 1``) are structurally impossible.

* **Counter** — monotonically increasing float (``_total`` names).
* **Gauge** — a settable level (queue depth, EMA service time).
* **Histogram** — fixed bucket upper bounds, cumulative counts, plus
  ``sum``/``count`` (so averages need no extra metric).

All three support optional labels (``counter.inc(code="ok")``), each
label set tracked as an independent series.  The registry renders a
Prometheus-style text exposition (:meth:`MetricsRegistry.render`) and a
plain-dict :meth:`MetricsRegistry.snapshot`.

The ``snapshot()`` protocol
---------------------------

Every stats object in the package — :class:`MetricsRegistry`,
``CacheStats``, ``WorkerStats``, ``GatewayStats``, and the components
that produce them — exposes ``snapshot() -> dict`` with plain-data
values, so exporters and tests can treat them uniformly
(:class:`SupportsSnapshot`, :func:`snapshot_of`).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from .clock import Clock, monotonic

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SupportsSnapshot",
    "escape_label_value",
    "snapshot_of",
]

# Latency buckets in seconds: 100 us .. 10 s, roughly logarithmic.  The
# paper's interactivity budget (§5: ~10 ms per translation in C#, ~10x
# that in Python) sits comfortably mid-range.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping.

    The exposition format requires backslash, double-quote, and newline
    escaped inside quoted label values; everything else passes through.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Shared machinery: name, help text, per-metric lock, label series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[_LabelKey, Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> _LabelKey:
        return _label_key(labels)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            series = {k: self._export(v) for k, v in self._series.items()}
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "series": series,
        }

    def state(self) -> dict[str, Any]:
        """The federation-facing structured view of this metric.

        Unlike :meth:`snapshot` (whose series keys are pre-rendered
        Prometheus label strings), ``state()`` keeps labels as plain
        mappings so merged views can be rebuilt and re-rendered
        (:mod:`repro.obs.telemetry.federation`).  JSON-safe by
        construction.
        """
        with self._lock:
            series = [
                {"labels": dict(k), **self._state_value(v)}
                for k, v in self._series.items()
            ]
        out = {"kind": self.kind, "help": self.help, "series": series}
        out.update(self._state_extra())
        return out

    def _export(self, value: Any) -> Any:
        return value

    def _state_value(self, value: Any) -> dict[str, Any]:
        return {"value": float(self._export(value))}

    def _state_extra(self) -> dict[str, Any]:
        return {}


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0.0)

    def total(self) -> float:
        """The sum across every label set."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A settable level per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0.0)


class Histogram(_Metric):
    """Fixed-bucket histogram with ``sum`` and ``count`` per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(set(float(b) for b in buckets)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds

    def observe(
        self, value: float, exemplar: str | None = None, **labels: Any
    ) -> None:
        """Record one observation; ``exemplar`` (a trace id) is retained
        per bucket and emitted OpenMetrics-style in the text export, so a
        scraped latency bucket links back to a concrete trace."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._new_series()
            self._record(series, float(value), exemplar)

    def _new_series(self) -> dict:
        return {
            "buckets": [0] * (len(self.bounds) + 1),
            "sum": 0.0,
            "count": 0,
        }

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)  # +Inf

    def _record(self, series: dict, value: float, exemplar: str | None) -> None:
        index = self._bucket_index(value)
        series["buckets"][index] += 1
        series["sum"] += value
        series["count"] += 1
        if exemplar:
            series.setdefault("exemplars", {})[index] = {
                "trace_id": str(exemplar),
                "value": value,
            }

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series["count"] if series else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series["sum"] if series else 0.0

    def mean(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            if not series or not series["count"]:
                return 0.0
            return series["sum"] / series["count"]

    def _export(self, series: dict) -> dict:
        out = {
            "buckets": list(series["buckets"]),
            "sum": series["sum"],
            "count": series["count"],
        }
        exemplars = series.get("exemplars")
        if exemplars:
            out["exemplars"] = {
                int(i): dict(e) for i, e in exemplars.items()
            }
        return out

    def _state_value(self, series: dict) -> dict[str, Any]:
        return self._export(series)

    def _state_extra(self) -> dict[str, Any]:
        return {"bounds": list(self.bounds)}


class _Timer:
    """Context manager feeding one histogram observation."""

    __slots__ = ("_histogram", "_clock", "_labels", "_start", "seconds")

    def __init__(self, histogram: Histogram, clock: Clock, labels: dict) -> None:
        self._histogram = histogram
        self._clock = clock
        self._labels = labels
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self._clock() - self._start
        self._histogram.observe(self.seconds, **self._labels)


class MetricsRegistry:
    """A named collection of metrics with one creation lock.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name returns the same object; re-registering a
    name as a different kind raises.
    """

    def __init__(self, clock: Clock = monotonic) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def windowed_counter(
        self,
        name: str,
        help: str = "",
        interval: float = 60.0,
        horizon: float = 21600.0,
    ) -> "Any":
        """A counter that additionally answers rate-over-last-N-seconds
        queries (:class:`repro.obs.telemetry.WindowedCounter`).  Exports
        exactly like a plain counter; the ring is query-side only."""
        from .telemetry.windows import WindowedCounter

        return self._get(
            WindowedCounter, name, help,
            interval=interval, horizon=horizon, clock=self.clock,
        )

    def windowed_histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        interval: float = 10.0,
        horizon: float = 600.0,
    ) -> "Any":
        """A histogram that additionally answers quantile-over-last-N-
        seconds queries (:class:`repro.obs.telemetry.WindowedHistogram`)."""
        from .telemetry.windows import WindowedHistogram

        return self._get(
            WindowedHistogram, name, help, buckets=buckets,
            interval=interval, horizon=horizon, clock=self.clock,
        )

    def timer(self, name: str, help: str = "", **labels: Any) -> _Timer:
        """``with registry.timer("stage_seconds"): ...`` → one observation."""
        return _Timer(self.histogram(name, help), self.clock, labels)

    # -- the snapshot() protocol ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every metric's current state as plain data (JSON-safe)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, Any] = {}
        for metric in metrics:
            snap = metric.snapshot()
            out[metric.name] = {
                "kind": snap["kind"],
                "help": snap["help"],
                "series": {
                    _render_labels(k) or "": v
                    for k, v in snap["series"].items()
                },
            }
        return out

    def export_state(self) -> dict[str, Any]:
        """Every metric's :meth:`_Metric.state` keyed by name.

        The structured form the telemetry plane federates: JSON-safe,
        merge-able (:func:`repro.obs.telemetry.merge_states`), and
        renderable back to Prometheus text
        (:func:`repro.obs.export.render_prometheus`)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.state() for metric in metrics}

    def render(self) -> str:
        """Prometheus-style text exposition of every metric."""
        from .export import render_prometheus

        return render_prometheus(self.export_state())


@runtime_checkable
class SupportsSnapshot(Protocol):
    """Anything observable: returns its state as a plain mapping."""

    def snapshot(self) -> Mapping[str, Any]:  # pragma: no cover - protocol
        ...


def snapshot_of(obj: Any) -> dict[str, Any]:
    """Normalise any stats object to a plain dict.

    Prefers the object's own ``snapshot()``; falls back to dataclass
    fields (recursively snapshotting values that support the protocol).
    """
    if isinstance(obj, SupportsSnapshot) and not dataclasses.is_dataclass(obj):
        return dict(obj.snapshot())
    if hasattr(obj, "snapshot") and callable(obj.snapshot):
        return dict(obj.snapshot())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if hasattr(value, "snapshot"):
                value = snapshot_of(value)
            elif isinstance(value, list):
                value = [
                    snapshot_of(v) if hasattr(v, "snapshot") else v
                    for v in value
                ]
            out[field.name] = value
        return out
    raise TypeError(f"{type(obj).__name__} has no snapshot() and is not a dataclass")
