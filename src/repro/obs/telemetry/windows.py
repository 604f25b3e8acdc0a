"""Windowed time-series: rate/quantile over the last N seconds, exactly.

The registry's :class:`~repro.obs.metrics.Histogram` and
:class:`~repro.obs.metrics.Counter` are cumulative — perfect for
Prometheus scrapes, useless for "what was p95 over the last minute"
without a scraper doing rate math.  The telemetry plane needs those
answers *in process* (the SLO engine's burn windows, the ``/slo``
surface), so :class:`WindowedHistogram` / :class:`WindowedCounter` layer
a ring of per-interval sub-series under the cumulative state:

* every observation updates the cumulative series (so the Prometheus
  export and the ``snapshot()`` protocol are byte-identical to the plain
  metrics) *and* the ring slot covering "now";
* a slot is a fixed-size bucket array (histograms) or a float
  (counters), so a window query merges ``ceil(window/interval)`` slots —
  O(buckets × slots), no per-observation storage, bounded memory;
* slots are recycled lazily: writing into a slot whose epoch has moved
  on resets it, so an idle series costs nothing;
* clocks are injectable (the registry's clock), so every window query is
  deterministic under :class:`~repro.obs.clock.ManualClock`.

Counts are exact per bucket; only the *window edge* is quantised to the
slot interval (a 60 s window over 10 s slots may include up to 9.99 s of
extra history).  That is the standard multi-window trade: the SLO burn
windows (5 m/1 h/6 h) are two orders of magnitude above the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from ..clock import Clock, monotonic
from ..metrics import DEFAULT_BUCKETS, Counter, Histogram

__all__ = ["WindowSnapshot", "WindowedCounter", "WindowedHistogram"]


def _ring_params(interval: float, horizon: float) -> tuple[float, int]:
    if interval <= 0:
        raise ValueError("window interval must be positive")
    if horizon < interval:
        raise ValueError("window horizon must cover at least one interval")
    return float(interval), int(math.ceil(horizon / interval))


@dataclass
class WindowSnapshot:
    """A merged view over one window: mergeable, quantile-queryable."""

    bounds: tuple[float, ...]
    buckets: list[int]
    sum: float = 0.0
    count: int = 0
    seconds: float = 0.0

    def merge(self, other: "WindowSnapshot") -> "WindowSnapshot":
        """Fold another snapshot (same bounds) into this one, in place.

        This is the cross-series / cross-shard fold: exact because the
        buckets are fixed and shared."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge windows with different bounds")
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.sum += other.sum
        self.count += other.count
        self.seconds = max(self.seconds, other.seconds)
        return self

    @property
    def rate(self) -> float:
        """Observations per second over the window."""
        return self.count / self.seconds if self.seconds else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The bucket upper bound at quantile ``q`` (0 < q <= 1).

        Exact at bucket granularity: the smallest bound whose cumulative
        count reaches ``q * count``.  Returns ``inf`` when the quantile
        lands in the overflow bucket, ``0.0`` on an empty window.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for bound, n in zip((*self.bounds, math.inf), self.buckets):
            cumulative += n
            if cumulative >= rank:
                return float(bound)
        return math.inf  # pragma: no cover - buckets always sum to count

    def snapshot(self) -> dict[str, Any]:
        return {
            "seconds": self.seconds,
            "count": self.count,
            "sum": self.sum,
            "rate": self.rate,
            "buckets": list(self.buckets),
        }


class WindowedHistogram(Histogram):
    """A cumulative histogram plus a per-interval ring for window queries.

    Registered via ``registry.windowed_histogram(...)``; exports exactly
    like a plain :class:`Histogram` (the ring never crosses a snapshot or
    the Prometheus text), and additionally answers
    :meth:`window` / :meth:`quantile` over the last N seconds.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        interval: float = 10.0,
        horizon: float = 600.0,
        clock: Clock = monotonic,
    ) -> None:
        super().__init__(name, help, buckets)
        self.interval, self.slots = _ring_params(interval, horizon)
        self.horizon = self.interval * self.slots
        self._clock = clock

    def _new_series(self) -> dict:
        series = super()._new_series()
        series["ring"] = [None] * self.slots
        return series

    def _slot(self, series: dict) -> dict:
        epoch = int(self._clock() // self.interval)
        position = epoch % self.slots
        slot = series["ring"][position]
        if slot is None or slot["epoch"] != epoch:
            slot = series["ring"][position] = {
                "epoch": epoch,
                "buckets": [0] * (len(self.bounds) + 1),
                "sum": 0.0,
                "count": 0,
            }
        return slot

    def _record(self, series: dict, value: float, exemplar: str | None) -> None:
        super()._record(series, value, exemplar)
        slot = self._slot(series)
        slot["buckets"][self._bucket_index(value)] += 1
        slot["sum"] += value
        slot["count"] += 1

    def _export(self, series: dict) -> dict:
        return super()._export(series)  # ring deliberately excluded

    def window(self, seconds: float, **labels: Any) -> WindowSnapshot:
        """Merge every ring slot overlapping the last ``seconds``."""
        horizon = min(float(seconds), self.horizon)
        if horizon <= 0:
            raise ValueError("window seconds must be positive")
        now = self._clock()
        start = now - horizon
        current_epoch = int(now // self.interval)
        merged = WindowSnapshot(
            bounds=self.bounds,
            buckets=[0] * (len(self.bounds) + 1),
            seconds=horizon,
        )
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is not None:
                for slot in series["ring"]:
                    if slot is None or slot["epoch"] > current_epoch:
                        continue
                    if (slot["epoch"] + 1) * self.interval <= start:
                        continue  # entirely before the window
                    for i, n in enumerate(slot["buckets"]):
                        merged.buckets[i] += n
                    merged.sum += slot["sum"]
                    merged.count += slot["count"]
        return merged

    def quantile(self, q: float, seconds: float, **labels: Any) -> float:
        return self.window(seconds, **labels).quantile(q)


class WindowedCounter(Counter):
    """A cumulative counter plus a per-interval ring for rate queries.

    Exports exactly like a plain :class:`Counter`; additionally answers
    :meth:`window_sum` / :meth:`rate` over the last N seconds.  The
    default ring (60 s slots over 6 h) covers the SLO engine's slowest
    burn window.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        interval: float = 60.0,
        horizon: float = 21600.0,
        clock: Clock = monotonic,
    ) -> None:
        super().__init__(name, help)
        self.interval, self.slots = _ring_params(interval, horizon)
        self.horizon = self.interval * self.slots
        self._clock = clock

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        epoch = int(self._clock() // self.interval)
        position = epoch % self.slots
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "total": 0.0,
                    "ring": [None] * self.slots,
                }
            series["total"] += amount
            slot = series["ring"][position]
            if slot is None or slot[0] != epoch:
                slot = series["ring"][position] = [epoch, 0.0]
            slot[1] += amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series["total"] if series else 0.0

    def total(self) -> float:
        with self._lock:
            return sum(s["total"] for s in self._series.values())

    def _export(self, series: dict) -> float:
        return series["total"]

    def _state_value(self, series: dict) -> dict[str, Any]:
        return {"value": float(series["total"])}

    def window_sum(self, seconds: float, **labels: Any) -> float:
        """The amount added over the last ``seconds``."""
        horizon = min(float(seconds), self.horizon)
        if horizon <= 0:
            raise ValueError("window seconds must be positive")
        now = self._clock()
        start = now - horizon
        current_epoch = int(now // self.interval)
        total = 0.0
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is not None:
                for slot in series["ring"]:
                    if slot is None or slot[0] > current_epoch:
                        continue
                    if (slot[0] + 1) * self.interval <= start:
                        continue
                    total += slot[1]
        return total

    def rate(self, seconds: float, **labels: Any) -> float:
        """Increments per second over the last ``seconds``."""
        horizon = min(float(seconds), self.horizon)
        return self.window_sum(horizon, **labels) / horizon if horizon else 0.0
