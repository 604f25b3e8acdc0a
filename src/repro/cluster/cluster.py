"""The sharded gateway cluster: route → serve → (maybe) fail over.

:class:`ShardedCluster` is the horizontal-scale front end over N
:class:`~repro.serve.TranslationGateway` shards.  One request flows:

1. **Front cache** — a hit under the ``(sentence, fingerprint, options)``
   key in the cluster's :class:`~repro.cache.ResultCache` resolves
   immediately; no shard is touched.  The cache sits in front of routing,
   so a result computed by *any* shard answers repeats bound for *every*
   shard, including after the shard that computed it has died.
2. **Routing** — rendezvous hashing on ``Workbook.fingerprint()``
   (:mod:`repro.cluster.router`) picks the home shard among the live set
   (:mod:`repro.cluster.health`).  Same fingerprint, same shard: the
   shard's warm workers, translator caches, and circuit-breaker state all
   stay local and hot.  A request whose home shard is down lands on its
   next rendezvous choice and is counted ``rerouted``.
3. **Failover** — a shard-level failure (``worker_crashed``,
   ``worker_timeout``, ``circuit_open``, ``gateway_closed``) triggers a
   retry on the next-ranked live shard after exponential backoff with
   jitter.  Retries are event-driven (no thread per request): the
   attempt's :class:`~repro.serve.PendingResult` callback schedules the
   next attempt.  *Service*-level outcomes (``deadline_exhausted``,
   ``empty_description``, ...) are answers, not failures — they never
   retry, so the cluster returns byte-identical results to a single
   gateway.

The invariant the chaos suite asserts is the gateway's, lifted one level:
**every submitted request resolves to exactly one coded result, exactly
once** — across whole-shard SIGKILLs, reroutes, retries, and shutdown.
Zero lost, zero duplicated.

Cluster-level error codes (on top of the gateway/service codes that pass
through unchanged):

* ``shard_down`` — no live shard was available to try (every shard dead
  or every candidate exhausted);
* ``cluster_closed`` — the request was submitted, or its retry came due,
  after :meth:`ShardedCluster.close`;
* failed-over requests carry ``rerouted``/``attempts`` diagnostics on the
  result rather than an error code — a successful failover is a success.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Callable, Iterable

from ..cache import (
    CacheKey,
    CacheStats,
    ResultCache,
    normalise_sentence,
    options_signature,
)
from ..obs.clock import Clock, monotonic
from ..obs.log import fields as log_fields
from ..obs.log import get_logger
from ..obs.export import render_prometheus
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import TelemetryHub, merge_states
from ..obs.trace import NULL_TRACER
from ..serve import GatewayConfig, GatewayResult, PendingResult, TranslationGateway
from ..serve.gateway import cache_entry, replay_entry
from ..sheet import Workbook
from ..translate import TranslatorConfig
from .health import DOWN, HealthMonitor
from .router import HotShardReport, RendezvousRouter, detect_hot_shards

__all__ = [
    "CLUSTER_CLOSED",
    "ClusterConfig",
    "ClusterResult",
    "ClusterStats",
    "REROUTED",
    "SHARD_DOWN",
    "Shard",
    "ShardedCluster",
]

_UNSET = object()

_log = get_logger("cluster")

# Cluster-level error codes (documented in docs/CLUSTER.md and listed with
# the runtime/gateway codes in docs/ROBUSTNESS.md).
SHARD_DOWN = "shard_down"
CLUSTER_CLOSED = "cluster_closed"
# Not an error code: the event name counted/traced when a request lands
# somewhere other than its rendezvous home (dead shard or failover).
REROUTED = "rerouted"

# Shard-level failure codes worth trying on a different shard.  Service
# codes are answers and never appear here.
RETRYABLE_CODES = frozenset(
    {"worker_crashed", "worker_timeout", "circuit_open", "gateway_closed"}
)

_EVENTS = (
    "submitted", "completed", "ok", "failed", "cache_hits", "retries",
    "failovers", "rerouted", "shard_down", "closed_rejected", "cancelled",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs for one cluster front end."""

    shards: int = 2
    workers_per_shard: int = 2
    queue_limit: int = 64  # per shard
    default_deadline: float | None = None
    max_derivations: int | None = None
    top_k: int = 5
    translator_config: TranslatorConfig | None = None
    breaker_threshold: int = 5
    breaker_reset: float = 2.0
    request_timeout: float = 30.0
    timeout_grace: float = 1.0
    restart_backoff: float = 0.05
    restart_backoff_cap: float = 2.0
    worker_faults: str | None = None
    start_method: str | None = None
    # The front cache every shard shares (a repro.cache.ResultCache).
    shared_cache: bool = True
    cache_capacity: int = 8192
    # Retry / failover.  ``retry_max_attempts=None`` means shards + 1:
    # every shard gets a chance, plus one more for transient blips.
    retry_max_attempts: int | None = None
    retry_backoff: float = 0.02
    retry_backoff_cap: float = 1.0
    retry_jitter: float = 0.5
    # Health monitoring.
    health_interval: float = 0.25
    health_failure_threshold: int = 2
    # Hot-shard detection.
    hot_factor: float = 2.0
    hot_min_requests: int = 20
    # Override the stock objectives (repro.obs.telemetry.default_slos)
    # for the cluster scope AND every shard gateway; a tuple of SloSpec.
    slo_specs: tuple | None = None

    @property
    def attempts_limit(self) -> int:
        return (
            self.retry_max_attempts
            if self.retry_max_attempts is not None
            else self.shards + 1
        )


@dataclass
class ClusterResult(GatewayResult):
    """A gateway result plus cluster routing diagnostics."""

    shard_id: int | None = None  # None: cache hit or never dispatched
    attempts: int = 0
    rerouted: bool = False  # served off the fingerprint's home shard


def _lift(result: GatewayResult, **extra) -> ClusterResult:
    base = {
        f.name: getattr(result, f.name)
        for f in dataclass_fields(GatewayResult)
    }
    return ClusterResult(**base, **extra)


@dataclass
class _ClusterRequest:
    id: int
    sentence: str
    workbook: Workbook
    fingerprint: str
    submitted_at: float
    expires_at: float | None
    faults: str | None
    pending: PendingResult
    cache_key: CacheKey | None = None
    attempts: int = 0
    tried: list = field(default_factory=list)  # shard ids, attempt order
    last_failure: GatewayResult | None = None
    home_shard: int | None = None
    span: Any = None
    cancelled: bool = False  # caller abandoned; stop retrying
    inner: PendingResult | None = None  # the in-flight shard attempt
    trace_id: str | None = None  # telemetry-plane id (caller's or the span's)


class _RetryScheduler:
    """One timer thread running delayed callbacks (the retry clock).

    ``stop(flush=True)`` fires everything still queued immediately — the
    callbacks themselves observe the cluster's closed flag and resolve
    their requests with ``cluster_closed``, so no retry is ever silently
    dropped.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: list = []
        self._seq = itertools.count()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-cluster-retry"
        )
        self._thread.start()

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        with self._cond:
            if self._stopped:
                run_now = True
            else:
                run_now = False
                heapq.heappush(
                    self._heap,
                    (time.monotonic() + max(0.0, delay), next(self._seq), fn),
                )
                self._cond.notify()
        if run_now:
            fn()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._stopped:
                    self._cond.wait(timeout=0.5)
                if self._stopped and not self._heap:
                    return
                due, _, fn = self._heap[0]
                now = time.monotonic()
                if not self._stopped and due > now:
                    self._cond.wait(timeout=min(due - now, 0.5))
                    continue
                heapq.heappop(self._heap)
            try:
                fn()
            except Exception:  # noqa: BLE001 - a retry bug must not kill the clock
                _log.exception("scheduled retry raised")

    def stop(self, timeout: float = 5.0) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout)


class Shard:
    """One gateway plus its cluster-side identity and liveness flag."""

    def __init__(self, shard_id: int, gateway: TranslationGateway) -> None:
        self.shard_id = shard_id
        self.gateway = gateway
        self.dead = False  # set by kill(); health probes observe it

    def healthy(self) -> bool:
        return not self.dead and not self.gateway.quarantined

    def kill(self) -> int:
        """SIGKILL the whole shard (every worker, no respawns)."""
        self.dead = True
        return self.gateway.quarantine()


class ShardedCluster:
    """Serve translation requests across N crash-isolated gateway shards."""

    def __init__(
        self,
        workbook: Workbook | None = None,
        config: ClusterConfig | None = None,
        *,
        clock: Clock = monotonic,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        rng: random.Random | None = None,
        **overrides,
    ) -> None:
        self.config = replace(config or ClusterConfig(), **overrides)
        if self.config.shards < 1:
            raise ValueError("cluster needs at least one shard")
        self.default_workbook = workbook
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock)
        self._rng = rng if rng is not None else random.Random()
        gateway_config = GatewayConfig(
            workers=self.config.workers_per_shard,
            queue_limit=self.config.queue_limit,
            default_deadline=None,  # the cluster owns the deadline budget
            max_derivations=self.config.max_derivations,
            top_k=self.config.top_k,
            translator_config=self.config.translator_config,
            breaker_threshold=self.config.breaker_threshold,
            breaker_reset=self.config.breaker_reset,
            request_timeout=self.config.request_timeout,
            timeout_grace=self.config.timeout_grace,
            restart_backoff=self.config.restart_backoff,
            restart_backoff_cap=self.config.restart_backoff_cap,
            worker_faults=self.config.worker_faults,
            start_method=self.config.start_method,
            cache=False,  # the cluster's front cache replaces per-shard ones
            slo_specs=self.config.slo_specs,
        )
        # Each shard keeps its own metrics registry: gateway_* series must
        # stay shard-local (breaker state, queue depth, EMA), while the
        # cluster_* series below live in the cluster's registry.
        self.shards = [
            Shard(
                shard_id,
                TranslationGateway(
                    config=gateway_config, clock=clock, tracer=self.tracer
                ),
            )
            for shard_id in range(self.config.shards)
        ]
        self.router = RendezvousRouter([s.shard_id for s in self.shards])
        self.cache = (
            ResultCache(
                capacity=self.config.cache_capacity,
                clock=clock,
                metrics=self.metrics,
            )
            if self.config.shared_cache
            else None
        )
        self._cache_options = options_signature(
            self.config.translator_config or TranslatorConfig(),
            self.config.max_derivations,
            self.config.top_k,
        )
        self._lock = threading.Lock()
        self._closed = False
        self._ids = itertools.count(1)
        self._traffic: dict[str, int] = {}  # fingerprint -> requests
        m = self.metrics
        self._events = m.counter(
            "cluster_events_total", "cluster request lifecycle events by kind"
        )
        self._fingerprint_requests = m.counter(
            "cluster_fingerprint_requests_total",
            "requests per workbook fingerprint (feeds hot-shard detection)",
        )
        self._shard_requests = m.counter(
            "cluster_shard_requests_total", "attempts dispatched per shard"
        )
        self._attempt_seconds = m.histogram(
            "cluster_attempt_seconds", "per-attempt shard round-trip seconds"
        )
        self.health = HealthMonitor(
            probes={
                shard.shard_id: shard.healthy for shard in self.shards
            },
            interval=self.config.health_interval,
            failure_threshold=self.config.health_failure_threshold,
            clock=clock,
            metrics=self.metrics,
        )
        # The cluster's own telemetry scope: routed-request outcomes as
        # the caller saw them (``scope="cluster"`` keeps these series
        # disjoint from the shards' ``scope="gateway"`` series in the
        # federated view, so nothing double-counts within a label set).
        self.telemetry = TelemetryHub(
            metrics=self.metrics,
            scope="cluster",
            deadline=self.config.default_deadline,
            specs=self.config.slo_specs,
        )
        self._scheduler = _RetryScheduler()
        self.health.start()

    # -- the public request path -------------------------------------------------

    def submit(
        self,
        sentence: str,
        workbook: Workbook | None = None,
        deadline: float | None | object = _UNSET,
        faults: str | None = None,
        *,
        trace_id: str | None = None,
    ) -> PendingResult:
        """Route one request into the cluster; always returns a future.

        Same contract as the gateway's ``submit``, one level up: the
        future resolves to exactly one coded :class:`ClusterResult`, no
        matter which shards die in between.  ``trace_id`` files the
        request in the telemetry plane under a caller-chosen id (the
        HTTP front end's ``X-Repro-Trace-Id``) and propagates to every
        shard attempt.
        """
        wb = workbook or self.default_workbook
        if wb is None:
            raise ValueError("no workbook: pass one or set a default")
        if deadline is _UNSET:
            deadline = self.config.default_deadline
        fingerprint = wb.fingerprint()
        now = self.clock()
        pending = PendingResult()
        cache_key = None
        if self.cache is not None and faults is None:
            cache_key = CacheKey(
                normalise_sentence(sentence), fingerprint, self._cache_options
            )
        span = self.tracer.span(
            "cluster.request", trace_id=trace_id,
            request_id=f"c{id(pending):x}", fingerprint=fingerprint,
        )
        if trace_id is None and self.tracer.enabled:
            trace_id = span.trace_id
        request = _ClusterRequest(
            id=next(self._ids),
            sentence=sentence,
            workbook=wb,
            fingerprint=fingerprint,
            submitted_at=now,
            expires_at=(now + deadline) if deadline is not None else None,
            faults=faults,
            pending=pending,
            cache_key=cache_key,
            home_shard=self.router.route(fingerprint),
            span=span,
            trace_id=trace_id,
        )
        pending._canceller = lambda: self._cancel_request(request)
        with self._lock:
            if self._closed:
                self._count("submitted")
                self._finalize_error(
                    request, CLUSTER_CLOSED, "cluster is shut down",
                    "closed_rejected",
                )
                return pending
            self._count("submitted")
            self._traffic[fingerprint] = self._traffic.get(fingerprint, 0) + 1
        self._fingerprint_requests.inc(fingerprint=fingerprint)
        if cache_key is not None:
            entry = self.cache.get(cache_key)
            if entry is not None:
                self._resolve_hit(request, entry)
                return pending
        self._dispatch(request)
        return pending

    def translate(
        self,
        sentence: str,
        workbook: Workbook | None = None,
        deadline: float | None | object = _UNSET,
        faults: str | None = None,
        wait: float | None = None,
    ) -> ClusterResult:
        """Synchronous ``submit`` + ``result``."""
        return self.submit(sentence, workbook, deadline, faults).result(wait)

    def translate_many(
        self,
        sentences: Iterable[str],
        workbook: Workbook | None = None,
        deadline: float | None | object = _UNSET,
        wait: float | None = None,
    ) -> list[ClusterResult]:
        """Submit a batch, then wait for every result (submission order)."""
        pendings = [
            self.submit(sentence, workbook, deadline) for sentence in sentences
        ]
        return [pending.result(wait) for pending in pendings]

    # -- lifecycle ----------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the cluster.  On return every outstanding future is
        resolved: queued retries fire as ``cluster_closed``, and each
        shard's ``close`` (see the gateway's drain guarantee) resolves
        whatever it still holds."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.health.stop()
        # Flush pending retries: their _dispatch observes _closed and
        # resolves cluster_closed.
        self._scheduler.stop()
        per_shard = max(1.0, timeout / max(1, len(self.shards)))
        for shard in self.shards:
            shard.gateway.close(drain=drain, timeout=per_shard)

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # -- chaos knobs ---------------------------------------------------------------

    def kill_shard(self, shard_id: int) -> int:
        """SIGKILL an entire shard (all workers, no respawns) and mark it
        down so routing reacts immediately.  In-flight and queued requests
        on the shard resolve ``worker_crashed`` and fail over to the next
        live shard.  Returns the number of worker processes killed."""
        shard = self.shards[shard_id]
        killed = shard.kill()
        self.health.mark_down(shard_id)
        _log.warning(
            "shard killed",
            extra=log_fields(shard=shard_id, workers_killed=killed),
        )
        return killed

    # -- internals -----------------------------------------------------------------

    def _count(self, *names: str) -> None:
        for name in names:
            self._events.inc(event=name)

    def _retry_delay(self, attempts: int) -> float:
        """Backoff before attempt ``attempts + 1``: exponential in the
        number of failures so far, scaled by ``[1 - jitter, 1]`` so a
        burst of failures (a whole shard dying under load) does not
        hammer the failover shard in one synchronized wave."""
        if attempts < 1 or self.config.retry_backoff <= 0:
            return 0.0
        envelope = min(
            self.config.retry_backoff_cap,
            self.config.retry_backoff * 2 ** (attempts - 1),
        )
        if self.config.retry_jitter <= 0:
            return envelope
        return envelope * (1.0 - self.config.retry_jitter * self._rng.random())

    def _pick_shard(self, request: _ClusterRequest) -> int | None:
        """The next shard to try: best-ranked live shard not yet tried,
        else (transient-blip insurance) the best-ranked live shard."""
        alive = self.health.alive()
        tried = set(request.tried)
        preference = self.router.preference(request.fingerprint)
        for shard_id in preference:
            if shard_id in alive and shard_id not in tried:
                return shard_id
        for shard_id in preference:
            if shard_id in alive:
                return shard_id
        return None

    def _cancel_request(self, request: _ClusterRequest) -> bool:
        """The :meth:`PendingResult.cancel` path, lifted over routing.

        Marks the request abandoned (a scheduled retry observes the flag
        and resolves ``cancelled`` instead of dispatching) and forwards
        the cancel to the in-flight shard attempt, whose gateway releases
        its queue slot if the attempt is still waiting for a worker.
        """
        request.cancelled = True
        inner = request.inner
        if inner is not None and inner.cancel():
            # The inner attempt resolves with code "cancelled"; it is not
            # retryable, so _on_attempt_done finalizes the outer future.
            return True
        return False

    def _dispatch(self, request: _ClusterRequest) -> None:
        """Route one attempt (also the retry-scheduler entry point)."""
        with self._lock:
            closed = self._closed
        if closed:
            self._finalize_error(
                request, CLUSTER_CLOSED,
                "cluster closed before the request could be (re)tried",
                "closed_rejected",
            )
            return
        if request.cancelled:
            self._finalize_error(
                request, "cancelled",
                "cancelled by the caller between attempts", "cancelled",
            )
            return
        remaining: float | None = None
        if request.expires_at is not None:
            remaining = request.expires_at - self.clock()
            if remaining <= 0:
                # Out of deadline mid-failover: the last shard failure is
                # the honest answer; absent one, this is a shed.
                if request.last_failure is not None:
                    self._finalize(request, request.last_failure)
                else:
                    self._finalize_error(
                        request, "shed_overload",
                        "deadline expired before any shard could serve",
                        "failed",
                    )
                return
        shard_id = self._pick_shard(request)
        if shard_id is None:
            self._finalize_error(
                request, SHARD_DOWN,
                "no live shard available for this request",
                "shard_down",
            )
            return
        shard = self.shards[shard_id]
        request.attempts += 1
        request.tried.append(shard_id)
        self._shard_requests.inc(shard=shard_id)
        attempt_span = self.tracer.span(
            "cluster.attempt", parent=request.span,
            shard=shard_id, attempt=request.attempts,
        )
        started = self.clock()
        inner = shard.gateway.submit(
            request.sentence,
            request.workbook,
            deadline=remaining,
            faults=request.faults,
            trace_parent=attempt_span,
            trace_id=request.trace_id,
        )
        request.inner = inner
        inner.add_done_callback(
            lambda result, shard=shard, span=attempt_span, t0=started: (
                self._on_attempt_done(request, shard, span, t0, result)
            )
        )

    def _on_attempt_done(
        self,
        request: _ClusterRequest,
        shard: Shard,
        attempt_span,
        started: float,
        result: GatewayResult,
    ) -> None:
        self._attempt_seconds.observe(self.clock() - started)
        retryable = (
            not result.ok and result.error_code in RETRYABLE_CODES
        )
        if not retryable:
            attempt_span.set(
                ok=result.ok, error_code=result.error_code
            ).finish()
            if result.ok:
                self.health.note_success(shard.shard_id)
            self._finalize(request, result, shard_id=shard.shard_id)
            return
        attempt_span.error(result.error).set(
            error_code=result.error_code
        ).finish()
        request.last_failure = result
        with self._lock:
            closed = self._closed
        if (
            closed
            or request.cancelled
            or request.attempts >= self.config.attempts_limit
        ):
            self._finalize(request, result, shard_id=shard.shard_id)
            return
        self._count("retries")
        delay = self._retry_delay(request.attempts)
        _log.warning(
            "failing over",
            extra=log_fields(
                request_id=request.id, shard=shard.shard_id,
                code=result.error_code, attempt=request.attempts,
                backoff_seconds=round(delay, 4),
            ),
        )
        self._scheduler.schedule(delay, lambda: self._dispatch(request))

    def _resolve_hit(self, request: _ClusterRequest, entry: dict) -> None:
        """Resolve a front-cache hit without touching any shard."""
        now = self.clock()
        self._count("completed", "ok", "cache_hits")
        self.cache.observe_hit(now - request.submitted_at)
        result = ClusterResult(
            ok=True,
            **replay_entry(entry),
            total_seconds=now - request.submitted_at,
            fingerprint=request.fingerprint,
            cached=True,
            shard_id=None,
            attempts=0,
        )
        self._close_span(request, result)
        self.telemetry.observe(result, trace_id=request.trace_id)
        request.pending._resolve(result)

    def _finalize(
        self,
        request: _ClusterRequest,
        result: GatewayResult,
        shard_id: int | None = None,
    ) -> None:
        """Lift a shard result into the cluster result and resolve."""
        rerouted = (
            shard_id is not None and shard_id != request.home_shard
        ) or request.attempts > 1
        lifted = _lift(
            result,
            shard_id=shard_id,
            attempts=request.attempts,
            rerouted=rerouted,
        )
        lifted.total_seconds = self.clock() - request.submitted_at
        buckets = ["completed", "ok" if lifted.ok else "failed"]
        if lifted.error_code == "cancelled":
            buckets.append("cancelled")
        if lifted.ok and request.attempts > 1:
            buckets.append("failovers")
        if rerouted:
            buckets.append(REROUTED)
        self._count(*buckets)
        entry = (
            cache_entry(lifted) if request.cache_key is not None else None
        )
        if entry is not None:
            # The next identical request, whichever shard it would route
            # to, is a hit.
            self.cache.put(request.cache_key, entry)
            self.cache.observe_miss(lifted.total_seconds)
        self._close_span(request, lifted)
        self.telemetry.observe(lifted, trace_id=request.trace_id)
        request.pending._resolve(lifted)

    def _finalize_error(
        self, request: _ClusterRequest, code: str, message: str, bucket: str
    ) -> None:
        """Resolve a request that never got a shard result (counts itself)."""
        self._count("completed", "failed", bucket)
        now = self.clock()
        result = ClusterResult(
            ok=False,
            error_code=code,
            error=message,
            fingerprint=request.fingerprint,
            total_seconds=now - request.submitted_at,
            attempts=request.attempts,
            rerouted=request.attempts > 1,
        )
        self._close_span(request, result)
        self.telemetry.observe(result, trace_id=request.trace_id)
        request.pending._resolve(result)

    def _close_span(self, request: _ClusterRequest, result: ClusterResult):
        span = request.span
        if span is None:
            return
        if not result.ok:
            span.error(result.error).set(error_code=result.error_code)
        span.set(
            shard=result.shard_id,
            attempts=result.attempts,
            rerouted=result.rerouted,
            cached=result.cached,
        ).finish()

    # -- diagnostics ----------------------------------------------------------------

    def federated_state(self) -> dict[str, Any]:
        """One merged metric state over the whole cluster.

        The fold of the cluster registry (``cluster_*``, the front
        cache's ``cache_*``, health, and ``scope="cluster"`` telemetry
        series) with every shard's gateway registry (``gateway_*``,
        ``worker_*``, and ``scope="gateway"`` telemetry series):
        counters sum per label set, histogram buckets add element-wise.
        Exactly what a per-shard scrape would sum to — the
        federated-equality test in tests/cluster asserts this.
        """
        return merge_states(
            self.metrics.export_state(),
            *[
                shard.gateway.metrics.export_state()
                for shard in self.shards
            ],
        )

    def federated_render(self) -> str:
        """The federated state as Prometheus text (``GET /metrics``)."""
        return render_prometheus(self.federated_state())

    def slo_report(self) -> dict[str, Any]:
        """The ``GET /slo`` document: the cluster scope's own report plus
        each shard's."""
        report = self.telemetry.slo_report()
        report["shards"] = [
            {
                "shard_id": shard.shard_id,
                "healthy": shard.healthy(),
                **shard.gateway.slo_report(),
            }
            for shard in self.shards
        ]
        return report

    def sampled_traces(self) -> list[str]:
        """Tail-sampled trace JSONL from the cluster scope and every
        shard (cluster lines first, then shards in id order)."""
        lines = self.telemetry.sampler.jsonl()
        for shard in self.shards:
            lines.extend(shard.gateway.sampled_traces())
        return lines

    def hot_shards(self) -> HotShardReport:
        """Project observed per-fingerprint traffic onto the live shards."""
        with self._lock:
            traffic = dict(self._traffic)
        return detect_hot_shards(
            traffic,
            self.router,
            alive=self.health.alive(),
            hot_factor=self.config.hot_factor,
            min_requests=self.config.hot_min_requests,
        )

    def stats(self) -> "ClusterStats":
        counters = {
            name: int(self._events.value(event=name)) for name in _EVENTS
        }
        states = self.health.states()
        return ClusterStats(
            shards=[
                ShardStats(
                    shard_id=shard.shard_id,
                    state=states.get(shard.shard_id, DOWN),
                    dead=shard.dead,
                    gateway=shard.gateway.stats(),
                )
                for shard in self.shards
            ],
            shared_cache=(
                self.cache.stats() if self.cache is not None else None
            ),
            hot=self.hot_shards(),
            **counters,
        )

    def snapshot(self) -> dict[str, Any]:
        """The ``snapshot()`` protocol (same shape as ``stats().snapshot()``)."""
        return self.stats().snapshot()


@dataclass
class ShardStats:
    """One shard's identity, health, and gateway diagnostics."""

    shard_id: int
    state: str
    dead: bool
    gateway: Any  # GatewayStats

    def snapshot(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "state": self.state,
            "dead": self.dead,
            "gateway": self.gateway.snapshot(),
        }


@dataclass
class ClusterStats:
    """A diagnostics snapshot (``ShardedCluster.stats()``)."""

    submitted: int
    completed: int
    ok: int
    failed: int
    cache_hits: int
    retries: int
    failovers: int
    rerouted: int
    shard_down: int
    closed_rejected: int
    cancelled: int
    shards: list[ShardStats] = field(default_factory=list)
    shared_cache: CacheStats | None = None  # None when the cache is off
    hot: HotShardReport | None = None

    @property
    def ok_rate(self) -> float:
        return self.ok / self.submitted if self.submitted else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.submitted if self.submitted else 0.0

    @property
    def live_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.state != DOWN)

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in dataclass_fields(self):
            out[f.name] = getattr(self, f.name)
        out["shards"] = [shard.snapshot() for shard in self.shards]
        out["shared_cache"] = (
            self.shared_cache.snapshot()
            if self.shared_cache is not None
            else None
        )
        out["hot"] = self.hot.snapshot() if self.hot is not None else None
        out.update(
            ok_rate=self.ok_rate,
            cache_hit_rate=self.cache_hit_rate,
            live_shards=self.live_shards,
        )
        return out
