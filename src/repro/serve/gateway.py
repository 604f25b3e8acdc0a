"""The crash-isolated translation gateway: queue → breaker → pool.

:class:`TranslationGateway` is the multi-user front end over
:class:`~repro.runtime.TranslationService`.  Requests flow through three
stages, each with its own guarantee:

1. **Admission control** (``submit``) — a bounded queue.  A request is
   shed *immediately* with a ``shed_overload`` coded result when the
   queue is full, when its deadline has already expired, or when the
   predicted dispatch wait (queue depth × observed service time ÷
   workers) would outlast the deadline — queuing a request only to watch
   it die is strictly worse than telling the caller now.  A fingerprint
   whose circuit breaker is open fast-fails with ``circuit_open``.
2. **Dispatch** — one runner thread per pool slot pulls work, preferring
   requests whose workbook fingerprint the slot's worker has already
   served (warm translator-cache affinity), and re-checks the deadline at
   dispatch time.
3. **Execution** — the request runs in a worker *process*.  A worker that
   dies mid-request yields a structured ``worker_crashed`` result; one
   that hangs past the deadline (plus grace) is killed and yields
   ``worker_timeout``.  Either failure feeds the workbook's circuit
   breaker and the slot respawns with exponential backoff.

The invariant the chaos tests assert: **every submitted request resolves
to exactly one coded** :class:`GatewayResult` — across worker kills,
hangs, overload, open breakers, and shutdown.  ``close(drain=True)``
serves everything already queued before stopping; ``drain=False`` fails
queued requests with ``gateway_closed`` (in-flight requests still finish).

Observability (docs/OBSERVABILITY.md): all counters live in a
:class:`~repro.obs.metrics.MetricsRegistry` shared with the result cache
(``gateway_*`` / ``worker_*`` / ``cache_*`` metric names), timing uses an
injectable monotonic clock, and when a :class:`~repro.obs.trace.Tracer`
is attached every request grows one span tree — ``gateway.request``
over ``gateway.queue`` and ``gateway.worker_call``, with the worker's own
spans shipped back in the reply and stitched in via
:meth:`~repro.obs.trace.Tracer.adopt`.  A request whose worker dies
still yields a complete tree: the gateway synthesises a
``worker_crashed`` / ``worker_timeout`` error span in the dead worker's
place.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Iterable

from ..cache import CacheKey, CacheStats, ResultCache, normalise_sentence, options_signature
from ..obs.clock import Clock, monotonic
from ..obs.log import fields as log_fields
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import TelemetryHub
from ..obs.telemetry.hub import REQUEST_BUCKETS
from ..obs.trace import NULL_TRACER
from ..sheet import Workbook
from ..translate import TranslatorConfig
from .breaker import OPEN, BreakerBoard
from .fingerprint import WorkbookRegistry
from .pool import WorkerCrashed, WorkerPool, WorkerStats, WorkerTimedOut

__all__ = [
    "GatewayConfig",
    "GatewayResult",
    "GatewayStats",
    "PendingResult",
    "TranslationGateway",
    "cache_entry",
    "replay_entry",
]

_UNSET = object()

_log = get_logger("serve.gateway")

# The lifecycle buckets counted per request (``gateway_events_total``).
_EVENTS = (
    "submitted", "completed", "ok", "failed", "shed", "crashed",
    "timed_out", "circuit_rejected", "closed_rejected", "cache_hits",
    "cancelled",
)


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for one gateway instance."""

    workers: int = 2
    queue_limit: int = 64
    default_deadline: float | None = None  # seconds per request
    max_derivations: int | None = None
    top_k: int = 5
    translator_config: TranslatorConfig | None = None
    breaker_threshold: int = 5
    breaker_reset: float = 2.0
    request_timeout: float = 30.0  # poll cap for undeadlined requests
    timeout_grace: float = 1.0  # slack past the deadline before declaring a hang
    restart_backoff: float = 0.05
    restart_backoff_cap: float = 2.0
    worker_faults: str | None = None  # REPRO_FAULTS plan armed in every worker
    start_method: str | None = None  # fork/spawn/forkserver; None = best
    # Memoised results (repro.cache): hits resolve in the front end before
    # admission control; workers additionally memoise per ladder rung.
    cache: bool = False
    cache_capacity: int = 4096
    cache_ttl: float | None = None  # seconds; None = entries never expire
    # Override the stock objectives (repro.obs.telemetry.default_slos);
    # a tuple of SloSpec.  None = the defaults scaled to default_deadline.
    slo_specs: tuple | None = None


@dataclass
class GatewayResult:
    """One request's outcome: translation payload plus serving diagnostics.

    ``error_code`` is ``None`` on success; gateway-level codes are
    ``shed_overload``, ``circuit_open``, ``worker_crashed``,
    ``worker_timeout``, ``gateway_closed``, and ``gateway_error``;
    service-level codes (``deadline_exhausted``, ``empty_description``,
    ...) pass through unchanged.
    """

    ok: bool
    error_code: str | None = None
    error: str | None = None
    tier: str | None = None
    degraded: bool = False
    anytime: bool = False
    programs: list[tuple[str, float]] = field(default_factory=list)
    n_candidates: int = 0
    top_formula: str | None = None
    elapsed: float = 0.0  # worker-side service time
    budget_spent: int = 0
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    worker_id: int | None = None
    fingerprint: str | None = None
    warm: bool = False
    cached: bool = False  # answered from the gateway cache, no worker touched
    service_cached: bool = False  # worker hit its in-process rung memo

    @property
    def top_program(self) -> str | None:
        return self.programs[0][0] if self.programs else None


def cache_entry(result: GatewayResult) -> dict | None:
    """What a front cache stores for ``result``, or ``None`` when it must
    not commit.

    Only a clean full-fidelity answer commits: ok, not degraded, not an
    anytime partial, and computed rather than itself replayed from a
    cache.  Such an answer is deadline-independent, so it is safe to
    replay verbatim for the next identical request.  The gateway and the
    cluster both store exactly this entry.
    """
    if not result.ok or result.degraded or result.anytime or result.cached:
        return None
    return {
        "tier": result.tier,
        "programs": tuple(result.programs),
        "n_candidates": result.n_candidates,
        "top_formula": result.top_formula,
        "elapsed": result.elapsed,
        "budget_spent": result.budget_spent,
    }


def replay_entry(entry: dict) -> dict:
    """The result fields a front-cache hit replays from ``entry``.

    ``programs`` is copied into a new list, so no caller can mutate the
    stored entry through the result it was handed.
    """
    return {**entry, "programs": list(entry["programs"])}


class PendingResult:
    """A one-shot future resolved exactly once by the gateway."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: GatewayResult | None = None
        self._lock = threading.Lock()
        self._callbacks: list = []
        # Installed by the owner (gateway/cluster) before the request can
        # resolve; called at most once, from cancel().
        self._canceller = None

    def _resolve(self, result: GatewayResult) -> None:
        with self._lock:
            if self._result is not None:  # pragma: no cover - defensive
                return
            self._result = result
            callbacks, self._callbacks = self._callbacks, []
        # Callbacks fire *before* the event: a waiter woken by result()
        # may rely on every pre-resolution callback having completed
        # (e.g. the chaos suites' exactly-once accounting).  Late
        # registrations key off _result, so none are dropped in between.
        for callback in callbacks:
            self._fire(callback, result)
        self._event.set()

    @staticmethod
    def _fire(callback, result: GatewayResult) -> None:
        try:
            callback(result)
        except Exception:  # noqa: BLE001 - a callback bug must not poison
            # the firing thread (a gateway runner, or the submitter on the
            # already-resolved path)
            _log.exception("pending-result callback raised")

    def add_done_callback(self, callback) -> None:
        """Run ``callback(result)`` when this future resolves.

        Fires immediately (on the calling thread) if already resolved;
        otherwise fires exactly once on whichever thread resolves the
        request.  Exceptions from the callback are logged, never raised.
        This is the event-driven seam the cluster layer's retry/failover
        logic hangs off — no thread-per-request waiting.
        """
        with self._lock:
            if self._result is None:
                self._callbacks.append(callback)
                return
        self._fire(callback, self._result)

    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> bool:
        """Abandon this request (best effort, e.g. the HTTP client hung up).

        Returns ``True`` iff the request was withdrawn before it reached a
        worker — its bounded-queue slot is released immediately and the
        future resolves with error code ``cancelled``.  Returns ``False``
        when the request already resolved or is executing on a worker
        (worker processes are not preemptible mid-request; the eventual
        result is simply dropped by the caller).  Safe to call from any
        thread, and idempotent.
        """
        with self._lock:
            if self._result is not None:
                return False
            canceller = self._canceller
        if canceller is None:
            return False
        return bool(canceller())

    def result(self, timeout: float | None = None) -> GatewayResult:
        if not self._event.wait(timeout):
            raise TimeoutError("gateway request still pending")
        return self._result


@dataclass
class _Request:
    id: int
    sentence: str
    fingerprint: str
    payload: bytes
    submitted_at: float
    expires_at: float | None
    faults: str | None
    pending: PendingResult
    cache_key: CacheKey | None = None  # set iff this request may commit
    # Trace nodes (no-op spans when tracing is off).  ``span`` is the
    # request's root; it opens at submit and finishes on whichever thread
    # resolves the request.  ``queue_span`` covers admission → dispatch.
    span: Any = None
    queue_span: Any = None
    # The id the telemetry plane files this request under: the caller's
    # (e.g. an HTTP X-Repro-Trace-Id) when given, else the root span's.
    trace_id: str | None = None


@dataclass
class GatewayStats:
    """A diagnostics snapshot (``TranslationGateway.stats()``)."""

    queue_depth: int
    in_flight: int
    submitted: int
    completed: int
    ok: int
    failed: int
    shed: int
    crashed: int
    timed_out: int
    circuit_rejected: int
    closed_rejected: int
    cache_hits: int
    cancelled: int
    restarts: int
    avg_call_seconds: float
    registered_workbooks: int
    workers: list[WorkerStats] = field(default_factory=list)
    breakers: dict[str, str] = field(default_factory=dict)
    cache: CacheStats | None = None  # None when the gateway cache is off

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def crash_rate(self) -> float:
        return self.crashed / self.submitted if self.submitted else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.submitted if self.submitted else 0.0

    def snapshot(self) -> dict[str, Any]:
        """The ``snapshot()`` protocol: plain data, nested stats included."""
        out: dict[str, Any] = {}
        for f in dataclass_fields(self):
            out[f.name] = getattr(self, f.name)
        out["workers"] = [w.snapshot() for w in self.workers]
        out["breakers"] = dict(self.breakers)
        out["cache"] = self.cache.snapshot() if self.cache is not None else None
        out.update(
            shed_rate=self.shed_rate,
            crash_rate=self.crash_rate,
            cache_hit_rate=self.cache_hit_rate,
        )
        return out


class TranslationGateway:
    """Serve translation requests on a crash-isolated worker pool."""

    def __init__(
        self,
        workbook: Workbook | None = None,
        config: GatewayConfig | None = None,
        *,
        clock: Clock = monotonic,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        **overrides,
    ) -> None:
        self.config = replace(config or GatewayConfig(), **overrides)
        self.default_workbook = workbook
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock)
        self._registry = WorkbookRegistry()
        self._breakers = BreakerBoard(
            self.config.breaker_threshold, self.config.breaker_reset
        )
        self._pool = WorkerPool(
            self.config.workers,
            worker_faults=self.config.worker_faults,
            start_method=self.config.start_method,
            restart_backoff=self.config.restart_backoff,
            restart_backoff_cap=self.config.restart_backoff_cap,
        )
        self._cache = (
            ResultCache(
                capacity=self.config.cache_capacity,
                ttl=self.config.cache_ttl,
                clock=clock,
                metrics=self.metrics,
            )
            if self.config.cache
            else None
        )
        self._cache_options = options_signature(
            self.config.translator_config or TranslatorConfig(),
            self.config.max_derivations,
            self.config.top_k,
        )
        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._ids = itertools.count(1)
        self._in_flight = 0
        self._closed = False
        self._stopping = False
        self._aborting = False  # set by close() when drain gives up
        m = self.metrics
        self._events = m.counter(
            "gateway_events_total", "request lifecycle events by kind"
        )
        self._queue_depth_gauge = m.gauge(
            "gateway_queue_depth", "requests waiting for dispatch"
        )
        self._in_flight_gauge = m.gauge(
            "gateway_in_flight", "requests executing on workers"
        )
        self._call_seconds = m.histogram(
            "gateway_call_seconds", "worker round-trip seconds"
        )
        self._queue_seconds = m.histogram(
            "gateway_queue_seconds", "submit-to-dispatch wait seconds"
        )
        # Each worker's view of its requests, recorded from the reply's
        # own fields; a worker that dies sends no reply and counts under
        # gateway_events_total{event="crashed"} instead.  Serving-scale
        # buckets (1 ms .. 30 s), as the hub's request histogram uses.
        self._worker_requests = m.counter(
            "worker_requests_total", "requests finished by this worker"
        )
        self._worker_seconds = m.histogram(
            "worker_translate_seconds",
            "worker-side translate seconds by ladder rung",
            buckets=REQUEST_BUCKETS,
        )
        self._ema_gauge = m.gauge(
            "gateway_ema_call_seconds", "EMA of worker round-trip seconds"
        )
        # The EMA is a genuine read-modify-write, so it keeps its own lock
        # (gauges guard single writes, not compound updates).
        self._ema_lock = threading.Lock()
        self._ema_call_seconds = 0.0
        # The telemetry plane shares this registry, so the federated view
        # and GET /metrics carry gateway_*, worker_*, cache_*, telemetry_*
        # and slo_* series side by side.
        self.telemetry = TelemetryHub(
            metrics=self.metrics,
            scope="gateway",
            deadline=self.config.default_deadline,
            specs=self.config.slo_specs,
        )
        self._runners = [
            threading.Thread(
                target=self._runner, args=(slot,), daemon=True,
                name=f"repro-gateway-runner-{slot}",
            )
            for slot in range(self.config.workers)
        ]
        for thread in self._runners:
            thread.start()

    # -- the public request path -------------------------------------------------

    def submit(
        self,
        sentence: str,
        workbook: Workbook | None = None,
        deadline: float | None | object = _UNSET,
        faults: str | None = None,
        trace_parent=None,
        *,
        trace_id: str | None = None,
    ) -> PendingResult:
        """Enqueue one request; always returns a resolvable future.

        ``deadline`` (seconds) defaults to the gateway's
        ``default_deadline``; ``faults`` arms a ``REPRO_FAULTS``-style
        plan inside the worker for this request only (chaos-testing
        knob — this is how tests crash or hang a worker on demand).
        ``trace_parent`` (a span from this gateway's own tracer) parents
        the request's ``gateway.request`` span — the cluster layer passes
        its per-attempt span here so a routed request yields one stitched
        tree across cluster, gateway, and worker.  ``trace_id`` is the
        caller-chosen id (e.g. an HTTP ``X-Repro-Trace-Id``) the request
        is filed under in the telemetry plane and, when tracing is on and
        no parent is given, the id of its span tree.
        """
        wb = workbook or self.default_workbook
        if wb is None:
            raise ValueError("no workbook: pass one or set a default")
        if deadline is _UNSET:
            deadline = self.config.default_deadline
        fingerprint, payload = self._registry.register(wb)
        pending = PendingResult()
        now = self.clock()
        # Fault-armed requests are chaos probes: they must reach a worker
        # and must never commit what they produce.
        cache_key = None
        if self._cache is not None and faults is None:
            cache_key = CacheKey(
                normalise_sentence(sentence), fingerprint, self._cache_options
            )
        request_id = next(self._ids)
        # The root span deliberately skips the with-statement: it is
        # finished by whichever thread resolves the request.
        span = self.tracer.span(
            "gateway.request",
            parent=trace_parent if self.tracer.enabled else None,
            trace_id=trace_id if trace_parent is None else None,
            request_id=request_id,
            fingerprint=fingerprint,
        )
        if trace_id is None and self.tracer.enabled:
            trace_id = span.trace_id
        request = _Request(
            id=request_id,
            sentence=sentence,
            fingerprint=fingerprint,
            payload=payload,
            submitted_at=now,
            expires_at=(now + deadline) if deadline is not None else None,
            faults=faults,
            pending=pending,
            cache_key=cache_key,
            span=span,
            trace_id=trace_id,
        )
        pending._canceller = lambda: self._cancel_request(request)
        with self._cond:
            if self._closed:
                self._reject(
                    request, "gateway_closed",
                    "gateway is shut down", "closed_rejected",
                )
                return pending
            if cache_key is not None:
                entry = self._cache.get(cache_key)
                if entry is not None:
                    # A known-good answer beats every admission check: the
                    # hit bypasses the breaker, the queue, and the pool.
                    self._resolve_hit(request, entry)
                    return pending
            if not self._breakers.allow(fingerprint):
                self._reject(
                    request, "circuit_open",
                    "circuit breaker open for this workbook "
                    "(repeated worker crashes/timeouts)",
                    "circuit_rejected",
                )
                return pending
            if len(self._queue) >= self.config.queue_limit:
                self._reject(
                    request, "shed_overload",
                    f"queue full ({self.config.queue_limit} waiting)", "shed",
                )
                return pending
            if request.expires_at is not None:
                remaining = request.expires_at - now
                if remaining <= 0 or remaining <= self._predicted_wait():
                    self._reject(
                        request, "shed_overload",
                        f"deadline ({remaining * 1000:.0f} ms left) cannot "
                        f"survive the predicted queue wait",
                        "shed",
                    )
                    return pending
            self._count("submitted")
            request.queue_span = self.tracer.span(
                "gateway.queue", parent=request.span
            )
            self._queue.append(request)
            self._queue_depth_gauge.set(len(self._queue))
            self._cond.notify()
        return pending

    def translate(
        self,
        sentence: str,
        workbook: Workbook | None = None,
        deadline: float | None | object = _UNSET,
        faults: str | None = None,
        wait: float | None = None,
    ) -> GatewayResult:
        """Synchronous ``submit`` + ``result``."""
        return self.submit(sentence, workbook, deadline, faults).result(wait)

    def translate_many(
        self,
        sentences: Iterable[str],
        workbook: Workbook | None = None,
        deadline: float | None | object = _UNSET,
        wait: float | None = None,
    ) -> list[GatewayResult]:
        """Submit a batch, then wait for every result (submission order)."""
        pendings = [
            self.submit(sentence, workbook, deadline) for sentence in sentences
        ]
        return [pending.result(wait) for pending in pendings]

    # -- lifecycle ----------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the gateway.  On return, every outstanding
        :class:`PendingResult` is resolved — none is left to block until
        its own caller-side timeout.

        ``drain=True`` tries to serve every already-queued request first;
        ``drain=False`` fails them with ``gateway_closed`` immediately.
        In-flight requests run to completion either way.  If a drain
        cannot finish within ``timeout`` seconds (hung workers, a queue
        deeper than the budget), the remaining *queued* requests are
        resolved with ``gateway_closed`` and the pool is torn down, which
        resolves the in-flight stragglers through the normal
        crash-containment path (``worker_crashed``).
        """
        with self._cond:
            self._closed = True
            if not drain:
                while self._queue:
                    request = self._queue.popleft()
                    self._reject(
                        request, "gateway_closed",
                        "gateway closed before dispatch", "closed_rejected",
                        count_submitted=False,  # counted at admission
                    )
                self._queue_depth_gauge.set(0)
            self._stopping = True
            self._cond.notify_all()
        deadline = _time.monotonic() + timeout
        for thread in self._runners:
            thread.join(timeout=max(0.0, deadline - _time.monotonic()))
        stragglers = any(thread.is_alive() for thread in self._runners)
        if stragglers:
            # The drain budget ran out: stop handing out work and resolve
            # everything still queued, so no waiter outlives close().
            with self._cond:
                self._aborting = True
                while self._queue:
                    request = self._queue.popleft()
                    self._reject(
                        request, "gateway_closed",
                        "gateway closed before dispatch (drain timed out)",
                        "closed_rejected",
                        count_submitted=False,  # counted at admission
                    )
                self._queue_depth_gauge.set(0)
                self._cond.notify_all()
            # Quarantine (not shutdown) while runners may still be inside
            # call(): it SIGKILLs the processes — which resolves the hung
            # in-flight requests as worker_crashed via pipe EOF — but
            # leaves the parent pipe ends open, so no runner ever races a
            # concurrently-closed handle.
            self._pool.quarantine()
            for thread in self._runners:
                thread.join(timeout=5.0)
        self._pool.shutdown()

    def __enter__(self) -> "TranslationGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # -- chaos knobs ---------------------------------------------------------------

    def kill_worker(self, slot: int | None = None) -> bool:
        """SIGKILL one live worker process (chaos injection).

        With ``slot=None`` the first live worker is killed.  Returns
        ``True`` if a process was killed.  The affected request (if any)
        resolves to ``worker_crashed``; the slot respawns with backoff.
        """
        slots = [slot] if slot is not None else range(self._pool.size)
        for s in slots:
            if self._pool.kill(s):
                return True
        return False

    def quarantine(self) -> int:
        """Kill every worker and refuse respawns — whole-shard death.

        Unlike :meth:`kill_worker`, the pool never comes back: queued and
        future dispatches resolve promptly as ``worker_crashed`` (see
        :meth:`~repro.serve.pool.WorkerPool.quarantine`).  This is the
        primitive ``repro.cluster`` uses to emulate losing an entire
        shard machine.  Returns the number of processes killed.
        """
        return self._pool.quarantine()

    @property
    def quarantined(self) -> bool:
        return self._pool.quarantined

    # -- diagnostics ----------------------------------------------------------------

    def stats(self) -> GatewayStats:
        counters = {
            name: int(self._events.value(event=name)) for name in _EVENTS
        }
        with self._ema_lock:
            ema = self._ema_call_seconds
        with self._cond:
            depth = len(self._queue)
            in_flight = self._in_flight
        workers = self._pool.stats()
        return GatewayStats(
            queue_depth=depth,
            in_flight=in_flight,
            restarts=sum(w.restarts for w in workers),
            avg_call_seconds=ema,
            registered_workbooks=len(self._registry),
            workers=workers,
            breakers=self._breakers.states(),
            cache=self._cache.stats() if self._cache is not None else None,
            **counters,
        )

    def snapshot(self) -> dict[str, Any]:
        """The ``snapshot()`` protocol (same shape as ``stats().snapshot()``)."""
        return self.stats().snapshot()

    def slo_report(self) -> dict[str, Any]:
        """The ``GET /slo`` document."""
        return self.telemetry.slo_report()

    def sampled_traces(self) -> list[str]:
        """Tail-sampled trace records as JSONL lines (oldest first)."""
        return self.telemetry.sampler.jsonl()

    # -- internals -----------------------------------------------------------------

    def _predicted_wait(self) -> float:
        """Expected seconds before a new request reaches a worker."""
        with self._ema_lock:
            ema = self._ema_call_seconds
        return (len(self._queue) / self._pool.size) * ema

    def _count(self, *names: str) -> None:
        for name in names:
            self._events.inc(event=name)

    def _close_span(self, request: _Request, result: GatewayResult) -> None:
        """Finish the request's root span with the outcome attached."""
        span = request.span
        if span is None:
            return
        if not result.ok:
            span.error(result.error).set(error_code=result.error_code)
        span.set(
            tier=result.tier,
            cached=result.cached,
            degraded=result.degraded,
            anytime=result.anytime,
            worker_id=result.worker_id,
        ).finish()

    def _resolve_hit(self, request: _Request, entry: dict) -> None:
        """Resolve a front-end cache hit without touching queue or pool."""
        now = self.clock()
        self._count("submitted", "completed", "ok", "cache_hits")
        self._cache.observe_hit(now - request.submitted_at)
        result = GatewayResult(
            ok=True,
            **replay_entry(entry),
            queue_seconds=0.0,
            total_seconds=now - request.submitted_at,
            fingerprint=request.fingerprint,
            cached=True,
        )
        self._close_span(request, result)
        self.telemetry.observe(result, trace_id=request.trace_id)
        request.pending._resolve(result)

    def _cancel_request(self, request: _Request) -> bool:
        """The :meth:`PendingResult.cancel` path: withdraw a queued request.

        Succeeds only while the request is still waiting for dispatch —
        removing it releases its bounded-queue slot to the next submit.
        A request already executing on a worker is not withdrawable (the
        worker finishes and its resolution is simply unobserved), and a
        request already resolved is a no-op.
        """
        with self._cond:
            try:
                self._queue.remove(request)
            except ValueError:
                return False
            self._queue_depth_gauge.set(len(self._queue))
        self._count("completed", "cancelled")
        _log.debug(
            "request cancelled before dispatch",
            extra=log_fields(
                request_id=request.id, fingerprint=request.fingerprint
            ),
        )
        if request.queue_span is not None:
            request.queue_span.error("cancelled").finish()
        now = self.clock()
        result = GatewayResult(
            ok=False,
            error_code="cancelled",
            error="cancelled by the caller before dispatch",
            fingerprint=request.fingerprint,
            queue_seconds=now - request.submitted_at,
            total_seconds=now - request.submitted_at,
        )
        self._close_span(request, result)
        self.telemetry.observe(result, trace_id=request.trace_id)
        request.pending._resolve(result)
        return True

    def _reject(
        self,
        request: _Request,
        code: str,
        message: str,
        bucket: str,
        count_submitted: bool = True,
    ) -> None:
        """Resolve a request that never reached a worker (counts itself)."""
        if count_submitted:
            self._count("submitted")
        self._count("completed", bucket)
        _log.debug(
            "request rejected",
            extra=log_fields(
                request_id=request.id, code=code,
                fingerprint=request.fingerprint,
            ),
        )
        if request.queue_span is not None:
            request.queue_span.error(code).finish()
        now = self.clock()
        result = GatewayResult(
            ok=False,
            error_code=code,
            error=message,
            fingerprint=request.fingerprint,
            queue_seconds=now - request.submitted_at,
            total_seconds=now - request.submitted_at,
        )
        self._close_span(request, result)
        self.telemetry.observe(result, trace_id=request.trace_id)
        request.pending._resolve(result)

    def _runner(self, slot: int) -> None:
        while True:
            request = self._next(slot)
            if request is None:
                return
            try:
                self._serve(slot, request)
            except Exception as exc:  # noqa: BLE001 - never lose a request
                self._finish(
                    request,
                    GatewayResult(
                        ok=False,
                        error_code="gateway_error",
                        error=f"{type(exc).__name__}: {exc}",
                        fingerprint=request.fingerprint,
                        worker_id=slot,
                    ),
                    "failed",
                )

    def _next(self, slot: int) -> _Request | None:
        """Block for the slot's next request (warm-affinity preferred)."""
        with self._cond:
            while True:
                if self._aborting:
                    return None
                if self._queue:
                    request = self._take(slot)
                    self._in_flight += 1
                    self._queue_depth_gauge.set(len(self._queue))
                    self._in_flight_gauge.set(self._in_flight)
                    return request
                if self._stopping:
                    return None
                self._cond.wait(timeout=0.1)

    def _take(self, slot: int) -> _Request:
        warm = self._pool.handles[slot].warm
        if warm:
            for i, request in enumerate(self._queue):
                if request.fingerprint in warm:
                    del self._queue[i]
                    return request
        return self._queue.popleft()

    def _serve(self, slot: int, request: _Request) -> None:
        now = self.clock()
        queue_seconds = now - request.submitted_at
        self._queue_seconds.observe(queue_seconds)
        if request.queue_span is not None:
            request.queue_span.set(seconds=round(queue_seconds, 6)).finish()
        if request.expires_at is not None:
            remaining = request.expires_at - now
            if remaining <= 0:
                self._finish(
                    request,
                    GatewayResult(
                        ok=False,
                        error_code="shed_overload",
                        error="deadline expired while queued",
                        fingerprint=request.fingerprint,
                        queue_seconds=queue_seconds,
                        total_seconds=queue_seconds,
                    ),
                    "shed",
                )
                return
            timeout = remaining + self.config.timeout_grace
        else:
            remaining = None
            timeout = self.config.request_timeout
        call_span = self.tracer.span(
            "gateway.worker_call", parent=request.span, slot=slot
        )
        message = {
            "id": request.id,
            "sentence": request.sentence,
            "fingerprint": request.fingerprint,
            "payload": request.payload,
            "deadline": remaining,
            "max_derivations": self.config.max_derivations,
            "top_k": self.config.top_k,
            "config": self.config.translator_config,
            "faults": request.faults,
            "cache": self.config.cache,
        }
        if self.tracer.enabled:
            # The worker opens its spans under the worker_call span; the
            # finished records come back in the reply for adoption.
            message["trace"] = {
                "trace_id": call_span.trace_id,
                "parent_id": call_span.span_id,
            }
        fingerprint = request.fingerprint
        try:
            handle = self._pool.ensure(slot)
            started = self.clock()
            reply = handle.call(message, timeout)
        except WorkerTimedOut as exc:
            self._worker_died(
                request, slot, call_span, queue_seconds,
                "worker_timeout", str(exc), "timed_out",
            )
        except WorkerCrashed as exc:
            self._worker_died(
                request, slot, call_span, queue_seconds,
                "worker_crashed", str(exc), "crashed",
            )
        else:
            duration = self.clock() - started
            call_span.set(warm=reply["warm"]).finish()
            worker = str(slot)
            self._worker_requests.inc(
                worker=worker, code=reply["error_code"] or "ok"
            )
            self._worker_seconds.observe(
                reply["elapsed"], worker=worker, tier=reply["tier"] or "none"
            )
            spans = reply.get("spans")
            if spans:
                # Worker clocks share no epoch with ours: shift the
                # records so the earliest lands at the call start (the
                # residual skew is one pipe send, microseconds).
                self.tracer.adopt(spans, align_to=call_span.start)
            self._call_seconds.observe(duration)
            self._pool.note_success(slot)
            handle.served += 1
            handle.warm.add(fingerprint)
            self._breakers.record_success(fingerprint)
            with self._ema_lock:
                self._ema_call_seconds = (
                    duration
                    if self._ema_call_seconds == 0.0
                    else 0.8 * self._ema_call_seconds + 0.2 * duration
                )
                self._ema_gauge.set(self._ema_call_seconds)
            result = GatewayResult(
                ok=reply["ok"],
                error_code=reply["error_code"],
                error=reply["error"],
                tier=reply["tier"],
                degraded=reply["degraded"],
                anytime=reply["anytime"],
                programs=[tuple(p) for p in reply["programs"]],
                n_candidates=reply["n_candidates"],
                top_formula=reply["top_formula"],
                elapsed=reply["elapsed"],
                budget_spent=reply["budget_spent"],
                queue_seconds=queue_seconds,
                total_seconds=self.clock() - request.submitted_at,
                worker_id=slot,
                fingerprint=fingerprint,
                warm=reply["warm"],
                service_cached=reply.get("cached", False),
            )
            entry = (
                cache_entry(result) if request.cache_key is not None else None
            )
            if entry is not None:
                self._cache.put(request.cache_key, entry)
                self._cache.observe_miss(duration)
            self._finish(request, result, "ok" if result.ok else "failed")

    def _worker_died(
        self,
        request: _Request,
        slot: int,
        call_span,
        queue_seconds: float,
        code: str,
        message: str,
        bucket: str,
    ) -> None:
        """Resolve a request whose worker crashed or hung.

        The trace tree stays complete: the worker's own spans died with
        it, so the gateway plants a ``worker_crashed`` / ``worker_timeout``
        error span where they would have been.
        """
        _log.warning(
            code,
            extra=log_fields(
                request_id=request.id, slot=slot,
                fingerprint=request.fingerprint,
            ),
        )
        self.tracer.span(code, parent=call_span, slot=slot).error(
            message
        ).finish()
        call_span.error(message).set(kind=code).finish()
        self._pool.note_crash(slot)  # a hung worker is killed, not reused
        self._note_breaker_failure(request.fingerprint)
        self._finish(
            request,
            GatewayResult(
                ok=False,
                error_code=code,
                error=message,
                fingerprint=request.fingerprint,
                queue_seconds=queue_seconds,
                total_seconds=self.clock() - request.submitted_at,
                worker_id=slot,
            ),
            bucket,
        )

    def _note_breaker_failure(self, fingerprint: str) -> None:
        """Feed the breaker; a closed → open trip declares every cached
        result for this workbook suspect and purges them."""
        state = self._breakers.record_failure(fingerprint)
        if state == OPEN:
            _log.warning(
                "circuit breaker opened",
                extra=log_fields(fingerprint=fingerprint),
            )
            if self._cache is not None:
                self._cache.invalidate(fingerprint)

    def _finish(
        self, request: _Request, result: GatewayResult, bucket: str
    ) -> None:
        self._count("completed", bucket)
        with self._cond:
            self._in_flight -= 1
            self._in_flight_gauge.set(self._in_flight)
        self._close_span(request, result)
        self.telemetry.observe(result, trace_id=request.trace_id)
        request.pending._resolve(result)
