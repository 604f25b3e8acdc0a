"""The gateway worker: one process, one request at a time.

``worker_main`` is the target of every pool process.  It speaks a tiny
pickled-dict protocol over a duplex pipe:

* request — ``{"id", "sentence", "fingerprint", "payload", "deadline",
  "max_derivations", "top_k", "faults", "cache"}`` (``payload`` is the
  pickled workbook; ``faults`` an optional ``REPRO_FAULTS``-style plan
  armed for this request only; ``cache`` asks the service for a
  per-process rung memo, :mod:`repro.cache`).  An optional ``trace``
  entry — ``{"trace_id", "parent_id"}`` — carries the gateway's trace
  context across the process boundary: the worker runs the request under
  a local :class:`~repro.obs.trace.Tracer`, opens a ``worker.translate``
  span as a child of the remote parent, and returns the finished span
  records in the reply (``"spans"``) for the gateway to stitch in;
* reply — a flat dict of primitives mirroring
  :class:`~repro.runtime.service.ServiceResult` (no DSL objects cross the
  boundary, so a reply never fails to unpickle); when the request set
  ``"telemetry"``, the reply piggybacks ``"metrics"`` — the worker
  registry's delta since the previous reply, encoded by the strict wire
  codec (:mod:`repro.obs.telemetry.codec`) for the gateway to fold;
* ``None`` — shutdown sentinel: the worker drains nothing and exits 0.

Workbooks are cached per fingerprint (bounded LRU) so repeat fingerprints
reuse a warm :class:`~repro.runtime.TranslationService` — this is the
cache the gateway's affinity routing tries to hit.

Crash semantics: the ``worker_crash`` fault stage fires *before*
translation; any exception it raises makes the process ``os._exit`` with
:data:`CRASH_EXIT_CODE` — no reply, no cleanup, no exception propagation —
which is the closest a pure-Python harness gets to a segfault or OOM
kill.  Everything else is wrapped by the ``TranslationService`` never-
crash contract plus a final belt-and-braces handler that reports
``internal_error`` rather than dying.
"""

from __future__ import annotations

import os
import pickle
from contextlib import nullcontext

# Imported eagerly so a fork()ed worker never takes the import lock for
# the translation stack mid-flight (the parent is multi-threaded).
from ..cache import ResultCache
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import DeltaTracker, encode_state
from ..obs.trace import Tracer
from ..rules import builtin_rules  # noqa: F401  (warms the import cache)
from ..runtime.faults import fault_point, install, installed, parse_plan
from ..runtime.service import TranslationService
from ..translate import TranslatorConfig  # noqa: F401  (warms the import cache)

__all__ = [
    "CRASH_EXIT_CODE",
    "SERVICE_CACHE_SIZE",
    "WORKER_CACHE_CAPACITY",
    "worker_main",
]

CRASH_EXIT_CODE = 23
SERVICE_CACHE_SIZE = 8
WORKER_CACHE_CAPACITY = 512  # per-service rung memo when the gateway caches

# Worker-side translate latency buckets: 1 ms .. 30 s, serving-scale.
_WORKER_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class _WorkerTelemetry:
    """Per-process registry + delta cursor for reply-pipe piggybacking.

    The worker records its own view of each request
    (``worker_requests_total``, ``worker_translate_seconds``) and ships
    only the increment since the previous reply, so blobs stay small and
    the gateway's fold is idempotent per reply.  Everything here is
    best-effort: a telemetry failure must never cost a reply.
    """

    def __init__(self, worker_id: int) -> None:
        self.registry = MetricsRegistry()
        self.worker_id = str(worker_id)
        self._tracker = DeltaTracker(self.registry)
        self._requests = self.registry.counter(
            "worker_requests_total", "requests finished by this worker"
        )
        self._seconds = self.registry.histogram(
            "worker_translate_seconds",
            "worker-side translate seconds by ladder rung",
            buckets=_WORKER_BUCKETS,
        )

    def record(self, reply: dict) -> bytes | None:
        self._requests.inc(
            worker=self.worker_id,
            code=reply.get("error_code") or "ok",
        )
        self._seconds.observe(
            float(reply.get("elapsed") or 0.0),
            worker=self.worker_id,
            tier=reply.get("tier") or "none",
        )
        delta = self._tracker.delta()
        return encode_state(delta) if delta else None


def _build_reply(request: dict, services: dict) -> dict:
    """Translate one request into a flat reply dict (never raises)."""
    fingerprint = request["fingerprint"]
    warm = fingerprint in services
    if warm:
        workbook, service = services[fingerprint]
    else:
        workbook = pickle.loads(request["payload"])
        service = TranslationService(
            workbook,
            config=request.get("config"),
            cache=(
                ResultCache(capacity=WORKER_CACHE_CAPACITY)
                if request.get("cache")
                else None
            ),
        )
        if len(services) >= SERVICE_CACHE_SIZE:
            services.pop(next(iter(services)))
        services[fingerprint] = (workbook, service)
    # Budgets are per request: the service object is warm state, the
    # deadline is whatever slice of the caller's deadline is left.
    service.deadline = request.get("deadline")
    service.max_derivations = request.get("max_derivations")

    # Trace context (if the gateway is tracing): run this request under a
    # short-lived local tracer parented to the gateway's worker_call span,
    # and ship the finished records back in the reply for adoption.
    trace_ctx = request.get("trace")
    spans: list[dict] = []
    if trace_ctx:
        tracer = Tracer()
        root = tracer.span(
            "worker.translate",
            trace_id=trace_ctx["trace_id"],
            parent_id=trace_ctx["parent_id"],
            warm=warm,
        )
        with root:
            result = service.translate(request["sentence"], tracer=tracer)
        spans = tracer.clear()
    else:
        result = service.translate(request["sentence"])

    top_k = request.get("top_k", 5)
    programs = [
        (str(c.program), c.score) for c in result.candidates[:top_k]
    ]
    top_formula = None
    if result.top is not None:
        try:
            top_formula = result.top.excel(workbook)
        except Exception:  # noqa: BLE001 - a render bug must not kill the reply
            top_formula = None
    return {
        "id": request["id"],
        "ok": result.ok,
        "error_code": result.error_code,
        "error": result.error,
        "tier": result.tier,
        "degraded": result.degraded,
        "anytime": result.anytime,
        "elapsed": result.elapsed,
        "budget_spent": result.budget_spent,
        "n_candidates": len(result.candidates),
        "programs": programs,
        "top_formula": top_formula,
        "warm": warm,
        "cached": result.cached,
        "spans": spans,
    }


def worker_main(conn, worker_id: int, worker_faults: str | None = None) -> None:
    """Process entry point: serve requests from ``conn`` until shutdown.

    A forked worker inherits the parent's warm intern, template, and
    columnar-index tables through copy-on-write."""
    if worker_faults:
        install(parse_plan(worker_faults))
    services: dict[str, tuple] = {}
    telemetry = _WorkerTelemetry(worker_id)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if request is None:
            break
        plan_text = request.get("faults")
        scope = installed(parse_plan(plan_text)) if plan_text else nullcontext()
        with scope:
            try:
                fault_point("worker_crash")
            except BaseException:  # noqa: BLE001 - deliberate hard death
                os._exit(CRASH_EXIT_CODE)
            try:
                reply = _build_reply(request, services)
            except Exception as exc:  # noqa: BLE001 - the never-crash contract
                reply = {
                    "id": request.get("id"),
                    "ok": False,
                    "error_code": "internal_error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "tier": None,
                    "degraded": True,
                    "anytime": False,
                    "elapsed": 0.0,
                    "budget_spent": 0,
                    "n_candidates": 0,
                    "programs": [],
                    "top_formula": None,
                    "warm": False,
                    "cached": False,
                }
        if request.get("telemetry"):
            try:
                blob = telemetry.record(reply)
                if blob is not None:
                    reply["metrics"] = blob
            except Exception:  # noqa: BLE001 - telemetry never costs a reply
                reply.pop("metrics", None)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
