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
  boundary, so a reply never fails to unpickle).  The gateway records
  its per-worker series (``worker_requests_total``,
  ``worker_translate_seconds``) from the reply's ``error_code``,
  ``tier`` and ``elapsed``; the worker keeps no metrics of its own;
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


def worker_main(conn, worker_faults: str | None = None) -> None:
    """Process entry point: serve requests from ``conn`` until shutdown.

    A forked worker inherits the parent's warm intern, template, and
    columnar-index tables through copy-on-write."""
    if worker_faults:
        install(parse_plan(worker_faults))
    services: dict[str, tuple] = {}
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
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
