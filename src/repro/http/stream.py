"""Streaming translation: anytime rankings pushed as they improve.

The HTTP front end's streaming mode (docs/HTTP.md) serves NDJSON records
from an **in-process** :class:`~repro.runtime.TranslationService` rather
than the worker pool: the anytime hook fires on the translating thread,
and marshalling every intermediate ranking across a process boundary
would cost more than the translation.  Translation is deterministic and
the gateway differential harness already proves the pooled path
byte-identical to the in-process one, so the final streamed record
matches what the pool would have returned for the same budget.

Two pieces live here:

* :class:`AnytimeEmitter` — the monotone gate.  The translator's
  ``progress`` hook fires once per DP width row, usually with the same
  ranking as last time.  The emitter keys each ranking by its score
  vector (compared lexicographically, longer-is-better on ties) and
  emits only strict improvements — so chunk *k* is never worse than
  chunk *k−1*, the property the conformance suite asserts.
* :class:`ServiceStreamer` — owns one service and runs a request to
  completion, feeding improvements to a caller-supplied ``emit``
  callable and returning the final :class:`ServiceResult`.  Thread-safe
  per request: the per-call ``deadline`` override means concurrent
  streams through one streamer never mutate shared state.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..obs.clock import perf
from ..runtime.service import ServiceResult, TranslationService
from ..sheet import Workbook
from ..translate import Candidate

__all__ = ["AnytimeEmitter", "ServiceStreamer", "result_payload"]


def result_payload(
    result: ServiceResult, workbook: Workbook, top_k: int
) -> dict:
    """The deterministic slice of a result, as the HTTP body renders it.

    The streaming differential checks this object's ranking fields
    against the golden digest of direct in-process calls, so it must
    contain no timing fields (those live under ``"serving"``).  The
    shape mirrors the gateway worker's reply dict.
    """
    programs = [
        [str(c.program), c.score] for c in result.candidates[:top_k]
    ]
    top_formula = None
    if result.top is not None:
        try:
            top_formula = result.top.excel(workbook)
        except Exception:  # noqa: BLE001 - a render bug must not kill the reply
            top_formula = None
    return {
        "ok": result.ok,
        "error_code": result.error_code,
        "error": result.error,
        "tier": result.tier,
        "degraded": result.degraded,
        "anytime": result.anytime,
        "n_candidates": len(result.candidates),
        "programs": programs,
        "top_formula": top_formula,
    }


class AnytimeEmitter:
    """Emit an update record only when the ranking strictly improves.

    The ranking key is the tuple of candidate scores in rank order; a
    candidate list is *better* when its key is lexicographically greater
    (a better top-1 wins outright; equal prefixes are broken by having
    more results).  Thread-safe: the translator may drive ``offer`` from
    a worker thread while the event loop drains the queue.
    """

    def __init__(self, top_k: int) -> None:
        self.top_k = top_k
        self._best: tuple[float, ...] | None = None
        self._seq = 0
        self._lock = threading.Lock()

    @staticmethod
    def _key(candidates: list[Candidate]) -> tuple[float, ...]:
        return tuple(c.score for c in candidates)

    def offer(self, tier: str, candidates: list[Candidate]) -> dict | None:
        """An update record for a strict improvement, else ``None``."""
        if not candidates:
            return None
        key = self._key(candidates)
        with self._lock:
            if self._best is not None and key <= self._best:
                return None
            self._best = key
            self._seq += 1
            seq = self._seq
        return {
            "event": "update",
            "seq": seq,
            "tier": tier,
            "n_candidates": len(candidates),
            "top_score": candidates[0].score,
            "programs": [
                [str(c.program), c.score] for c in candidates[: self.top_k]
            ],
        }

    @property
    def updates(self) -> int:
        with self._lock:
            return self._seq


class ServiceStreamer:
    """One in-process service shared by every streaming request.

    ``service`` may be injected directly (tests pass a stub with a
    compatible ``translate`` signature); otherwise one is built over
    ``workbook``.  ``clock`` feeds the service's budget arithmetic, so an
    injectable clock makes streaming deadlines deterministic under test.
    """

    def __init__(
        self,
        workbook: Workbook | None = None,
        *,
        service: TranslationService | None = None,
        config=None,
        cache=None,
        clock: Callable[[], float] = perf,
    ) -> None:
        if service is None:
            if workbook is None:
                raise ValueError("ServiceStreamer needs a workbook or a service")
            service = TranslationService(
                workbook, config=config, cache=cache, clock=clock
            )
        self.service = service

    @property
    def workbook(self) -> Workbook:
        return self.service.workbook

    def run(
        self,
        sentence: str,
        *,
        deadline: float | None,
        top_k: int,
        emit: Callable[[dict], None],
        tracer=None,
    ) -> tuple[ServiceResult, AnytimeEmitter]:
        """Translate ``sentence``, pushing improvements through ``emit``.

        Blocking — the HTTP server calls this in an executor thread.
        ``emit`` receives each update record on the translating thread
        and must be cheap and non-raising (the server's queue bridge is
        both).  Returns the final result and the emitter (whose
        ``updates`` count lands in the stream's summary record).
        """
        emitter = AnytimeEmitter(top_k)

        def on_update(tier: str, candidates: list[Candidate]) -> None:
            record = emitter.offer(tier, candidates)
            if record is not None:
                emit(record)

        result = self.service.translate(
            sentence, tracer=tracer, deadline=deadline, on_update=on_update
        )
        return result, emitter
