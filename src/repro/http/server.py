"""The asyncio HTTP front end over the gateway / cluster.

:class:`HttpServer` exposes the serving stack (docs/HTTP.md) on a TCP
port using nothing but stdlib ``asyncio`` streams:

* ``POST /translate`` — one translation; the JSON body carries the
  sentence, an optional per-request ``deadline_ms`` (mapped onto the
  runtime degradation ladder), and ``stream: true`` to switch to chunked
  NDJSON pushing the anytime ranking each time it improves;
* ``GET /metrics`` — Prometheus text exposition; a cluster backend's
  ``federated_render()`` merges every shard registry into one view,
  otherwise the shared :class:`~repro.obs.MetricsRegistry` is used;
* ``GET /slo`` — the backend's live SLO report (error budgets,
  multi-window burn-rate alerts, recent traffic) as JSON;
* ``GET /traces`` — finished span records as NDJSON;
  ``?sampled=1`` streams the tail sampler's retained request records;
* ``GET /stats`` — the backend's ``snapshot()`` as JSON;
* ``GET /healthz`` — liveness.

**Trace propagation.**  A well-formed incoming ``X-Repro-Trace-Id``
header is honoured: it becomes the request's trace id end to end
(gateway span, worker span, tail sample, histogram exemplar) and is
echoed on the response.  ``POST /translate`` mints a fresh id when the
client sent none, so every translation is traceable; the id also rides
in the JSON body (``trace_id``) and in a stream's ``final`` record.

**Backpressure is layered, never buffered.**  At the connection layer,
an accept beyond ``max_connections`` is answered ``503`` and closed
immediately.  At the request layer, the backend's bounded-queue
admission control decides: a shed (``shed_overload``) or open breaker
surfaces as ``503`` with ``Retry-After`` rather than queueing in the
front end.  A client that disconnects mid-request has its pending
gateway slot withdrawn via :meth:`PendingResult.cancel`, so abandoned
requests release queue capacity instead of occupying a worker.

The ``backend`` seam is anything with ``submit(sentence, ...) ->
PendingResult`` — a :class:`~repro.serve.TranslationGateway`, a
:class:`~repro.cluster.ShardedCluster`, or a test double.  Streaming is
served by an in-process :class:`~repro.http.stream.ServiceStreamer`
(see its module docstring for why the worker pool is bypassed).
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..obs.clock import monotonic
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, new_trace_id
from ..serve.gateway import GatewayResult
from .protocol import (
    CHUNK_TERMINATOR,
    BufferedConnection,
    Limits,
    ProtocolError,
    Request,
    encode_chunk,
    read_request,
    render_response,
    start_response,
)
from .stream import ServiceStreamer, result_payload

__all__ = ["HttpConfig", "HttpServer", "TRACE_HEADER", "status_for"]

_log = get_logger("http.server")

# Error codes that mean "try again shortly" — the serving tier refused or
# lost the request, it was not wrong.  Mapped to 503 + Retry-After.
RETRYABLE_CODES = frozenset(
    {"shed_overload", "circuit_open", "gateway_closed", "cluster_closed",
     "shard_down"}
)
# Deterministic input rejections (mirrors repro.runtime.INPUT_ERROR_CODES).
INPUT_CODES = frozenset(
    {"empty_description", "description_too_long", "symbols_only"}
)

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

# The trace-propagation header (docs/HTTP.md).  Incoming values are
# honoured only when they match this shape — anything else is replaced
# with a fresh id rather than echoed, so a hostile header can neither
# forge log lines nor smuggle bytes into the Prometheus exemplar export.
TRACE_HEADER = "X-Repro-Trace-Id"
_TRACE_ID_OK = re.compile(r"^[0-9a-zA-Z_-]{1,128}$")


def status_for(
    ok: bool, error_code: str | None, degraded: bool, anytime: bool
) -> int:
    """Map a translation outcome onto an HTTP status (docs/HTTP.md).

    ``200`` full-fidelity success; ``206`` partial — a success served
    degraded (cheaper ladder rung, or an anytime ranking under a tripped
    budget) and a deadline that exhausted with nothing; ``400`` the
    input can never translate; ``503`` + Retry-After the serving tier
    refused (shed, breaker, closed); ``502``/``504`` a worker died or
    timed out; ``500`` anything else.
    """
    if ok:
        return 206 if (degraded or anytime) else 200
    if error_code == "deadline_exhausted":
        return 206
    if error_code in RETRYABLE_CODES:
        return 503
    if error_code in INPUT_CODES:
        return 400
    if error_code == "worker_crashed":
        return 502
    if error_code == "worker_timeout":
        return 504
    return 500


@dataclass(frozen=True)
class HttpConfig:
    """Tunables for one :class:`HttpServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = kernel-assigned (tests); CLI passes a real port
    max_connections: int = 256  # concurrent; beyond this accepts get 503
    max_deadline: float = 30.0  # ceiling on client-requested deadlines
    # Streams must always be bounded: an abandoned stream's executor
    # thread runs to its deadline, so "no deadline" would leak threads.
    stream_default_deadline: float = 10.0
    request_wait: float = 120.0  # backstop on a stuck backend future
    top_k: int = 5
    max_top_k: int = 50
    retry_after: float = 1.0  # seconds, advertised on every 503
    limits: Limits = field(default_factory=Limits)


@dataclass
class _TranslateParams:
    sentence: str
    deadline: float | None  # None = backend default
    stream: bool
    top_k: int
    faults: str | None


class HttpServer:
    """Serve the translation stack over HTTP/1.1.

    ``metrics`` defaults to the backend's registry so ``/metrics`` shows
    one unified exposition; ``tracer`` likewise defaults to the
    backend's.  ``streamer`` defaults to an in-process streamer over the
    backend's default workbook (streaming requests 501 without one).
    Keyword ``overrides`` patch individual :class:`HttpConfig` fields.
    """

    def __init__(
        self,
        backend: Any,
        *,
        config: HttpConfig | None = None,
        streamer: ServiceStreamer | None = None,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        clock: Callable[[], float] = monotonic,
        **overrides: Any,
    ) -> None:
        base = config or HttpConfig()
        if overrides:
            base = replace(base, **overrides)
        self.config = base
        self.backend = backend
        self.clock = clock
        self.metrics = (
            metrics
            if metrics is not None
            else getattr(backend, "metrics", None) or MetricsRegistry(clock)
        )
        self.tracer = (
            tracer
            if tracer is not None
            else getattr(backend, "tracer", None) or NULL_TRACER
        )
        if streamer is None:
            workbook = getattr(backend, "default_workbook", None)
            if workbook is not None:
                streamer = ServiceStreamer(workbook, clock=clock)
        self.streamer = streamer

        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections = 0
        self._stopped: asyncio.Event | None = None
        self.port: int | None = None  # actual bound port, set by start()

        m = self.metrics
        self._requests = m.counter(
            "http_requests_total", "HTTP requests by endpoint and status"
        )
        self._request_seconds = m.histogram(
            "http_request_seconds", "HTTP request handling time"
        )
        self._conn_gauge = m.gauge(
            "http_connections", "open HTTP connections"
        )
        self._conn_rejected = m.counter(
            "http_connections_rejected_total",
            "connections refused at the max_connections gate",
        )
        self._disconnects = m.counter(
            "http_disconnects_total",
            "clients that hung up before their response",
        )
        self._cancelled = m.counter(
            "http_cancelled_total",
            "backend requests withdrawn after a client disconnect",
        )
        self._stream_updates = m.counter(
            "http_stream_updates_total", "anytime update records streamed"
        )
        self._protocol_errors = m.counter(
            "http_protocol_errors_total", "malformed/abusive requests by code"
        )

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting; ``self.port`` holds the bound port."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """``start()`` if needed, then block until :meth:`stop`."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopped is not None:
            self._stopped.set()

    def request_stop(self) -> None:
        """Thread-safe stop signal (used by tests and signal handlers)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(
                    lambda: asyncio.ensure_future(self.stop())
                )
            except RuntimeError:  # loop torn down under us
                pass

    # -- connection loop ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._connections >= self.config.max_connections:
            # Connection-level backpressure: refuse outright, never queue.
            self._conn_rejected.inc()
            try:
                writer.write(
                    render_response(
                        503,
                        _error_body(
                            "too_many_connections",
                            "connection limit reached; retry shortly",
                        ),
                        keep_alive=False,
                        extra_headers=[
                            ("Retry-After", _retry_after(self.config))
                        ],
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            await _close_writer(writer)
            return

        self._connections += 1
        self._conn_gauge.set(self._connections)
        conn = BufferedConnection(reader)
        try:
            await self._request_loop(conn, writer)
        except (ConnectionError, OSError):
            pass  # peer vanished mid-write; nothing left to tell them
        except asyncio.CancelledError:
            # Loop teardown cancels handler tasks; returning (rather than
            # propagating) keeps asyncio's protocol callback from logging
            # a spurious "Exception in callback" for every open keep-alive
            # connection at shutdown.
            pass
        except Exception:  # noqa: BLE001 - one bad connection must not kill accept
            _log.exception("connection handler failed")
        finally:
            self._connections -= 1
            self._conn_gauge.set(self._connections)
            await _close_writer(writer)

    async def _request_loop(
        self, conn: BufferedConnection, writer: asyncio.StreamWriter
    ) -> None:
        limits = self.config.limits
        while True:
            try:
                request = await read_request(
                    conn, limits, idle_timeout=limits.keep_alive_timeout
                )
            except asyncio.TimeoutError:
                return  # idle keep-alive expired; close quietly
            except ProtocolError as exc:
                self._protocol_errors.inc(code=exc.code)
                self._count(exc.status, "protocol")
                writer.write(
                    render_response(
                        exc.status,
                        _error_body(exc.code, str(exc)),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return  # parser state is unknowable; drop the connection
            if request is None:
                return  # clean EOF between requests
            with self.metrics.timer(
                "http_request_seconds", endpoint=request.path
            ):
                keep_going = await self._dispatch(request, conn, writer)
            if not keep_going or not request.keep_alive:
                return

    # -- routing --------------------------------------------------------------------

    async def _dispatch(
        self,
        request: Request,
        conn: BufferedConnection,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Handle one request; returns False to close the connection."""
        # Valid incoming X-Repro-Trace-Id is echoed on every endpoint;
        # /translate additionally mints one when the client sent none.
        trace_id = _incoming_trace_id(request)
        route = (request.method, request.path)
        if route == ("POST", "/translate"):
            return await self._translate(
                request, conn, writer, trace_id or new_trace_id()
            )
        if route == ("GET", "/healthz"):
            return await self._respond(
                writer, request, 200, _json_bytes({"status": "ok"}),
                trace_id=trace_id,
            )
        if route == ("GET", "/metrics"):
            # A cluster backend federates every shard registry into one
            # exposition; anything else exposes the shared registry.
            federated = getattr(self.backend, "federated_render", None)
            text = (
                federated() if federated is not None else self.metrics.render()
            ).encode("utf-8")
            return await self._respond(
                writer, request, 200, text,
                content_type="text/plain; version=0.0.4",
                trace_id=trace_id,
            )
        if route == ("GET", "/slo"):
            slo = getattr(self.backend, "slo_report", None)
            if slo is None:
                return await self._respond(
                    writer, request, 404,
                    _error_body("not_found", "backend has no SLO engine"),
                    trace_id=trace_id,
                )
            return await self._respond(
                writer, request, 200, _json_bytes(slo()), trace_id=trace_id
            )
        if route == ("GET", "/stats"):
            snapshot = getattr(self.backend, "snapshot", None)
            if snapshot is None:
                return await self._respond(
                    writer, request, 404,
                    _error_body("not_found", "backend has no snapshot()"),
                    trace_id=trace_id,
                )
            return await self._respond(
                writer, request, 200, _json_bytes(snapshot()),
                trace_id=trace_id,
            )
        if route == ("GET", "/traces"):
            return await self._traces(request, writer, trace_id)
        known = {
            "/translate", "/healthz", "/metrics", "/slo", "/stats", "/traces",
        }
        if request.path in known:
            return await self._respond(
                writer, request, 405,
                _error_body(
                    "method_not_allowed",
                    f"{request.method} not supported on {request.path}",
                ),
                trace_id=trace_id,
            )
        return await self._respond(
            writer, request, 404,
            _error_body("not_found", f"no route for {request.path}"),
            trace_id=trace_id,
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        request: Request,
        status: int,
        body: bytes,
        *,
        content_type: str = _JSON,
        extra_headers: list[tuple[str, str]] | None = None,
        trace_id: str | None = None,
    ) -> bool:
        self._count(status, request.path)
        keep = request.keep_alive
        if trace_id is not None:
            extra_headers = list(extra_headers or [])
            extra_headers.append((TRACE_HEADER, trace_id))
        writer.write(
            render_response(
                status, body,
                content_type=content_type,
                extra_headers=extra_headers,
                keep_alive=keep,
            )
        )
        await writer.drain()
        return keep

    async def _traces(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        trace_id: str | None = None,
    ) -> bool:
        """Stream trace records as NDJSON (chunked).

        Default mode streams finished span records from
        :func:`repro.obs.spans_jsonl`, so a downloaded trace is
        byte-compatible with a ``--trace-out`` span log file.
        ``?sampled=1`` streams the tail sampler's retained request
        records instead (every error/shed/slow request plus a
        probabilistic slice of OK traffic) when the backend has one.
        """
        from ..obs.export import spans_jsonl

        if request.query.get("sampled") in ("1", "true"):
            sampled = getattr(self.backend, "sampled_traces", None)
            if sampled is None:
                return await self._respond(
                    writer, request, 404,
                    _error_body("not_found", "backend has no tail sampler"),
                    trace_id=trace_id,
                )
            lines = list(sampled())  # \n-terminated JSONL already
        else:
            lines = list(spans_jsonl(self.tracer))
        self._count(200, request.path)
        extra = [(TRACE_HEADER, trace_id)] if trace_id is not None else None
        writer.write(start_response(200, extra_headers=extra))
        for line in lines:
            writer.write(encode_chunk(line.encode("utf-8")))
            await writer.drain()
        writer.write(CHUNK_TERMINATOR)
        await writer.drain()
        return False  # chunked responses advertise Connection: close

    # -- /translate -----------------------------------------------------------------

    def _parse_translate(self, request: Request) -> _TranslateParams:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                400, "bad_request", f"body is not valid JSON: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise ProtocolError(
                400, "bad_request", "body must be a JSON object"
            )
        sentence = payload.get("sentence")
        if not isinstance(sentence, str):
            raise ProtocolError(
                400, "bad_request", '"sentence" (string) is required'
            )
        deadline: float | None = None
        raw_deadline = payload.get("deadline_ms")
        if raw_deadline is not None:
            if not isinstance(raw_deadline, (int, float)) or isinstance(
                raw_deadline, bool
            ) or raw_deadline <= 0:
                raise ProtocolError(
                    400, "bad_request",
                    '"deadline_ms" must be a positive number',
                )
            deadline = min(raw_deadline / 1000.0, self.config.max_deadline)
        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise ProtocolError(
                400, "bad_request", '"stream" must be a boolean'
            )
        top_k = payload.get("top_k", self.config.top_k)
        if not isinstance(top_k, int) or isinstance(top_k, bool) or not (
            1 <= top_k <= self.config.max_top_k
        ):
            raise ProtocolError(
                400, "bad_request",
                f'"top_k" must be an integer in [1, {self.config.max_top_k}]',
            )
        faults = payload.get("faults")
        if faults is not None and not isinstance(faults, str):
            raise ProtocolError(
                400, "bad_request", '"faults" must be a string plan'
            )
        return _TranslateParams(
            sentence=sentence,
            deadline=deadline,
            stream=stream,
            top_k=top_k,
            faults=faults,
        )

    async def _translate(
        self,
        request: Request,
        conn: BufferedConnection,
        writer: asyncio.StreamWriter,
        trace_id: str,
    ) -> bool:
        try:
            params = self._parse_translate(request)
        except ProtocolError as exc:
            self._protocol_errors.inc(code=exc.code)
            return await self._respond(
                writer, request, exc.status, _error_body(exc.code, str(exc)),
                trace_id=trace_id,
            )
        if params.stream:
            return await self._translate_stream(
                request, params, writer, trace_id
            )
        return await self._translate_unary(
            request, params, conn, writer, trace_id
        )

    async def _translate_unary(
        self,
        request: Request,
        params: _TranslateParams,
        conn: BufferedConnection,
        writer: asyncio.StreamWriter,
        trace_id: str,
    ) -> bool:
        loop = asyncio.get_running_loop()
        kwargs: dict[str, Any] = {}
        if params.deadline is not None:
            kwargs["deadline"] = params.deadline
        if params.faults is not None:
            kwargs["faults"] = params.faults
        try:
            pending = self.backend.submit(
                params.sentence, trace_id=trace_id, **kwargs
            )
        except Exception as exc:  # noqa: BLE001 - surface, don't crash the conn
            _log.exception("backend submit failed")
            return await self._respond(
                writer, request, 500,
                _error_body("internal_error", f"{type(exc).__name__}: {exc}"),
                trace_id=trace_id,
            )

        future: asyncio.Future = loop.create_future()
        pending.add_done_callback(
            lambda result: _resolve_threadsafe(loop, future, result)
        )
        # The disconnect watch: while the backend works, one read is kept
        # outstanding.  EOF → the client hung up, withdraw the request so
        # its bounded-queue slot frees; data → a pipelined request, push
        # it back for the next loop iteration.
        watcher = asyncio.ensure_future(conn.read_any())
        try:
            result = await self._await_result(pending, future, watcher, conn)
        finally:
            if not watcher.done():
                watcher.cancel()
        if result is None:  # client gone; nothing to write
            self._disconnects.inc(endpoint=request.path)
            return False
        return await self._write_result(
            writer, request, params, result, trace_id
        )

    async def _await_result(self, pending, future, watcher, conn):
        """Wait for the backend, watching for a client disconnect.

        Returns the backend result, or ``None`` if the client hung up.
        """
        deadline = self.clock() + self.config.request_wait
        while True:
            remaining = deadline - self.clock()
            if remaining <= 0:
                pending.cancel()
                return GatewayResult(
                    ok=False,
                    error_code="gateway_error",
                    error="backend future did not resolve within request_wait",
                )
            done, _ = await asyncio.wait(
                {future, watcher},
                timeout=remaining,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if future in done:
                if watcher.done() and not watcher.cancelled():
                    exc = watcher.exception()
                    if exc is None:
                        data = watcher.result()
                        if data:
                            conn.pushback(data)
                return future.result()
            if watcher in done:
                exc = watcher.exception()
                data = b"" if exc is not None else watcher.result()
                if data:
                    # Pipelined bytes, not a disconnect: bank them and
                    # keep waiting for the backend.
                    conn.pushback(data)
                    done2, _ = await asyncio.wait(
                        {future}, timeout=max(0.0, deadline - self.clock())
                    )
                    if future in done2:
                        return future.result()
                    continue
                # EOF (or a transport error): the client is gone.
                if pending.cancel():
                    self._cancelled.inc()
                return None

    async def _write_result(
        self,
        writer: asyncio.StreamWriter,
        request: Request,
        params: _TranslateParams,
        result: Any,
        trace_id: str,
    ) -> bool:
        status = status_for(
            result.ok, result.error_code, result.degraded, result.anytime
        )
        body = {
            "result": _result_of(result, params.top_k),
            "serving": _serving_of(result),
            "trace_id": trace_id,
        }
        extra = None
        if status == 503:
            extra = [("Retry-After", _retry_after(self.config))]
        return await self._respond(
            writer, request, status, _json_bytes(body), extra_headers=extra,
            trace_id=trace_id,
        )

    # -- streaming ------------------------------------------------------------------

    async def _translate_stream(
        self,
        request: Request,
        params: _TranslateParams,
        writer: asyncio.StreamWriter,
        trace_id: str,
    ) -> bool:
        if self.streamer is None:
            return await self._respond(
                writer, request, 501,
                _error_body(
                    "not_implemented",
                    "this server has no in-process streamer configured",
                ),
                trace_id=trace_id,
            )
        loop = asyncio.get_running_loop()
        updates: asyncio.Queue = asyncio.Queue()

        def emit(record: dict) -> None:
            # Called on the executor thread per improvement.
            try:
                loop.call_soon_threadsafe(updates.put_nowait, record)
            except RuntimeError:  # loop closed mid-stream
                pass

        deadline = (
            params.deadline
            if params.deadline is not None
            else self.config.stream_default_deadline
        )
        started = self.clock()
        work = _spawn_stream_work(
            loop,
            lambda: self.streamer.run(
                params.sentence,
                deadline=deadline,
                top_k=params.top_k,
                emit=emit,
            ),
        )
        # The status line goes out before the outcome is known — that is
        # the nature of streaming.  The real status rides in the final
        # record; the conformance suite asserts on it there.
        self._count(200, request.path)
        try:
            writer.write(
                start_response(
                    200, extra_headers=[(TRACE_HEADER, trace_id)]
                )
            )
            await writer.drain()
            await self._pump_stream(
                writer, request, params, work, updates, started, trace_id
            )
        except (ConnectionError, OSError):
            # Client hung up mid-stream.  The executor thread is bounded
            # by the stream deadline; let it finish unobserved.
            self._disconnects.inc(endpoint=request.path)
            work.add_done_callback(_swallow_result)
        return False  # streams always close

    async def _pump_stream(
        self, writer, request, params, work, updates, started, trace_id
    ) -> bool:
        while True:
            getter = asyncio.ensure_future(updates.get())
            done, _ = await asyncio.wait(
                {getter, work}, return_when=asyncio.FIRST_COMPLETED
            )
            if getter in done:
                await self._write_chunk(writer, getter.result(), request)
                continue
            getter.cancel()
            # Drain improvements that raced the finish.
            while True:
                try:
                    record = updates.get_nowait()
                except asyncio.QueueEmpty:
                    break
                await self._write_chunk(writer, record, request)
            break
        try:
            result, emitter = work.result()
        except Exception as exc:  # noqa: BLE001 - report in-band, then close
            _log.exception("streamer failed")
            final = {
                "event": "error",
                "error_code": "internal_error",
                "error": f"{type(exc).__name__}: {exc}",
                "trace_id": trace_id,
            }
            writer.write(_chunk_of(final) + CHUNK_TERMINATOR)
            await writer.drain()
            return True
        status = status_for(
            result.ok, result.error_code, result.degraded, result.anytime
        )
        final = {
            "event": "final",
            "status": status,
            "result": result_payload(
                result, self.streamer.workbook, params.top_k
            ),
            "serving": {
                "elapsed": result.elapsed,
                "budget_spent": result.budget_spent,
                "total_seconds": self.clock() - started,
                "streamed": True,
                "cached": result.cached,
            },
            "updates": emitter.updates,
            "trace_id": trace_id,
        }
        writer.write(_chunk_of(final) + CHUNK_TERMINATOR)
        await writer.drain()
        return True

    async def _write_chunk(self, writer, record: dict, request) -> None:
        self._stream_updates.inc(endpoint=request.path)
        writer.write(_chunk_of(record))
        await writer.drain()

    # -- small helpers --------------------------------------------------------------

    def _count(self, status: int, endpoint: str) -> None:
        self._requests.inc(endpoint=endpoint, status=status)


# -- module helpers ---------------------------------------------------------------


def _incoming_trace_id(request: Request) -> str | None:
    """The client's ``X-Repro-Trace-Id`` if present and well-formed."""
    value = request.headers.get(TRACE_HEADER.lower())
    if value is not None and _TRACE_ID_OK.match(value):
        return value
    return None


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def _chunk_of(record: dict) -> bytes:
    return encode_chunk(_json_bytes(record) + b"\n")


def _error_body(code: str, message: str) -> bytes:
    return _json_bytes({"error_code": code, "error": message})


def _retry_after(config: HttpConfig) -> str:
    return str(max(1, round(config.retry_after)))


def _result_of(result: Any, top_k: int) -> dict:
    """The deterministic slice of a gateway/cluster result."""
    return {
        "ok": result.ok,
        "error_code": result.error_code,
        "error": result.error,
        "tier": result.tier,
        "degraded": result.degraded,
        "anytime": result.anytime,
        "n_candidates": result.n_candidates,
        "programs": [list(p) for p in result.programs[:top_k]],
        "top_formula": result.top_formula,
    }


def _serving_of(result: Any) -> dict:
    serving = {
        "elapsed": result.elapsed,
        "queue_seconds": result.queue_seconds,
        "total_seconds": result.total_seconds,
        "worker_id": result.worker_id,
        "fingerprint": result.fingerprint,
        "warm": result.warm,
        "cached": result.cached,
        "service_cached": result.service_cached,
    }
    for extra in ("shard_id", "attempts", "rerouted"):  # cluster results
        if hasattr(result, extra):
            serving[extra] = getattr(result, extra)
    return serving


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    except asyncio.CancelledError:
        # Best-effort close racing loop teardown: the transport is torn
        # down with the loop anyway, and propagating here would surface
        # as a spurious asyncio "Exception in callback" log.
        pass


def _spawn_stream_work(
    loop: asyncio.AbstractEventLoop, fn: Callable[[], Any]
) -> asyncio.Future:
    """Run ``fn`` on a dedicated thread; resolve an asyncio future with it.

    Deliberately NOT ``loop.run_in_executor``: ``concurrent.futures``
    guards every ``submit`` with a module-global lock whose
    ``os.register_at_fork`` handlers race the gateway's worker forks —
    under a kill storm the parent's release can fire unpaired and
    ``submit`` dies with ``RuntimeError: release unlocked lock`` before
    the stream head is written.  A plain thread has no fork hooks to
    corrupt, and streams are already bounded by ``max_connections``.
    """
    future: asyncio.Future = loop.create_future()

    def runner() -> None:
        try:
            result = fn()
        except BaseException as exc:  # noqa: BLE001 - reported in-band
            def fail(exc=exc) -> None:
                if not future.done():
                    future.set_exception(exc)
            try:
                loop.call_soon_threadsafe(fail)
            except RuntimeError:  # loop closed; nobody is listening
                pass
        else:
            _resolve_threadsafe(loop, future, result)

    threading.Thread(
        target=runner, name="http-streamer", daemon=True
    ).start()
    return future


def _resolve_threadsafe(
    loop: asyncio.AbstractEventLoop, future: asyncio.Future, result: Any
) -> None:
    """Bridge a PendingResult callback (any thread) onto the loop."""

    def apply() -> None:
        if not future.done():
            future.set_result(result)

    try:
        loop.call_soon_threadsafe(apply)
    except RuntimeError:  # loop already closed; the result is moot
        pass


def _swallow_result(task) -> None:
    try:
        task.exception()
    except (asyncio.CancelledError, Exception):  # noqa: BLE001
        pass
