"""Chaos through the front door: SIGKILL workers under HTTP load.

The serving-stack guarantee, restated at the socket layer: with worker
processes dying underneath the gateway, **every HTTP connection still
receives a complete, well-formed response** — a parseable status line,
a coded JSON body, and for streams a chunked body that always ends with
the 0-chunk terminator.  No hung sockets, no half-written NDJSON.

``REPRO_CHAOS_REQUESTS`` scales the storm (default 120, ≥100 of them
concurrent).  Every kill lands while requests wait in the queue, so each
live worker is mid-request when it dies, and the storm must hand at
least ``MIN_CRASHED`` ``worker_crashed`` replies back through the
socket.  ``REPRO_CHAOS_TRACE_DIR`` dumps the gateway span log as a
CI artifact, same contract as the gateway/cluster chaos lanes.
"""

from __future__ import annotations

import json
import os
import random
import threading

import pytest

from repro.obs import Tracer
from repro.obs.export import write_spans_jsonl
from repro.serve import TranslationGateway

from ..conftest import make_payroll
from ..serve.waiters import wait_until
from .conftest import http_request

N_REQUESTS = int(os.environ.get("REPRO_CHAOS_REQUESTS", "120"))
WORKERS = 3
ALLOWED_STATUSES = {200, 206, 502, 503, 504}
ALLOWED_CODES = {None, "worker_crashed", "worker_timeout", "shed_overload",
                 "circuit_open", "deadline_exhausted"}
MIN_CRASHED = 3

SENTENCES = [
    "sum the hours",
    "count the employees",
    "sum the totalpay for the capitol hill baristas",
    "average the rate",
]

pytestmark = pytest.mark.slow


@pytest.fixture
def chaos_tracer(request):
    out_dir = os.environ.get("REPRO_CHAOS_TRACE_DIR")
    tracer = Tracer() if out_dir else None
    yield tracer
    if out_dir and tracer is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{request.node.name}.spans.jsonl")
        n = write_spans_jsonl(tracer, path)
        print(f"chaos trace: {n} spans -> {path}")


def test_worker_kills_under_http_load(make_server, chaos_tracer):
    workbook = make_payroll()
    gateway = TranslationGateway(
        workbook,
        workers=WORKERS,
        queue_limit=max(N_REQUESTS * 2, 256),
        breaker_threshold=10_000,  # chaos kills must not poison a workbook
        restart_backoff=0.01,
        restart_backoff_cap=0.1,
        tracer=chaos_tracer,
    )
    try:
        server = make_server(gateway, max_connections=N_REQUESTS * 2 + 16)
        rng = random.Random(0xC4A05)
        stop_killing = threading.Event()

        def busy_workers():
            """Live workers while requests wait in the queue: each of
            them holds a request (a runner takes the next one as soon as
            it finishes one), so a kill lands mid-request."""
            stats = gateway.stats()
            if stats.queue_depth == 0:
                return []
            return [w.worker_id for w in stats.workers if w.alive]

        def killer():
            while True:
                busy = wait_until(
                    lambda: stop_killing.is_set() or busy_workers(),
                    timeout=120,
                )
                if stop_killing.is_set():
                    return
                gateway.kill_worker(rng.choice(busy))
                if stop_killing.wait(rng.uniform(0.002, 0.01)):
                    return

        chaos = threading.Thread(target=killer, name="chaos-killer", daemon=True)

        outcomes: list = [None] * N_REQUESTS
        barrier = threading.Barrier(N_REQUESTS + 1)

        def client(i: int) -> None:
            stream = i % 10 == 9  # every tenth request streams
            body = {"sentence": SENTENCES[i % len(SENTENCES)]}
            if stream:
                body["stream"] = True
                body["deadline_ms"] = 5000
            barrier.wait(timeout=60)
            try:
                resp = http_request(
                    server.port, "POST", "/translate", body=body, timeout=90
                )
                outcomes[i] = ("resp", stream, resp)
            except Exception as exc:  # noqa: BLE001 - recorded, then asserted
                outcomes[i] = ("exc", stream, exc)

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(N_REQUESTS)
        ]
        for thread in threads:
            thread.start()
        chaos.start()
        barrier.wait(timeout=60)  # all clients connected: release the storm
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "an HTTP client hung"
        stop_killing.set()
        chaos.join(timeout=10)

        exceptions = [o for o in outcomes if o is not None and o[0] == "exc"]
        assert not exceptions, f"connections died uncoded: {exceptions[:3]}"
        assert all(o is not None for o in outcomes)

        crashed = 0
        for _, stream, resp in outcomes:
            assert resp.status in ALLOWED_STATUSES, resp.status
            if stream:
                # A stream is only well-formed if the terminator arrived.
                assert resp.terminated, "NDJSON stream without terminator"
                records = resp.ndjson()
                assert records[-1]["event"] in ("final", "error")
            else:
                body = resp.json()
                assert body["result"]["error_code"] in ALLOWED_CODES
                crashed += body["result"]["error_code"] == "worker_crashed"
        # The kills landed mid-request and reached the client coded.
        print(f"worker_crashed replies: {crashed} of {N_REQUESTS}")
        assert crashed >= MIN_CRASHED, crashed

        # The stack recovers: workers respawn and serve again.
        wait_until(
            lambda: not gateway.quarantined, timeout=30,
            message="gateway never recovered from the storm",
        )
        resp = http_request(
            server.port, "POST", "/translate",
            body={"sentence": "sum the hours"}, timeout=60,
        )
        assert resp.status in (200, 206)
    finally:
        gateway.close(drain=False)


def test_kill_mid_stream_still_terminates(make_server):
    """Streams are served in-process, so a dead worker pool must not be
    able to leave a stream unterminated — even with every worker down."""
    workbook = make_payroll()
    gateway = TranslationGateway(
        workbook, workers=1, restart_backoff=0.01, restart_backoff_cap=0.1
    )
    try:
        server = make_server(gateway)
        gateway.kill_worker(0)
        resp = http_request(
            server.port, "POST", "/translate",
            body={"sentence": "sum the hours", "stream": True,
                  "deadline_ms": 5000},
            timeout=60,
        )
        assert resp.terminated
        final = resp.ndjson()[-1]
        assert final["event"] == "final"
        assert final["status"] in (200, 206)
    finally:
        gateway.close(drain=False)
