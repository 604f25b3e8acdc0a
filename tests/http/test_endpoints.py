"""Golden request/response conformance for every endpoint and error code.

One test per row of the status-mapping table in docs/HTTP.md: the
backend is scripted to produce each outcome and the wire response —
status line, headers, body shape — is asserted exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import ShardedCluster
from repro.http import status_for
from repro.http.server import INPUT_CODES, RETRYABLE_CODES, TRACE_HEADER
from repro.obs.telemetry import default_slos
from repro.serve import TranslationGateway

from .conftest import FakeBackend, http_request, make_result


def _translate(server, sentence="sum the hours", **extra):
    body = {"sentence": sentence, **extra}
    return http_request(server.port, "POST", "/translate", body=body)


# -- plumbing endpoints --------------------------------------------------------------


def test_healthz(fake_server):
    _, server = fake_server
    resp = http_request(server.port, "GET", "/healthz")
    assert resp.status == 200
    assert resp.json() == {"status": "ok"}
    assert resp.headers["content-type"] == "application/json"


def test_metrics_exposition(fake_server):
    backend, server = fake_server
    _translate(server)
    resp = http_request(server.port, "GET", "/metrics")
    assert resp.status == 200
    assert resp.headers["content-type"].startswith("text/plain")
    text = resp.body.decode("utf-8")
    assert "# TYPE http_requests_total counter" in text
    assert 'http_requests_total{endpoint="/translate",status="200"} 1.0' in text
    # The server registers into the backend's registry: one exposition.
    assert backend.metrics.counter("http_requests_total").value(
        endpoint="/translate", status=200
    ) == 1.0


def test_stats_serves_backend_snapshot(fake_server):
    backend, server = fake_server
    _translate(server)
    resp = http_request(server.port, "GET", "/stats")
    assert resp.status == 200
    assert resp.json()["submitted"] == len(backend.submissions) == 1


def test_stats_serves_a_cluster_snapshot(make_server, payroll_workbook):
    """A real cluster's ``/stats`` is plain JSON all the way down: its
    front cache's stats arrive as an object with integer counts, not as
    the repr string a leaked stats object would serialise to."""
    cluster = ShardedCluster(payroll_workbook, shards=2, workers_per_shard=1)
    try:
        server = make_server(cluster)
        for _ in range(2):
            assert _translate(server).status == 200
        resp = http_request(server.port, "GET", "/stats")
    finally:
        cluster.close(drain=False)
    assert resp.status == 200
    shared = resp.json()["shared_cache"]
    assert isinstance(shared, dict), shared
    assert (shared["hits"], shared["puts"]) == (1, 1)
    assert all(type(shared[k]) is int for k in ("hits", "puts"))


def test_traces_streams_ndjson(make_server, payroll_workbook):
    from repro.obs import Tracer

    tracer = Tracer()
    with tracer.span("unit.test", request_id=7):
        pass
    backend = FakeBackend()
    server = make_server(backend, tracer=tracer)
    resp = http_request(server.port, "GET", "/traces")
    assert resp.status == 200
    assert resp.chunked and resp.terminated
    records = resp.ndjson()
    assert [r["name"] for r in records] == ["unit.test"]
    assert records[0]["attrs"]["request_id"] == 7


def test_slo_and_sampled_traces_from_a_gateway(make_server, payroll_workbook):
    """A real gateway's telemetry plane over HTTP: ``/slo`` reports the
    stock objectives, and a failed request filed under a known trace id
    is kept by the tail sampler."""
    with TranslationGateway(payroll_workbook, workers=1) as gateway:
        server = make_server(gateway)
        resp = http_request(
            server.port, "POST", "/translate",
            body={"sentence": "sum the hours",
                  "faults": "tokenize:raise:runtime"},
            headers={TRACE_HEADER: "slo-err-1"},
            timeout=60,
        )
        assert resp.json()["result"]["error_code"] == "internal_error"

        slo = http_request(server.port, "GET", "/slo")
        assert slo.status == 200
        report = slo.json()
        assert report["scope"] == "gateway"
        assert [s["name"] for s in report["slos"]] == [
            spec.name for spec in default_slos(0.5)
        ]

        traces = http_request(server.port, "GET", "/traces?sampled=1")
        assert traces.status == 200
        records = {r["trace_id"]: r for r in traces.ndjson()}
        assert records["slo-err-1"]["verdict"] == "error"


@pytest.mark.parametrize("path", ["/slo", "/traces?sampled=1"])
def test_telemetry_endpoints_404_without_a_telemetry_plane(fake_server, path):
    _, server = fake_server
    resp = http_request(server.port, "GET", path)
    assert resp.status == 404
    body = resp.json()
    assert body["error_code"] == "not_found"
    assert "telemetry off" not in body["error"]


def test_unknown_path_404(fake_server):
    _, server = fake_server
    resp = http_request(server.port, "GET", "/nope")
    assert resp.status == 404
    assert resp.json()["error_code"] == "not_found"


def test_wrong_method_405(fake_server):
    _, server = fake_server
    resp = http_request(server.port, "GET", "/translate")
    assert resp.status == 405
    assert resp.json()["error_code"] == "method_not_allowed"
    assert http_request(server.port, "POST", "/metrics").status == 405


# -- /translate success shapes -------------------------------------------------------


def test_translate_ok_golden(fake_server):
    backend, server = fake_server
    resp = _translate(server, sentence="sum the hours")
    assert resp.status == 200
    body = resp.json()
    assert body["result"] == {
        "ok": True,
        "error_code": None,
        "error": None,
        "tier": "full",
        "degraded": False,
        "anytime": False,
        "n_candidates": 2,
        "programs": [["Sum(hours)", 0.9], ["Count(hours)", 0.4]],
        "top_formula": "=SUM(D2:D7)",
    }
    serving = body["serving"]
    assert serving["worker_id"] == 0 and serving["warm"] is False
    assert backend.submissions == [("sum the hours", {})]


def test_translate_deadline_ms_forwarded(fake_server):
    backend, server = fake_server
    resp = _translate(server, deadline_ms=250)
    assert resp.status == 200
    assert backend.submissions[0][1] == {"deadline": 0.25}


def test_translate_deadline_clamped_to_max(fake_server):
    backend, server = fake_server
    _translate(server, deadline_ms=10_000_000)
    assert backend.submissions[0][1]["deadline"] == pytest.approx(30.0)


def test_translate_top_k_truncates_programs(fake_server):
    _, server = fake_server
    resp = _translate(server, top_k=1)
    assert resp.json()["result"]["programs"] == [["Sum(hours)", 0.9]]


def test_translate_degraded_is_206(make_server):
    backend = FakeBackend(
        responder=lambda s, **kw: make_result(tier="reduced", degraded=True)
    )
    server = make_server(backend)
    resp = _translate(server)
    assert resp.status == 206
    assert resp.json()["result"]["degraded"] is True


def test_translate_anytime_is_206(make_server):
    backend = FakeBackend(
        responder=lambda s, **kw: make_result(degraded=True, anytime=True)
    )
    server = make_server(backend)
    assert _translate(server).status == 206


# -- /translate error mapping --------------------------------------------------------


def _error_backend(code, message="scripted failure"):
    return FakeBackend(
        responder=lambda s, **kw: make_result(
            ok=False, error_code=code, error=message, tier=None,
            programs=[], n_candidates=0, top_formula=None,
        )
    )


@pytest.mark.parametrize("code", sorted(RETRYABLE_CODES))
def test_retryable_codes_are_503_with_retry_after(make_server, code):
    server = make_server(_error_backend(code))
    resp = _translate(server)
    assert resp.status == 503
    assert resp.headers["retry-after"] == "1"
    assert resp.json()["result"]["error_code"] == code


@pytest.mark.parametrize("code", sorted(INPUT_CODES))
def test_input_rejections_are_400(make_server, code):
    server = make_server(_error_backend(code))
    resp = _translate(server)
    assert resp.status == 400
    assert resp.json()["result"]["error_code"] == code


def test_deadline_exhausted_is_206_partial(make_server):
    server = make_server(_error_backend("deadline_exhausted"))
    resp = _translate(server)
    assert resp.status == 206
    assert resp.json()["result"]["ok"] is False


def test_worker_crashed_is_502(make_server):
    assert _translate(make_server(_error_backend("worker_crashed"))).status == 502


def test_worker_timeout_is_504(make_server):
    assert _translate(make_server(_error_backend("worker_timeout"))).status == 504


def test_unknown_error_code_is_500(make_server):
    assert _translate(make_server(_error_backend("internal_error"))).status == 500


def test_submit_exception_is_500(make_server):
    class Exploding(FakeBackend):
        def submit(self, sentence, **kwargs):
            raise RuntimeError("boom")

    server = make_server(Exploding())
    resp = _translate(server)
    assert resp.status == 500
    assert resp.json()["error_code"] == "internal_error"


def test_status_for_table():
    assert status_for(True, None, False, False) == 200
    assert status_for(True, None, True, False) == 206
    assert status_for(True, None, True, True) == 206
    assert status_for(False, "deadline_exhausted", True, False) == 206
    assert status_for(False, "shed_overload", False, False) == 503
    assert status_for(False, "circuit_open", False, False) == 503
    assert status_for(False, "empty_description", False, False) == 400
    assert status_for(False, "worker_crashed", True, False) == 502
    assert status_for(False, "worker_timeout", True, False) == 504
    assert status_for(False, "gateway_error", False, False) == 500
    assert status_for(False, "cancelled", False, False) == 500


# -- request-body validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "body",
    [
        {"stream": True},  # no sentence
        {"sentence": 7},
        {"sentence": "x", "deadline_ms": "fast"},
        {"sentence": "x", "deadline_ms": -5},
        {"sentence": "x", "deadline_ms": True},
        {"sentence": "x", "stream": "yes"},
        {"sentence": "x", "top_k": 0},
        {"sentence": "x", "top_k": 9999},
        {"sentence": "x", "faults": 3},
    ],
)
def test_invalid_translate_body_is_400(fake_server, body):
    backend, server = fake_server
    resp = http_request(server.port, "POST", "/translate", body=body)
    assert resp.status == 400
    assert resp.json()["error_code"] == "bad_request"
    assert backend.submissions == []


def test_non_object_json_body_is_400(fake_server):
    _, server = fake_server
    resp = http_request(server.port, "POST", "/translate", body=b"[1,2]")
    assert resp.status == 400


def test_keep_alive_serves_sequential_requests(fake_server):
    import socket as socketlib

    _, server = fake_server
    payload = json.dumps({"sentence": "sum the hours"}).encode()
    raw = (
        b"POST /translate HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
    )
    with socketlib.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        with sock.makefile("rb") as reader:
            from .conftest import read_response

            sock.sendall(raw)
            first = read_response(reader)
            sock.sendall(raw)
            second = read_response(reader)
    assert first.status == second.status == 200
    assert first.headers["connection"] == "keep-alive"
