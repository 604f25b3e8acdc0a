"""Trace propagation over HTTP: the ``X-Repro-Trace-Id`` contract.

A well-formed incoming header becomes the request's trace id end to end
and is echoed on the response; ``/translate`` mints a fresh id when the
client sent none (so every translation is traceable); a malformed header
is *replaced*, never echoed, so a hostile client cannot forge log lines
or smuggle bytes into the Prometheus exemplar export.
"""

from __future__ import annotations

import re

from repro.http.server import TRACE_HEADER

from .conftest import http_request
from .test_streaming import scripted_server

_HEADER = TRACE_HEADER.lower()
_ID_SHAPE = re.compile(r"^[0-9a-zA-Z_-]{1,128}$")


def _translate(server, headers=None, **extra):
    body = {"sentence": "sum the hours", **extra}
    return http_request(
        server.port, "POST", "/translate", body=body, headers=headers
    )


# -- /translate ----------------------------------------------------------------------


def test_translate_mints_trace_id_when_absent(fake_server):
    backend, server = fake_server
    resp = _translate(server)
    trace_id = resp.headers.get(_HEADER)
    assert trace_id is not None and _ID_SHAPE.match(trace_id)
    assert resp.json()["trace_id"] == trace_id
    assert backend.trace_ids == [trace_id]


def test_translate_honours_incoming_trace_id(fake_server):
    backend, server = fake_server
    resp = _translate(server, headers={TRACE_HEADER: "client-id-42"})
    assert resp.headers[_HEADER] == "client-id-42"
    assert resp.json()["trace_id"] == "client-id-42"
    assert backend.trace_ids == ["client-id-42"]


def test_translate_distinct_requests_get_distinct_ids(fake_server):
    _, server = fake_server
    first = _translate(server).headers[_HEADER]
    second = _translate(server).headers[_HEADER]
    assert first != second


def test_malformed_trace_id_is_replaced_not_echoed(fake_server):
    backend, server = fake_server
    hostile = 'x" } forged{exemplar}'
    resp = _translate(server, headers={TRACE_HEADER: hostile})
    minted = resp.headers[_HEADER]
    assert minted != hostile and _ID_SHAPE.match(minted)
    assert backend.trace_ids == [minted]


def test_oversized_trace_id_is_replaced(fake_server):
    _, server = fake_server
    resp = _translate(server, headers={TRACE_HEADER: "a" * 129})
    assert resp.headers[_HEADER] != "a" * 129


def test_trace_id_on_error_responses(fake_server):
    _, server = fake_server
    resp = http_request(
        server.port, "POST", "/translate",
        body={"sentence": 7},
        headers={TRACE_HEADER: "bad-req-id"},
    )
    assert resp.status == 400
    assert resp.headers[_HEADER] == "bad-req-id"


# -- other endpoints: echo-only ------------------------------------------------------


def test_get_endpoints_echo_valid_incoming_id(fake_server):
    _, server = fake_server
    for path in ("/healthz", "/metrics", "/stats"):
        resp = http_request(
            server.port, "GET", path, headers={TRACE_HEADER: "probe-7"}
        )
        assert resp.headers.get(_HEADER) == "probe-7", path


def test_get_endpoints_do_not_mint_ids(fake_server):
    _, server = fake_server
    resp = http_request(server.port, "GET", "/healthz")
    assert _HEADER not in resp.headers


def test_not_found_echoes_trace_id(fake_server):
    _, server = fake_server
    resp = http_request(
        server.port, "GET", "/nope", headers={TRACE_HEADER: "lost-1"}
    )
    assert resp.status == 404
    assert resp.headers[_HEADER] == "lost-1"


# -- streaming -----------------------------------------------------------------------


def test_stream_echoes_trace_id_on_head_and_final(make_server):
    _, server = scripted_server(make_server)
    resp = http_request(
        server.port, "POST", "/translate",
        body={"sentence": "s", "stream": True},
        headers={TRACE_HEADER: "stream-id-1"},
    )
    assert resp.headers[_HEADER] == "stream-id-1"
    final = resp.ndjson()[-1]
    assert final["event"] == "final"
    assert final["trace_id"] == "stream-id-1"


def test_stream_mints_trace_id_when_absent(make_server):
    _, server = scripted_server(make_server)
    resp = http_request(
        server.port, "POST", "/translate",
        body={"sentence": "s", "stream": True},
    )
    trace_id = resp.headers.get(_HEADER)
    assert trace_id is not None and _ID_SHAPE.match(trace_id)
    assert resp.ndjson()[-1]["trace_id"] == trace_id
