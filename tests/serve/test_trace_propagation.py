"""One request, one tree — across the gateway's process boundary.

The tracing satellite's acceptance tests: a traced gateway request must
yield a single stitched trace tree whose root is ``gateway.request`` and
whose leaves include the worker-side spans that travelled back in the
reply — even when the worker crashed (or was SIGKILLed) mid-translation,
in which case the tree carries a synthesized ``worker_crashed`` span
instead of the worker's own records.  A storm of traced requests must
account for every admitted request: exactly one root per trace, no
dangling parent links, no trace lost.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.obs import Tracer
from repro.serve import TranslationGateway

from ..conftest import make_payroll
from .waiters import wait_dispatched

SENTENCE = "sum the totalpay where the location is capitol hill"


def traces_of(records):
    """Group span records by trace id."""
    by_trace: dict[str, list[dict]] = {}
    for record in records:
        by_trace.setdefault(record["trace_id"], []).append(record)
    return by_trace


def assert_tree(spans):
    """One root, every parent link resolves; returns (root, by_id)."""
    by_id = {s["span_id"]: s for s in spans}
    roots = [s for s in spans if not s["parent_id"]]
    assert len(roots) == 1, (
        f"want exactly 1 root, got {[s['name'] for s in roots]}"
    )
    for span in spans:
        if span["parent_id"]:
            assert span["parent_id"] in by_id, (
                f"dangling parent on {span['name']!r}"
            )
    return roots[0], by_id


def test_single_request_yields_one_stitched_tree():
    tracer = Tracer()
    gateway = TranslationGateway(
        make_payroll(), workers=1, cache=False, tracer=tracer
    )
    try:
        result = gateway.translate(SENTENCE, wait=60.0)
        assert result.ok
    finally:
        gateway.close(drain=True)

    by_trace = traces_of(tracer.finished())
    assert len(by_trace) == 1
    [spans] = by_trace.values()
    root, by_id = assert_tree(spans)
    names = {s["name"] for s in spans}

    # parent-side spans
    assert root["name"] == "gateway.request"
    assert root["status"] == "ok"
    assert root["attrs"]["tier"] == result.tier
    assert {"gateway.queue", "gateway.worker_call"} <= names
    # worker-side spans, adopted across the process boundary
    assert {"worker.translate", "service.request", "translate"} <= names
    [worker_root] = [s for s in spans if s["name"] == "worker.translate"]
    [call] = [s for s in spans if s["name"] == "gateway.worker_call"]
    assert worker_root["parent_id"] == call["span_id"]
    assert worker_root["pid"] != root["pid"]  # genuinely cross-process

    # adopted timestamps were aligned into the parent's clock domain
    for span in spans:
        assert span["start"] >= root["start"] - 1e-3
        assert span["end"] <= root["end"] + 1e-3


def test_crashed_worker_still_yields_complete_tree():
    tracer = Tracer()
    gateway = TranslationGateway(
        make_payroll(), workers=1, cache=False, tracer=tracer,
        restart_backoff=0.01,
    )
    try:
        result = gateway.translate(
            SENTENCE, faults="worker_crash:raise", wait=60.0
        )
        assert not result.ok
        assert result.error_code == "worker_crashed"
    finally:
        gateway.close(drain=True)

    by_trace = traces_of(tracer.finished())
    assert len(by_trace) == 1
    [spans] = by_trace.values()
    root, by_id = assert_tree(spans)
    assert root["name"] == "gateway.request"
    assert root["status"] == "error"
    names = {s["name"] for s in spans}
    assert "worker_crashed" in names  # the synthesized crash marker
    [crashed] = [s for s in spans if s["name"] == "worker_crashed"]
    assert crashed["status"] == "error"
    assert by_id[crashed["parent_id"]]["name"] == "gateway.worker_call"
    [call] = [s for s in spans if s["name"] == "gateway.worker_call"]
    assert call["status"] == "error"


def test_sigkilled_worker_still_yields_complete_tree():
    """A real SIGKILL mid-translation, not a cooperative fault."""
    tracer = Tracer()
    gateway = TranslationGateway(
        make_payroll(), workers=1, cache=False, tracer=tracer,
        restart_backoff=0.01,
    )
    try:
        pending = gateway.submit(SENTENCE, faults="tokenize:delay:30.0")
        # In flight is counted when the request leaves the queue, before
        # the lazily spawned worker exists; kill only once it is live.
        wait_dispatched(gateway, timeout=30.0)
        assert gateway.kill_worker(0)
        result = pending.result(60.0)
        assert not result.ok
        assert result.error_code == "worker_crashed"
    finally:
        gateway.close(drain=True)

    by_trace = traces_of(tracer.finished())
    assert len(by_trace) == 1
    [spans] = by_trace.values()
    root, _ = assert_tree(spans)
    assert root["status"] == "error"
    assert "worker_crashed" in {s["name"] for s in spans}


def test_cache_hit_closes_trace_without_worker_spans():
    tracer = Tracer()
    gateway = TranslationGateway(
        make_payroll(), workers=1, cache=True, tracer=tracer
    )
    try:
        gateway.translate(SENTENCE, wait=60.0)  # cold: fills the cache
        hit = gateway.translate(SENTENCE, wait=60.0)
        assert hit.cached
    finally:
        gateway.close(drain=True)

    by_trace = traces_of(tracer.finished())
    assert len(by_trace) == 2
    hit_spans = next(
        spans for spans in by_trace.values()
        if any(s["attrs"].get("cached") for s in spans)
    )
    root, _ = assert_tree(hit_spans)
    assert root["name"] == "gateway.request"
    assert root["attrs"]["cached"] is True
    assert "gateway.worker_call" not in {s["name"] for s in hit_spans}


def test_shed_request_trace_is_closed_with_error():
    tracer = Tracer()
    gateway = TranslationGateway(
        make_payroll(), workers=1, cache=False, queue_limit=1, tracer=tracer,
    )
    try:
        blocker = gateway.submit(SENTENCE, faults="tokenize:delay:0.5")
        queued = gateway.submit(SENTENCE, faults="tokenize:delay:0.1")
        shed = []
        while True:  # fill the queue until admission control sheds
            result = gateway.submit(SENTENCE, deadline=0.001).result(10.0)
            if result.error_code == "shed_overload":
                shed.append(result)
                break
        blocker.result(60.0), queued.result(60.0)
    finally:
        gateway.close(drain=True)

    records = tracer.finished()
    shed_roots = [
        r for r in records
        if r["name"] == "gateway.request" and r["status"] == "error"
        and r["attrs"].get("error_code") == "shed_overload"
    ]
    assert shed_roots, "shed request left no closed root span"


def test_untraced_gateway_emits_nothing_and_sends_no_trace_context():
    gateway = TranslationGateway(make_payroll(), workers=1, cache=False)
    try:
        assert gateway.tracer.enabled is False
        result = gateway.translate(SENTENCE, wait=60.0)
        assert result.ok
        assert gateway.tracer.finished() == []
    finally:
        gateway.close(drain=True)


@pytest.mark.slow
def test_storm_traces_account_for_every_admitted_request():
    """Chaos accounting: kills notwithstanding, submitted == roots."""
    n_requests, workers = 40, 2
    tracer = Tracer()
    gateway = TranslationGateway(
        workers=workers,
        queue_limit=n_requests + workers,
        breaker_threshold=10_000,
        restart_backoff=0.01,
        restart_backoff_cap=0.1,
        cache=False,
        tracer=tracer,
    )
    workbook = make_payroll()
    rng = random.Random(20140622)
    stop_killing = threading.Event()

    def killer():
        while not stop_killing.wait(0.05):
            gateway.kill_worker(rng.randrange(workers))

    chaos = threading.Thread(target=killer)
    chaos.start()
    try:
        pendings = [
            gateway.submit(SENTENCE, workbook=workbook, deadline=60.0)
            for _ in range(n_requests)
        ]
        results = [p.result(120.0) for p in pendings]
    finally:
        stop_killing.set()
        chaos.join()
        gateway.close(drain=True)

    assert len(results) == n_requests
    by_trace = traces_of(tracer.finished())
    roots = []
    for spans in by_trace.values():
        root, _ = assert_tree(spans)
        roots.append(root)
    assert len(roots) == n_requests
    assert all(r["name"] == "gateway.request" for r in roots)
    # every root closed with a definite outcome
    ok_roots = [r for r in roots if r["status"] == "ok"]
    assert len(ok_roots) == sum(r.ok for r in results)
