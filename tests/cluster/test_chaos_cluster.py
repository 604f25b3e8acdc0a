"""Cluster chaos: SIGKILL an entire shard under concurrent load.

The headline robustness guarantee for ``repro.cluster``, one level above
the gateway's: with a whole shard dying underneath it — every worker
process SIGKILLed at once, no respawns — every submitted request still
resolves to exactly one coded result.  **Zero lost** (every future
resolves) and **zero duplicated** (each future's done-callback fires
exactly once, so no request is ever answered twice by a retry racing the
original).

``REPRO_CHAOS_REQUESTS`` scales the load (default 200, the acceptance
floor; CI sets it lower for speed).  ``REPRO_CHAOS_TRACE_DIR`` arms
tracing and dumps the span log for CI artifact upload, exactly like the
single-gateway storm in ``tests/serve/test_chaos.py``.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

import pytest

from repro.cluster import DOWN, ShardedCluster
from repro.obs import Tracer
from repro.obs.export import write_spans_jsonl
from repro.sheet import CellValue

from ..conftest import make_payroll
from ..serve.waiters import wait_until

N_REQUESTS = int(os.environ.get("REPRO_CHAOS_REQUESTS", "200"))
SHARDS = 3
WORKERS_PER_SHARD = 2
DEADLINE = 120.0  # generous: any shed under chaos would be a real bug

SENTENCES = [
    "sum the hours",
    "count the employees",
    "sum the totalpay for the capitol hill baristas",
    "average the rate",
]


def _workbooks(n: int = 4):
    """``n`` distinct fingerprints, so traffic spreads across shards."""
    out = []
    for i in range(n):
        workbook = make_payroll()
        if i:
            workbook.table("Employees").cell(0, 3).value = CellValue.number(
                90 + i
            )
        out.append(workbook)
    return out


@pytest.fixture
def chaos_tracer(request):
    """Armed only when ``REPRO_CHAOS_TRACE_DIR`` is set (CI's chaos lane)."""
    out_dir = os.environ.get("REPRO_CHAOS_TRACE_DIR")
    tracer = Tracer() if out_dir else None
    yield tracer
    if out_dir and tracer is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{request.node.name}.spans.jsonl")
        n = write_spans_jsonl(tracer, path)
        print(f"chaos trace: {n} spans -> {path}")


def _make_cluster(tracer, **overrides):
    return ShardedCluster(
        shards=SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        queue_limit=N_REQUESTS + 2 * WORKERS_PER_SHARD,
        # chaos kills are environmental, not workbook poison: a breaker
        # tripping on them would mask the invariant under test
        breaker_threshold=10_000,
        restart_backoff=0.01,
        restart_backoff_cap=0.1,
        retry_backoff=0.01,
        retry_backoff_cap=0.2,
        tracer=tracer,
        **overrides,
    )


def _pick_victim(cluster, workbooks):
    """The shard carrying the most of the storm's fingerprints — killing
    it guarantees a meaningful slice of the load must fail over."""
    routed = Counter(
        cluster.router.route(workbook.fingerprint()) for workbook in workbooks
    )
    return routed.most_common(1)[0][0]


@pytest.mark.slow
def test_shard_kill_loses_nothing_duplicates_nothing(chaos_tracer):
    workbooks = _workbooks()
    cluster = _make_cluster(chaos_tracer, shared_cache=False)
    victim = _pick_victim(cluster, workbooks)
    resolutions: list[int] = [0] * N_REQUESTS
    try:
        pendings = []
        for i in range(N_REQUESTS):
            # mostly-unique sentences: the storm must cross the worker
            # pools, not collapse into repeats of four rankings
            sentence = f"{SENTENCES[i % len(SENTENCES)]} {i // len(SENTENCES)}"
            pending = cluster.submit(
                sentence, workbooks[i % len(workbooks)], deadline=DEADLINE
            )
            def bump(result, i=i):
                resolutions[i] += 1
            pending.add_done_callback(bump)
            pendings.append(pending)
        # Kill the victim only once it is genuinely mid-storm: requests
        # executing on its workers *right now* are the ones that must
        # fail over.  ``in_flight`` alone is not enough — a runner bumps
        # it *before* forking the worker, so at storm start the shard can
        # be "busy" with zero processes to kill.
        def victim_mid_storm() -> bool:
            gw = cluster.shards[victim].gateway.stats()
            return gw.in_flight >= 1 and any(w.alive for w in gw.workers)

        wait_until(
            victim_mid_storm,
            timeout=60.0,
            message="storm never reached the victim shard",
        )
        killed = cluster.kill_shard(victim)
        assert killed >= 1, "the victim shard had no live workers to kill"
        results = [p.result(timeout=600.0) for p in pendings]
        # At small storm sizes the queue can drain before the probe loop
        # has failed the victim enough times to declare it down; wait for
        # the transition while the monitor is still alive (``close``
        # below stops probing, freezing the state wherever it is).
        wait_until(
            lambda: cluster.health.state(victim) == DOWN,
            timeout=60.0,
            message="victim shard never probed down",
        )
    finally:
        cluster.close(drain=False)

    # zero lost: one coded result per submission
    assert len(results) == N_REQUESTS
    for result in results:
        assert result.ok or result.error_code is not None

    # zero duplicated: every future resolved exactly once
    assert resolutions == [1] * N_REQUESTS

    stats = cluster.stats()
    assert stats.submitted == N_REQUESTS
    assert stats.completed == N_REQUESTS
    assert stats.ok + stats.failed == N_REQUESTS

    # deadlines were generous and two shards stayed up the whole time:
    # every request must have been *served*, not errored — the kill is
    # invisible to callers except as latency
    codes = Counter(r.error_code for r in results if not r.ok)
    assert stats.ok == N_REQUESTS, f"failures under failover: {dict(codes)}"

    # the kill really bit: the victim went down and requests failed over
    assert cluster.health.state(victim) == DOWN
    assert stats.failovers >= 1, "no request actually failed over"
    assert stats.retries >= 1
    # every request that retried off the victim was served by a survivor
    for result in results:
        if result.attempts > 1:
            assert result.shard_id != victim
    survivors = {r.shard_id for r in results if r.shard_id is not None}
    assert survivors - {victim}, "no surviving shard served anything"

    # per-shard accounting stayed consistent under the storm
    for shard in cluster.shards:
        gw = shard.gateway.stats()
        assert gw.in_flight == 0 and gw.queue_depth == 0


@pytest.mark.slow
def test_shard_kill_with_shared_cache(chaos_tracer):
    """The zero-loss bar must hold with the shared tier in the path, and
    entries written before the kill keep answering after it."""
    workbooks = _workbooks()
    n_requests = max(40, N_REQUESTS // 2)
    cluster = _make_cluster(chaos_tracer, shared_cache=True)
    victim = _pick_victim(cluster, workbooks)
    try:
        # Warm pass: every (sentence, workbook) pair committed once.
        for workbook in workbooks:
            for sentence in SENTENCES:
                result = cluster.translate(
                    sentence, workbook, deadline=DEADLINE, wait=600.0
                )
                assert result.ok
        warmed = cluster.stats().shared_cache.puts
        assert warmed > 0
        pendings = [
            cluster.submit(
                SENTENCES[i % len(SENTENCES)]
                if i % 2 == 0
                else f"{SENTENCES[i % len(SENTENCES)]} v{i}",
                workbooks[i % len(workbooks)],
                deadline=DEADLINE,
            )
            for i in range(n_requests)
        ]
        wait_until(
            lambda: cluster.shards[victim].gateway.stats().in_flight >= 1
            or all(p.done() for p in pendings),
            timeout=60.0,
        )
        cluster.kill_shard(victim)
        results = [p.result(timeout=600.0) for p in pendings]
        # post-kill, a warm repeat still hits even when its home shard is
        # the corpse: the tier is shared, not shard-local
        post_kill = [
            cluster.translate(
                sentence, workbook, deadline=DEADLINE, wait=600.0
            )
            for workbook in workbooks
            for sentence in SENTENCES
        ]
    finally:
        cluster.close(drain=False)

    assert len(results) == n_requests
    assert all(r.ok for r in results)
    stats = cluster.stats()
    assert stats.completed == stats.submitted
    # the even half were warm repeats: answered by the shared tier, no
    # shard touched — dead or alive
    hits = [r for r in results if r.cached]
    assert len(hits) >= n_requests // 2
    for result in hits:
        assert result.shard_id is None and result.attempts == 0
    assert all(r.ok and r.cached for r in post_kill)
    assert stats.shared_cache.hits >= len(hits) + len(post_kill)


@pytest.mark.slow
def test_post_kill_cluster_keeps_serving(chaos_tracer):
    """After losing a shard, the survivors keep serving fresh work and
    the dead shard stays out of the route."""
    workbooks = _workbooks()
    cluster = _make_cluster(chaos_tracer, shared_cache=False)
    victim = _pick_victim(cluster, workbooks)
    try:
        first = [
            cluster.translate(s, w, deadline=DEADLINE, wait=600.0)
            for w in workbooks
            for s in SENTENCES[:2]
        ]
        assert all(r.ok for r in first)
        cluster.kill_shard(victim)
        second = [
            cluster.translate(f"{s} again", w, deadline=DEADLINE, wait=600.0)
            for w in workbooks
            for s in SENTENCES[:2]
        ]
        assert all(r.ok for r in second)
        assert all(r.shard_id != victim for r in second)
        rerouted = [r for r in second if r.rerouted]
        routed_home = Counter(
            cluster.router.route(w.fingerprint()) for w in workbooks
        )
        if routed_home[victim]:
            assert rerouted, "fingerprints homed on the corpse never rerouted"
    finally:
        cluster.close(drain=False)
