"""ShardedCluster behaviour: routing, failover, shared cache, lifecycle."""

from __future__ import annotations

import pytest

from repro.cluster import (
    CLUSTER_CLOSED,
    DOWN,
    SHARD_DOWN,
    ClusterConfig,
    ShardedCluster,
)
from repro.sheet import CellValue

from ..conftest import make_payroll
from ..serve.waiters import wait_until

WAIT = 120.0


def _other_payroll():
    workbook = make_payroll()
    workbook.table("Employees").cell(0, 3).value = CellValue.number(99)
    return workbook


@pytest.fixture
def cluster():
    c = ShardedCluster(
        make_payroll(), shards=3, workers_per_shard=1,
        restart_backoff=0.01, restart_backoff_cap=0.1,
        retry_backoff=0.01, retry_backoff_cap=0.1,
    )
    yield c
    c.close(drain=False)


def test_config_validation():
    with pytest.raises(ValueError):
        ShardedCluster(make_payroll(), shards=0)


def test_requires_a_workbook():
    with ShardedCluster(shards=1, workers_per_shard=1) as cluster:
        with pytest.raises(ValueError):
            cluster.submit("sum the hours")


def test_translate_routes_to_the_home_shard(cluster):
    result = cluster.translate("sum the hours", wait=WAIT)
    assert result.ok and result.top_formula == "=SUM(D2:D7)"
    home = cluster.router.route(result.fingerprint)
    assert result.shard_id == home
    assert result.attempts == 1 and not result.rerouted


def test_same_fingerprint_same_shard(cluster):
    """Shard affinity: every request for one workbook lands on one shard."""
    results = cluster.translate_many(
        [f"sum the hours plus {i}" for i in range(6)], wait=WAIT
    )
    shards = {r.shard_id for r in results if r.shard_id is not None}
    assert len(shards) == 1


def test_different_fingerprints_can_spread(cluster):
    a = cluster.translate("sum the hours", wait=WAIT)
    b = cluster.translate("sum the hours", _other_payroll(), wait=WAIT)
    assert a.fingerprint != b.fingerprint
    assert a.shard_id == cluster.router.route(a.fingerprint)
    assert b.shard_id == cluster.router.route(b.fingerprint)


def test_shared_cache_hits_across_the_cluster(cluster):
    miss = cluster.translate("sum the hours", wait=WAIT)
    assert miss.ok and not miss.cached
    hit = cluster.translate("sum the hours", wait=WAIT)
    assert hit.ok and hit.cached
    assert hit.shard_id is None and hit.attempts == 0
    assert hit.programs == miss.programs
    assert cluster.stats().cache_hits == 1
    # Hits and committed misses are timed, as in the gateway's cache.
    assert cluster.metrics.histogram("cache_hit_seconds").count() == 1
    assert cluster.metrics.histogram("cache_miss_seconds").count() == 1


def test_cache_hits_never_alias_the_stored_entry(cluster):
    """Mutating one hit's programs leaves the next hit unchanged."""
    miss = cluster.translate("sum the hours", wait=WAIT)
    first = cluster.translate("sum the hours", wait=WAIT)
    assert first.cached and first.programs == miss.programs
    first.programs.clear()
    first.programs.append(("mangled", 0.0))
    second = cluster.translate("sum the hours", wait=WAIT)
    assert second.cached and second.programs == miss.programs


def test_cache_hit_survives_home_shard_death(cluster):
    """The point of the shared tier: an answer computed by a shard that
    has since died still answers repeats."""
    first = cluster.translate("sum the hours", wait=WAIT)
    assert first.ok
    cluster.kill_shard(first.shard_id)
    hit = cluster.translate("sum the hours", wait=WAIT)
    assert hit.ok and hit.cached


def test_failover_reroutes_to_next_choice(cluster):
    first = cluster.translate("sum the hours", wait=WAIT)
    home = first.shard_id
    cluster.kill_shard(home)
    assert cluster.health.state(home) == DOWN
    second = cluster.translate("count the employees", wait=WAIT)
    assert second.ok
    assert second.shard_id != home
    assert second.rerouted
    preference = cluster.router.preference(second.fingerprint)
    live_choice = next(s for s in preference if s != home)
    assert second.shard_id == live_choice


def test_poison_request_exhausts_attempts(cluster):
    """A request that crashes every worker it touches resolves with the
    crash code after the attempt limit — exactly once, never an exception."""
    result = cluster.translate(
        "sum the hours", faults="worker_crash:raise", wait=WAIT
    )
    assert not result.ok
    assert result.error_code == "worker_crashed"
    assert result.attempts == cluster.config.attempts_limit
    assert cluster.stats().retries == cluster.config.attempts_limit - 1


def test_all_shards_dead_is_shard_down(cluster):
    for shard in cluster.shards:
        cluster.kill_shard(shard.shard_id)
    result = cluster.translate("sum the hours", wait=WAIT)
    assert not result.ok and result.error_code == SHARD_DOWN
    assert cluster.stats().live_shards == 0


def test_submit_after_close_is_cluster_closed():
    cluster = ShardedCluster(make_payroll(), shards=1, workers_per_shard=1)
    cluster.close()
    result = cluster.translate("sum the hours", wait=5.0)
    assert not result.ok and result.error_code == CLUSTER_CLOSED
    assert cluster.stats().closed_rejected == 1


def test_close_is_idempotent(cluster):
    cluster.close()
    cluster.close()


def test_context_manager_closes():
    with ShardedCluster(make_payroll(), shards=1, workers_per_shard=1) as c:
        assert c.translate("sum the hours", wait=WAIT).ok
    result = c.translate("sum the hours", wait=5.0)
    assert result.error_code == CLUSTER_CLOSED


def test_deadline_expiry_resolves_without_a_shard():
    with ShardedCluster(
        make_payroll(), shards=1, workers_per_shard=1, shared_cache=False,
    ) as cluster:
        result = cluster.translate("sum the hours", deadline=0.0, wait=WAIT)
        assert not result.ok
        assert result.error_code == "shed_overload"


def test_stats_and_snapshot_shape(cluster):
    cluster.translate("sum the hours", wait=WAIT)
    stats = cluster.stats()
    assert stats.submitted == 1 and stats.ok == 1
    assert stats.live_shards == 3
    assert len(stats.shards) == 3
    assert stats.shared_cache.puts == 1
    snap = cluster.snapshot()
    assert snap["ok_rate"] == 1.0
    assert snap["shared_cache"]["puts"] == 1
    assert {s["shard_id"] for s in snap["shards"]} == {0, 1, 2}
    assert snap["hot"]["total"] == 1


def test_hot_shard_report_reflects_traffic(cluster):
    for i in range(25):
        cluster.translate("sum the hours", wait=WAIT)
    report = cluster.hot_shards()
    home = cluster.router.route(make_payroll().fingerprint())
    assert report.total == 25
    assert report.hot_shards == [home]
    assert report.culprits[home][0][1] == 25


def test_retry_delay_is_jittered_and_bounded():
    import random

    cluster_cfg = ClusterConfig(
        retry_backoff=0.1, retry_backoff_cap=0.5, retry_jitter=0.5
    )
    c = ShardedCluster.__new__(ShardedCluster)
    c.config = cluster_cfg
    c._rng = random.Random(7)
    delays = [c._retry_delay(n) for n in range(1, 8) for _ in range(20)]
    assert all(d > 0 for d in delays)
    for n in range(1, 8):
        envelope = min(0.5, 0.1 * 2 ** (n - 1))
        for d in [c._retry_delay(n) for _ in range(50)]:
            assert envelope * 0.5 <= d <= envelope
    # jitter off: the envelope exactly
    c.config = ClusterConfig(
        retry_backoff=0.1, retry_backoff_cap=0.5, retry_jitter=0.0
    )
    assert c._retry_delay(1) == 0.1
    assert c._retry_delay(4) == 0.5  # capped
    assert c._retry_delay(0) == 0.0


def test_health_monitor_revives_a_suspect_shard(cluster):
    """mark_down without an actual kill: the prober sees healthy probes
    and brings the shard straight back into the route."""
    victim = cluster.shards[0]
    cluster.health.mark_down(victim.shard_id)
    assert victim.shard_id not in cluster.health.alive()
    assert victim.healthy()  # the gateway itself is fine
    wait_until(
        lambda: cluster.health.state(victim.shard_id) != DOWN, timeout=10.0
    )
    assert victim.shard_id in cluster.health.alive()
