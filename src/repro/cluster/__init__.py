"""Horizontal scale-out: the fingerprint-sharded gateway cluster.

``repro.cluster`` fronts N crash-isolated
:class:`~repro.serve.TranslationGateway` shards with one
:class:`ShardedCluster` (ROADMAP: cluster the serving layer):

* **fingerprint-sharded routing** — rendezvous hashing on
  ``Workbook.fingerprint()`` keeps each workbook's warm workers,
  translator caches, and circuit-breaker state on one shard
  (:mod:`repro.cluster.router`), with hot-shard detection projecting the
  observed per-fingerprint traffic back onto the routes;
* **health-checked failover** — a heartbeat monitor with an
  up/suspect/down state machine feeds the router's live-set; requests on
  a dying shard retry on the next rendezvous choice with exponential
  backoff and jitter (:mod:`repro.cluster.health`);
* **one front cache for every shard** — a :class:`~repro.cache.ResultCache`
  under the gateway's ``(sentence, fingerprint, options)`` keys, probed
  before routing, so a result any shard computed answers repeats
  cluster-wide, even after that shard dies;
* **zero-loss chaos guarantees** — SIGKILLing an entire shard under load
  (:meth:`ShardedCluster.kill_shard`) loses nothing: every in-flight
  request fails over or resolves with a coded result, exactly once
  (``tests/cluster/test_chaos_cluster.py``), and the cluster, cold or
  answering from its cache, reproduces the committed golden digest of
  the full evaluation split (``tests/cluster/test_differential_cluster.py``).

Quickstart::

    from repro.cluster import ShardedCluster
    from repro.dataset import build_sheet

    with ShardedCluster(build_sheet("payroll"), shards=3) as cluster:
        result = cluster.translate("sum the hours", deadline=1.0)
        print(result.top_formula, result.shard_id, cluster.stats().ok_rate)

See ``docs/CLUSTER.md`` for routing and failover semantics, the front
cache, and the operational knobs.
"""

from .cluster import (
    CLUSTER_CLOSED,
    REROUTED,
    SHARD_DOWN,
    ClusterConfig,
    ClusterResult,
    ClusterStats,
    Shard,
    ShardedCluster,
)
from .health import DOWN, SUSPECT, UP, HealthMonitor
from .router import HotShardReport, RendezvousRouter, detect_hot_shards

__all__ = [
    "CLUSTER_CLOSED",
    "ClusterConfig",
    "ClusterResult",
    "ClusterStats",
    "DOWN",
    "HealthMonitor",
    "HotShardReport",
    "REROUTED",
    "RendezvousRouter",
    "SHARD_DOWN",
    "SUSPECT",
    "Shard",
    "ShardedCluster",
    "UP",
    "detect_hot_shards",
]
