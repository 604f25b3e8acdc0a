"""Differential harness: sharding must never change an answer.

Runs the Table 2 test split through a three-shard cluster twice (a cold
pass that computes and commits every answer, and a warm pass answered
from the cluster's front cache) and checks each pass against the
committed golden digest (``tests/golden/table2_test.digest``): programs,
scores, tiers, error codes and the top formula.  The digest is what a
single in-process service produces, so routing, the failover machinery
and the cache replay are all checked against the pinned single-process
output; a single perturbed float or re-ranked candidate anywhere in
``repro.cluster`` names the first description it touched.

``REPRO_DIFF_LIMIT`` caps the number of descriptions (evenly subsampled;
default: the full test split, which is what the acceptance bar requires).
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import ShardedCluster
from repro.dataset import SHEET_ORDER, build_sheet

from ..golden.digest import (
    first_difference,
    golden_line,
    golden_split,
    serialise_reply,
)

pytestmark = pytest.mark.slow

# Replies carry every candidate, as the golden lines do.
ALL_CANDIDATES = 10**6


def test_cluster_equals_single_gateway():
    """A three-shard cluster, cold and warm, reproduces the golden lines
    of the single-process service for the whole split."""
    split = golden_split(os.environ.get("REPRO_DIFF_LIMIT"))
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    cluster = ShardedCluster(
        shards=3,
        workers_per_shard=1,
        queue_limit=len(split) + 4,
        top_k=ALL_CANDIDATES,
    )
    try:
        waves = []
        for _ in range(2):
            pendings = [
                cluster.submit(d.text, workbooks[d.sheet_id])
                for d, _ in split
            ]
            waves.append([p.result(timeout=600.0) for p in pendings])
        cold, warm = waves
        stats = cluster.stats()
    finally:
        cluster.close(drain=True)

    golden = [line for _, line in split]
    for name, wave in (("cold", cold), ("warm", warm)):
        now = [
            golden_line(serialise_reply(result), d)
            for (d, _), result in zip(split, wave)
        ]
        difference = first_difference(golden, now)
        assert difference is None, f"{name} pass: {difference}"
        # every candidate was shipped, so the count is the list's length
        assert all(r.n_candidates == len(r.programs) for r in wave)

    # the cluster really sharded the work: with four workbooks spread by
    # rendezvous over three shards, at least two shards served traffic
    served = {r.shard_id for r in cold if r.shard_id is not None}
    assert len(served) >= 2, f"all traffic landed on {served}"

    # the warm wave was answered by the front cache (clean, undeadlined
    # runs all commit), regardless of which shard computed the entry
    warm_misses = [r for r in warm if not r.cached and r.ok]
    assert not warm_misses, f"{len(warm_misses)} warm repeats missed"
    assert stats.cache_hits >= sum(1 for r in warm if r.cached)
