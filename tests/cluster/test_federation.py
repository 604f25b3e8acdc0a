"""The cluster telemetry plane: federation, live SLO burn, tail sampling.

Three acceptance properties from the telemetry-plane issue, asserted on
a real multi-shard cluster with live worker processes:

* the federated ``/metrics`` view equals the fold of the cluster
  registry with every per-shard registry (and lints clean under
  ``scripts/check_prom.py``);
* a fault-injected error storm trips the **fast** burn-rate alert while
  the **slow** alert stays green, with the whole 6-hour timeline driven
  through an injected :class:`ManualClock`;
* the tail sampler retains 100% of error traces submitted under known
  caller-chosen trace ids.
"""

from __future__ import annotations

import json

from repro.cluster import ShardedCluster
from repro.obs.clock import ManualClock
from repro.obs.export import render_prometheus
from repro.obs.telemetry import SloSpec, merge_states
from repro.sheet import CellValue

from ..conftest import load_check_prom, make_payroll

WAIT = 120.0

check_prom = load_check_prom()


def _other_payroll():
    workbook = make_payroll()
    workbook.table("Employees").cell(0, 3).value = CellValue.number(99)
    return workbook


def _counter_value(state, name, **labels):
    """Read one counter sample out of an exported or merged state."""
    want = {key: str(value) for key, value in labels.items()}
    series = state.get(name, {"series": []})["series"]
    return sum(s["value"] for s in series if s["labels"] == want)


def test_federated_metrics_equal_fold_of_shard_registries():
    with ShardedCluster(
        make_payroll(), shards=3, workers_per_shard=1
    ) as cluster:
        results = [
            cluster.translate("sum the hours", wait=WAIT),
            cluster.translate("sum the hours", wait=WAIT),  # shared-cache hit
            cluster.translate("sum the hours", _other_payroll(), wait=WAIT),
        ]
        assert all(r.ok for r in results)

        federated = cluster.federated_state()
        by_hand = merge_states(
            cluster.metrics.export_state(),
            *[s.gateway.metrics.export_state() for s in cluster.shards],
        )
        assert federated == by_hand
        assert cluster.federated_render() == render_prometheus(by_hand)

        # Non-tautological spot checks: the merged counters equal the sums
        # of the per-registry values they were folded from.
        cluster_ok = cluster.metrics.counter(
            "telemetry_requests_total"
        ).value(scope="cluster", code="ok")
        assert cluster_ok == len(results)
        shard_ok = sum(
            s.gateway.metrics.counter("telemetry_requests_total").value(
                scope="gateway", code="ok"
            )
            for s in cluster.shards
        )
        assert _counter_value(
            federated, "telemetry_requests_total", scope="cluster", code="ok"
        ) == cluster_ok
        assert _counter_value(
            federated, "telemetry_requests_total", scope="gateway", code="ok"
        ) == shard_ok
        # The cache hit never touched a shard: gateway scope saw one
        # request per distinct workbook, the cluster scope saw all three.
        assert shard_ok == 2
        # Each shard's one worker (slot 0) replied once per computed request.
        assert _counter_value(
            federated, "worker_requests_total", worker="0", code="ok"
        ) == shard_ok

        text = cluster.federated_render()
        assert "worker_requests_total" in text
        assert "cluster_events_total" in text
        assert check_prom.lint(text) == []


def test_error_storm_trips_fast_burn_while_slow_stays_green():
    """Six simulated hours of healthy traffic, then a 30-minute fault
    storm: the fast (5m/1h @ 14.4x) pair fires, the slow (1h/6h @ 6x)
    pair does not, because the 6h window still remembers the good day.

    Objective 0.95 keeps the arithmetic honest: the budget is 0.05, so
    an all-errors 5m window burns at 20x — above 14.4 — while 30 errors
    against ~82 good events over 6h burns at ~5.4x, under 6.
    """
    clock = ManualClock(start=1000.0)
    with ShardedCluster(
        make_payroll(),
        shards=2,
        workers_per_shard=1,
        clock=clock,
        slo_specs=(
            SloSpec(
                "availability", "availability", 0.95,
                description="storm-test objective",
            ),
        ),
    ) as cluster:
        # Good phase: one real compute, then shared-cache hits — each
        # observed as ok by the cluster hub — spaced 240 simulated
        # seconds over six hours.
        for _ in range(90):
            result = cluster.translate("sum the hours", wait=WAIT)
            assert result.ok
            clock.advance(240.0)
        # Storm: injected worker faults, one per simulated minute.
        for _ in range(30):
            result = cluster.translate(
                "sum the hours", faults="tokenize:raise:runtime", wait=WAIT
            )
            assert not result.ok and result.error_code == "internal_error"
            clock.advance(60.0)

        report = cluster.slo_report()
        assert report["scope"] == "cluster" and not report["healthy"]
        availability = next(
            s for s in report["slos"] if s["name"] == "availability"
        )
        alerts = {a["rule"]: a for a in availability["alerts"]}
        fast, slow = alerts["fast"], alerts["slow"]
        assert fast["fired"]
        assert fast["short_burn_rate"] > 14.4  # 5m: all errors -> 20x
        assert fast["long_burn_rate"] > 14.4
        assert not slow["fired"]
        assert slow["long_burn_rate"] < 6.0  # 6h still mostly good
        assert slow["short_burn_rate"] > 6.0  # 1h alone is not enough
        windows = availability["windows"]
        assert windows["5m"]["error_rate"] == 1.0
        assert windows["6h"]["good"] > windows["6h"]["bad"]
        # The per-shard reports ride along for the /slo document.
        assert [s["shard_id"] for s in report["shards"]] == [0, 1]
        assert all("slos" in s for s in report["shards"])


def test_sampler_retains_every_error_trace():
    with ShardedCluster(
        make_payroll(), shards=2, workers_per_shard=1
    ) as cluster:
        error_ids = [f"storm-err-{i}" for i in range(10)]
        pendings = [
            cluster.submit(
                "sum the hours",
                faults="tokenize:raise:runtime",
                trace_id=trace_id,
            )
            for trace_id in error_ids
        ]
        pendings += [
            cluster.submit("sum the hours", trace_id=f"fine-{i}")
            for i in range(5)
        ]
        results = [p.result(WAIT) for p in pendings]
        assert sum(1 for r in results if not r.ok) == len(error_ids)

        lines = cluster.sampled_traces()
        assert all(line.endswith("\n") for line in lines)
        records = [json.loads(line) for line in lines]
        kept = {r["trace_id"] for r in records}
        # 100% of error traces survive — and each appears both in the
        # cluster scope's sampler and in the serving shard's.
        assert set(error_ids) <= kept
        counts = {
            trace_id: sum(1 for r in records if r["trace_id"] == trace_id)
            for trace_id in error_ids
        }
        assert all(count >= 2 for count in counts.values()), counts
        assert all(
            r["verdict"] == "error"
            for r in records
            if r["trace_id"] in set(error_ids)
        )
