"""The gateway-layer cache contract: front-end hits bypass admission
control, chaos probes bypass the cache, and breaker trips purge it."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.serve import GatewayConfig, GatewayResult, TranslationGateway
from repro.serve.gateway import cache_entry, replay_entry

from ..conftest import make_payroll


@pytest.fixture
def gateway():
    gw = TranslationGateway(
        make_payroll(), GatewayConfig(workers=1, cache=True)
    )
    yield gw
    gw.close(drain=True)


def test_repeat_request_hits_the_front_end(gateway):
    first = gateway.translate("sum the hours")
    second = gateway.translate("sum the hours")
    assert first.ok and not first.cached
    assert second.ok and second.cached
    assert second.worker_id is None  # never reached the pool
    assert second.programs == first.programs
    assert second.top_formula == first.top_formula
    stats = gateway.stats()
    assert stats.cache_hits == 1
    assert stats.cache is not None and stats.cache.hits == 1


def test_hit_bypasses_admission_control(gateway):
    """A cached answer is served even when the deadline is already spent —
    the probe runs before the shed check, and a hit costs ~nothing."""
    gateway.translate("sum the hours")
    hit = gateway.translate("sum the hours", deadline=0.0)
    assert hit.ok and hit.cached
    # Uncached + spent deadline still sheds (the pre-cache behaviour).
    miss = gateway.translate("average the othours", deadline=0.0)
    assert miss.error_code == "shed_overload"


def test_normalised_phrasings_share_one_entry(gateway):
    gateway.translate("sum the hours")
    assert gateway.translate("  Sum   THE hours ").cached


def test_fault_armed_requests_bypass_the_cache(gateway):
    gateway.translate("sum the hours")
    probe = gateway.translate(
        "sum the hours", faults="ranking:delay:0.0"
    )
    assert probe.ok and not probe.cached
    # And a probe's own answer was not committed on a fresh sentence.
    gateway.translate("average the hours", faults="ranking:delay:0.0")
    repeat = gateway.translate("average the hours")
    assert not repeat.cached


def test_cache_off_by_default():
    gw = TranslationGateway(make_payroll(), GatewayConfig(workers=1))
    try:
        gw.translate("sum the hours")
        assert not gw.translate("sum the hours").cached
        assert gw.stats().cache is None
        assert gw.stats().cache_hits == 0
    finally:
        gw.close(drain=True)


def test_breaker_trip_purges_the_fingerprint():
    gw = TranslationGateway(
        make_payroll(),
        GatewayConfig(
            workers=1, cache=True, breaker_threshold=2, restart_backoff=0.01
        ),
    )
    try:
        gw.translate("sum the hours")
        assert gw.translate("sum the hours").cached
        for _ in range(2):
            crashed = gw.translate("sum the hours", faults="worker_crash:raise")
            assert crashed.error_code == "worker_crashed"
        stats = gw.stats()
        assert any(state == "open" for state in stats.breakers.values())
        assert stats.cache.size == 0
        assert stats.cache.invalidated >= 1
    finally:
        gw.close(drain=True)


def test_worker_side_service_memo(gateway):
    """Duplicates that race past the front end (submitted before the first
    completes) still hit the in-worker per-rung memo."""
    pendings = [gateway.submit("sum the othours") for _ in range(3)]
    results = [p.result(timeout=60.0) for p in pendings]
    assert all(r.ok for r in results)
    assert {tuple(r.programs) for r in results} == {
        tuple(results[0].programs)
    }
    # At least one duplicate was served from either cache layer.
    assert any(r.cached or r.service_cached for r in results[1:])


def test_degraded_results_are_not_committed():
    """An anytime/degraded answer must not be replayed for a healthy
    request: nothing is cached, the repeat recomputes."""
    gw = TranslationGateway(
        make_payroll(), GatewayConfig(workers=1, cache=True)
    )
    try:
        starved = gw.translate("sum the hours", deadline=0.003)
        repeat = gw.translate("sum the hours")
        if starved.ok and not starved.degraded and not starved.anytime:
            pytest.skip("machine fast enough that the run was clean")
        assert not repeat.cached
    finally:
        gw.close(drain=True)


def test_only_clean_computed_results_make_an_entry():
    """The one commit rule both front caches apply, and the replay."""
    clean = GatewayResult(
        ok=True, tier="full", programs=[("Sum(hours)", 0.9)],
        n_candidates=3, top_formula="=SUM(D2:D13)", elapsed=0.01,
        budget_spent=7, worker_id=0,
    )
    entry = cache_entry(clean)
    assert entry == {
        "tier": "full", "programs": (("Sum(hours)", 0.9),),
        "n_candidates": 3, "top_formula": "=SUM(D2:D13)",
        "elapsed": 0.01, "budget_spent": 7,
    }
    for flaw in ("degraded", "anytime", "cached"):
        assert cache_entry(replace(clean, **{flaw: True})) is None
    assert cache_entry(replace(clean, ok=False)) is None
    replayed = replay_entry(entry)
    assert replayed == dict(entry, programs=[("Sum(hours)", 0.9)])
    replayed["programs"].clear()
    assert entry["programs"] == (("Sum(hours)", 0.9),)
