"""The per-worker series a gateway records from each worker reply.

``worker_requests_total{worker, code}`` and
``worker_translate_seconds{worker, tier}`` carry each worker's view of
the requests it answered.  These tests pin their values on a real
one-worker gateway: every reply counts once under its code and tier, a
worker that dies before replying adds no sample (its request counts as
``gateway_events_total{event="crashed"}``), and the exposition lints
clean.
"""

from __future__ import annotations

from collections import Counter

from repro.serve import TranslationGateway

from ..conftest import load_check_prom, make_payroll

WAIT = 60.0
FAST = dict(restart_backoff=0.01, restart_backoff_cap=0.1)

check_prom = load_check_prom()


def _worker_series(gateway) -> dict:
    """The ``worker_*`` families of the gateway's registry state."""
    return {
        name: metric
        for name, metric in gateway.metrics.export_state().items()
        if name.startswith("worker_")
    }


def test_each_reply_counts_once_under_its_code_and_tier():
    with TranslationGateway(
        make_payroll(), workers=1, cache=False, **FAST
    ) as gateway:
        results = [
            gateway.translate(sentence, wait=WAIT)
            for sentence in (
                "sum the hours",
                "count the employees",
                "sum the totalpay for the capitol hill baristas",
            )
        ]
        assert all(r.ok for r in results)
        failed = gateway.translate(
            "sum the hours", faults="tokenize:raise:runtime", wait=WAIT
        )
        assert failed.error_code == "internal_error"

        requests = gateway.metrics.counter("worker_requests_total")
        assert requests.value(worker="0", code="ok") == 3
        assert requests.value(worker="0", code="internal_error") == 1

        seconds = gateway.metrics.histogram("worker_translate_seconds")
        tiers = Counter(r.tier or "none" for r in results + [failed])
        for tier, n in tiers.items():
            assert seconds.count(worker="0", tier=tier) == n
        assert sum(
            series["count"]
            for series in _worker_series(gateway)[
                "worker_translate_seconds"
            ]["series"]
        ) == 4
        assert check_prom.lint(gateway.metrics.render()) == []


def test_a_worker_that_dies_adds_no_sample():
    with TranslationGateway(
        make_payroll(), workers=1, cache=False, **FAST
    ) as gateway:
        assert gateway.translate("sum the hours", wait=WAIT).ok
        before = _worker_series(gateway)
        crashed = gateway.metrics.counter("gateway_events_total")
        assert crashed.value(event="crashed") == 0

        result = gateway.translate(
            "sum the hours", faults="worker_crash:raise", wait=WAIT
        )
        assert result.error_code == "worker_crashed"

        assert _worker_series(gateway) == before
        assert crashed.value(event="crashed") == 1
        assert check_prom.lint(gateway.metrics.render()) == []
