"""Differential harness: the telemetry plane must never change an answer.

Telemetry is always on, so its observation points sit directly in the
request path: the gateway hub, the per-worker series recorded from each
reply, the SLO engine and the tail sampler.  This harness runs the Table
2 test split through a two-worker gateway and checks every reply against
the committed golden digest (``tests/golden/table2_test.digest``):
programs, scores, tiers, error codes and the top formula.  The digest is
what a single in-process service produces with no telemetry at all, so a
telemetry bug that perturbs a score, reorders a candidate, or changes a
tier anywhere names the first description it touched.

``REPRO_DIFF_LIMIT`` caps the number of descriptions (evenly subsampled;
default: the full test split, which is what the acceptance bar requires).
"""

from __future__ import annotations

import os

import pytest

from repro.dataset import SHEET_ORDER, build_sheet
from repro.serve import GatewayConfig, TranslationGateway

from ..golden.digest import (
    first_difference,
    golden_line,
    golden_split,
    serialise_reply,
)

pytestmark = pytest.mark.slow

# Replies carry every candidate, as the golden lines do.
ALL_CANDIDATES = 10**6


def test_telemetry_on_equals_telemetry_off():
    """A gateway with the telemetry plane on reproduces the golden lines
    of the single-process service, and the plane saw every request."""
    split = golden_split(os.environ.get("REPRO_DIFF_LIMIT"))
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    gateway = TranslationGateway(
        config=GatewayConfig(
            workers=2,
            queue_limit=len(split) + 4,
            top_k=ALL_CANDIDATES,
            cache=False,  # every request does the full compute
        )
    )
    try:
        pendings = [
            gateway.submit(d.text, workbooks[d.sheet_id]) for d, _ in split
        ]
        results = [p.result(timeout=600.0) for p in pendings]
        rendered = gateway.metrics.render()
        worker_requests = gateway.metrics.export_state()[
            "worker_requests_total"
        ]
    finally:
        gateway.close(drain=True)

    golden = [line for _, line in split]
    now = [
        golden_line(serialise_reply(result), d)
        for (d, _), result in zip(split, results)
    ]
    difference = first_difference(golden, now)
    assert difference is None, difference
    # every candidate was shipped, so the count is the list's length
    assert all(r.n_candidates == len(r.programs) for r in results)

    # The plane really observed the traffic: the hub's series rendered,
    # and each description's reply counted once under its worker.
    assert "telemetry_requests_total" in rendered
    assert "slo_events_total" in rendered
    assert sum(s["value"] for s in worker_requests["series"]) == len(split)
