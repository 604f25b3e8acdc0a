"""Streaming differential: the HTTP final record equals in-process truth.

For every Table 2 test-split sentence, the final record of a streamed
``POST /translate`` that asks for every candidate must reproduce the
committed golden digest (``tests/golden/table2_test.digest``): programs,
scores, tier, error code and top formula, after a JSON round trip.  The
digest is what a direct in-process :class:`TranslationService` call
produces, so streaming is checked to be an observability layer, never a
different answer.  A second pass injects a tight deadline and asserts
the anytime protocol: every intermediate chunk ranks no worse than its
predecessor, and the terminator always arrives.

``REPRO_DIFF_LIMIT`` caps the number of descriptions (evenly
subsampled; default: the full test split, the acceptance bar).
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.http import ServiceStreamer

from ..golden.digest import (
    first_difference,
    golden_line,
    golden_split,
    serialise_reply,
)
from .conftest import FakeBackend, http_request

pytestmark = pytest.mark.slow

_LIMIT = os.environ.get("REPRO_DIFF_LIMIT")
# Final records carry every candidate, as the golden lines do.
ALL_CANDIDATES = 10**6


@pytest.fixture(scope="module")
def test_split():
    descriptions = Corpus.default().test
    if _LIMIT:
        n = int(_LIMIT)
        if 0 < n < len(descriptions):
            step = len(descriptions) / n
            descriptions = [descriptions[int(k * step)] for k in range(n)]
    return descriptions


def _stream(port: int, sentence: str, deadline_ms: float, **extra):
    return http_request(
        port, "POST", "/translate",
        body={"sentence": sentence, "stream": True,
              "deadline_ms": deadline_ms, **extra},
        timeout=120,
    )


def test_streamed_final_matches_in_process(make_server):
    split = golden_split(_LIMIT)
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    servers = {
        sheet_id: make_server(
            FakeBackend(workbook=wb),
            streamer=ServiceStreamer(wb),
            max_top_k=ALL_CANDIDATES,
        )
        for sheet_id, wb in workbooks.items()
    }
    now = []
    for d, _ in split:
        resp = _stream(
            servers[d.sheet_id].port, d.text, 60_000, top_k=ALL_CANDIDATES
        )
        assert resp.terminated, f"unterminated stream for {d.text!r}"
        final = resp.ndjson()[-1]["result"]
        # every candidate was shipped, so the count is the list's length
        assert final["n_candidates"] == len(final["programs"]), d.text
        now.append(golden_line(serialise_reply(SimpleNamespace(**final)), d))
    difference = first_difference([line for _, line in split], now)
    assert difference is None, difference


def test_streamed_updates_monotone_under_tight_deadline(test_split, make_server):
    """Inject a deadline small enough to trip anytime behaviour on real
    sentences; every chunk sequence must be strictly improving and every
    stream terminated with a coded final record."""
    sample = test_split[:: max(1, len(test_split) // 60)]
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    servers = {
        sheet_id: make_server(
            FakeBackend(workbook=wb), streamer=ServiceStreamer(wb)
        )
        for sheet_id, wb in workbooks.items()
    }
    violations = []
    for d in sample:
        resp = _stream(servers[d.sheet_id].port, d.text, 75)
        assert resp.terminated, f"unterminated stream for {d.text!r}"
        records = resp.ndjson()
        final = records[-1]
        assert final["event"] in ("final", "error")
        if final["event"] == "final":
            assert final["status"] in (200, 206, 400)
        updates = [r for r in records if r["event"] == "update"]
        # The emitter's strict-improvement gate keys on the *full*
        # candidate ranking; the visible top-k tuple may therefore tie
        # between chunks, but it must never get lexicographically worse.
        keys = [tuple(s for _, s in u["programs"]) for u in updates]
        if any(a > b for a, b in zip(keys, keys[1:])):
            violations.append((d.text, keys))
        if updates:
            assert [u["seq"] for u in updates] == list(
                range(1, len(updates) + 1)
            )
    assert not violations, f"non-monotone streams: {violations[:3]}"
