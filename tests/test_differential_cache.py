"""Differential harness: memoisation must never change an answer.

Runs the Table 2 test split twice through :class:`TranslationService`
with the cache on (a cold populating pass and a fully warm pass), and
checks both against the committed golden digest
(``tests/golden/table2_test.digest``, the uncached output): programs,
scores, tiers, error codes and the top candidate's Excel.  A second
differential pushes a batch through two gateways (cache on vs off) and
compares the wire-level replies.

``REPRO_DIFF_LIMIT`` caps the number of descriptions per differential
(evenly subsampled; default: the full test split, which is what the
acceptance bar requires).  CI's quick lane sets a low limit; the slow
lane and local runs take the full split.
"""

from __future__ import annotations

import os

import pytest

from repro.cache import ResultCache
from repro.dataset import SHEET_ORDER, build_sheet
from repro.runtime import TranslationService
from repro.serve import GatewayConfig, TranslationGateway

from .golden.digest import (
    first_difference,
    golden_line,
    golden_split,
    serialise_service,
)

pytestmark = pytest.mark.slow

_LIMIT = os.environ.get("REPRO_DIFF_LIMIT")


@pytest.fixture(scope="module")
def test_split():
    return [d for d, _ in golden_split(_LIMIT)]


def _serialise_gateway(result) -> bytes:
    lines = [f"tier={result.tier} code={result.error_code}"]
    lines += [
        f"{program}\t{score!r}" for program, score in result.programs
    ]
    lines.append(f"top_formula={result.top_formula}")
    return "\n".join(lines).encode()


def test_service_cached_equals_uncached():
    """Two passes over the full split, cache-cold and cache-warm: both
    reproduce the golden lines of the uncached service, and the warm pass
    is answered from the cache."""
    split = golden_split(_LIMIT)
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    cached = {
        sheet_id: TranslationService(wb, cache=ResultCache(capacity=4096))
        for sheet_id, wb in workbooks.items()
    }
    cold, warm = [], []
    warm_misses = 0
    for d, _ in split:
        service, workbook = cached[d.sheet_id], workbooks[d.sheet_id]
        cold_result = service.translate(d.text)
        cold.append(golden_line(serialise_service(cold_result, workbook), d))
        warm_result = service.translate(d.text)
        warm.append(golden_line(serialise_service(warm_result, workbook), d))
        # Only clean fully-searched runs are committed; with no deadline
        # every run is, so the repeat must be a hit.
        if not warm_result.cached:
            warm_misses += 1
    golden = [line for _, line in split]
    for name, lines in (("cold", cold), ("warm", warm)):
        difference = first_difference(golden, lines)
        assert difference is None, f"{name} pass: {difference}"
    assert warm_misses == 0


def test_gateway_batch_cached_equals_uncached(test_split):
    """The same batch through a cache-on and a cache-off gateway must
    produce byte-identical wire-level replies."""
    # A subsample keeps the four-pass gateway differential proportionate;
    # the service-level differential above already covers the full split.
    sample = test_split[:: max(1, len(test_split) // 120)]
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}

    def run(cache: bool, repeat: int):
        gateway = TranslationGateway(
            config=GatewayConfig(workers=2, queue_limit=1024, cache=cache)
        )
        try:
            out = []
            for _ in range(repeat):
                pendings = [
                    gateway.submit(d.text, workbooks[d.sheet_id])
                    for d in sample
                ]
                out.append([p.result(timeout=120.0) for p in pendings])
            stats = gateway.stats()
        finally:
            gateway.close(drain=True)
        return out, stats

    (baseline,), _ = run(cache=False, repeat=1)
    (cold, warm), stats = run(cache=True, repeat=2)
    for b, c, w in zip(baseline, cold, warm):
        assert _serialise_gateway(b) == _serialise_gateway(c) == \
            _serialise_gateway(w)
    # The warm wave ran after the cold wave completed, so it must have
    # been answered from the front-end cache.
    assert sum(r.cached for r in warm) == len(sample)
    assert stats.cache_hits >= len(sample)
