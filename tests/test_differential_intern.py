"""Differential harness: the hot path must never change an answer.

Runs the Table 2 test split through :class:`TranslationService` with the
DP optimisations on (interned ASTs, memoised type checking, seed indices)
and again with everything disabled via the ``REPRO_NO_INTERN=1`` escape
hatch, and asserts the rankings serialise to identical bytes — programs,
scores, tiers, error codes, and the emitted Excel formula.  A second
differential pushes the same batch through an optimised and a de-optimised
gateway (fresh worker pools re-read the env var on fork) and compares the
wire-level replies the same way.

``REPRO_DIFF_LIMIT`` caps the number of descriptions per differential
(evenly subsampled; default: the full test split, which is what the
acceptance bar requires).
"""

from __future__ import annotations

import os

import pytest

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.dsl import ast
from repro.runtime import TranslationService
from repro.serve import GatewayConfig, TranslationGateway

from .golden.digest import serialise_service

pytestmark = pytest.mark.slow

_LIMIT = os.environ.get("REPRO_DIFF_LIMIT")


@pytest.fixture(scope="module")
def test_split():
    descriptions = Corpus.default().test
    if _LIMIT:
        n = int(_LIMIT)
        if 0 < n < len(descriptions):
            step = len(descriptions) / n
            descriptions = [descriptions[int(k * step)] for k in range(n)]
    return descriptions


def _serialise_gateway(result) -> bytes:
    lines = [f"tier={result.tier} code={result.error_code}"]
    lines += [f"{program}\t{score!r}" for program, score in result.programs]
    lines.append(f"top_formula={result.top_formula}")
    return "\n".join(lines).encode()


def _run_service_split(test_split, workbooks) -> list[bytes]:
    services = {
        sheet_id: TranslationService(wb)
        for sheet_id, wb in workbooks.items()
    }
    return [
        serialise_service(
            services[d.sheet_id].translate(d.text), workbooks[d.sheet_id]
        )
        for d in test_split
    ]


def test_service_hotpath_equals_legacy(test_split):
    """The full split with the hot path on vs the REPRO_NO_INTERN legacy
    paths: byte-identical rankings, description by description."""
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    was = ast.hotpath_enabled()
    try:
        ast.set_hotpath(True)
        optimised = _run_service_split(test_split, workbooks)
        ast.set_hotpath(False)
        legacy = _run_service_split(test_split, workbooks)
    finally:
        ast.set_hotpath(was)
    mismatches = [
        (d.sheet_id, d.text)
        for d, a, b in zip(test_split, optimised, legacy)
        if a != b
    ]
    assert not mismatches, (
        f"{len(mismatches)}/{len(test_split)} rankings changed under the "
        f"hot-path optimisations, e.g. {mismatches[:3]}"
    )


def test_gateway_hotpath_equals_legacy(test_split):
    """The same batch through an optimised and a REPRO_NO_INTERN=1 gateway
    must produce byte-identical wire-level replies.  Workers are forked
    after the env var is set and re-sync it in ``worker_main``."""
    sample = test_split[:: max(1, len(test_split) // 120)]
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}

    def run(no_intern: bool):
        old = os.environ.get("REPRO_NO_INTERN")
        os.environ["REPRO_NO_INTERN"] = "1" if no_intern else ""
        gateway = TranslationGateway(
            config=GatewayConfig(workers=2, queue_limit=1024)
        )
        try:
            pendings = [
                gateway.submit(d.text, workbooks[d.sheet_id]) for d in sample
            ]
            return [p.result(timeout=120.0) for p in pendings]
        finally:
            gateway.close(drain=True)
            if old is None:
                os.environ.pop("REPRO_NO_INTERN", None)
            else:
                os.environ["REPRO_NO_INTERN"] = old

    optimised = run(no_intern=False)
    legacy = run(no_intern=True)
    for d, a, b in zip(sample, optimised, legacy):
        assert _serialise_gateway(a) == _serialise_gateway(b), (
            d.sheet_id, d.text
        )
