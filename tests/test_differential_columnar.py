"""Differential harness: the columnar backend must never change an answer.

Mirror of ``test_differential_intern`` for the ``REPRO_NO_COLUMNAR``
switch: the Table 2 test split runs through :class:`TranslationService`
with the columnar backend + template interning on, then again with the
escape hatch engaged (row-backed lookups, per-call template parsing), and
the rankings must serialise to identical bytes — programs, scores, tiers,
error codes, Excel emission.  A second differential pushes the same batch
through an optimised and a de-optimised gateway (forked workers re-read
the env var via ``sync_hotpath_from_env``).  A third crosses the two
escape hatches: the rare-but-legal ``REPRO_NO_INTERN=1`` +
columnar-enabled combination must match the all-legacy mode too.

``REPRO_DIFF_LIMIT`` caps the number of descriptions per differential
(evenly subsampled; default: the full test split, which is what the
acceptance bar requires).
"""

from __future__ import annotations

import os

import pytest

from repro.dataset import (
    SHEET_ORDER,
    Corpus,
    build_sheet,
    stress_sentences,
    stress_workbook,
)
from repro.dsl import ast
from repro.runtime import TranslationService
from repro.serve import GatewayConfig, TranslationGateway
from repro.sheet import columnar

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


@pytest.fixture(autouse=True)
def _restore_columnar():
    was = columnar.columnar_enabled()
    yield
    columnar.set_columnar(was)


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


def test_service_columnar_equals_rows(test_split):
    """The full split, columnar on vs the REPRO_NO_COLUMNAR row-backed
    paths: byte-identical rankings, description by description."""
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    columnar.set_columnar(True)
    optimised = _run_service_split(test_split, workbooks)
    columnar.set_columnar(False)
    legacy = _run_service_split(test_split, workbooks)
    mismatches = [
        (d.sheet_id, d.text)
        for d, a, b in zip(test_split, optimised, legacy)
        if a != b
    ]
    assert not mismatches, (
        f"{len(mismatches)}/{len(test_split)} rankings changed under the "
        f"columnar backend, e.g. {mismatches[:3]}"
    )


def test_service_both_hatches_cross(test_split):
    """The switch matrix must agree pairwise: interning disabled with the
    columnar backend still on (and vice versa) is a supported combination
    and must match the all-legacy answers."""
    sample = test_split[:: max(1, len(test_split) // 60)]
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    runs = {}
    was_hotpath = ast.hotpath_enabled()
    try:
        for hotpath in (True, False):
            for use_columnar in (True, False):
                ast.set_hotpath(hotpath)
                columnar.set_columnar(use_columnar)
                runs[(hotpath, use_columnar)] = _run_service_split(
                    sample, workbooks
                )
    finally:
        ast.set_hotpath(was_hotpath)
    reference = runs[(True, True)]
    for key, outputs in runs.items():
        assert outputs == reference, f"mode {key} diverged"


def test_service_columnar_equals_rows_largesheet():
    """The stress corpus through the service in both modes — the regime
    the columnar backend was built for, at a CI-friendly size."""
    workbook = stress_workbook(2_000)
    sentences = stress_sentences(workbook)

    def run() -> list[bytes]:
        service = TranslationService(workbook)
        return [
            serialise_service(service.translate(text), workbook)
            for text in sentences
        ]

    columnar.set_columnar(True)
    optimised = run()
    columnar.set_columnar(False)
    legacy = run()
    assert optimised == legacy


def test_gateway_columnar_equals_rows(test_split):
    """The same batch through an optimised and a REPRO_NO_COLUMNAR=1
    gateway must produce byte-identical wire-level replies.  Workers are
    forked after the env var is set and re-sync it in ``worker_main``."""
    sample = test_split[:: max(1, len(test_split) // 120)]
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}

    def run(no_columnar: bool):
        old = os.environ.get("REPRO_NO_COLUMNAR")
        os.environ["REPRO_NO_COLUMNAR"] = "1" if no_columnar else ""
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
                os.environ.pop("REPRO_NO_COLUMNAR", None)
            else:
                os.environ["REPRO_NO_COLUMNAR"] = old

    optimised = run(no_columnar=False)
    legacy = run(no_columnar=True)
    for d, a, b in zip(sample, optimised, legacy):
        assert _serialise_gateway(a) == _serialise_gateway(b), (
            d.sheet_id, d.text
        )
