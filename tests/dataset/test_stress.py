"""The stress corpus: deterministic, duplicated where it matters, and
translatable end to end at a small size."""

from __future__ import annotations

from repro.dataset import (
    DEFAULT_STRESS_SEED,
    stress_sentences,
    stress_workbook,
)
from repro.runtime import TranslationService


def test_workbook_deterministic():
    a = stress_workbook(500)
    b = stress_workbook(500)
    assert a.fingerprint() == b.fingerprint()
    assert stress_sentences(a) == stress_sentences(b)


def test_seed_and_rows_change_content():
    base = stress_workbook(500)
    assert stress_workbook(500, seed=DEFAULT_STRESS_SEED + 1).fingerprint() \
        != base.fingerprint()
    assert stress_workbook(600).fingerprint() != base.fingerprint()


def test_shape_and_cross_column_duplication():
    wb = stress_workbook(500)
    orders = wb.table("Orders")
    assert orders.n_rows == 500
    # Region values are deliberately shared between Orders.region,
    # Orders.shipregion and Couriers.region: a bare region span must
    # resolve to multiple slots (the ResolveCol regime at scale).
    lexicon = wb.columnar_index().all_text_values()
    region = str(orders.cell(0, 1).value.payload)
    slots = set(lexicon[region])
    assert ("Orders", "region") in slots
    assert ("Orders", "shipregion") in slots
    assert ("Couriers", "region") in slots


def test_sentences_translate():
    wb = stress_workbook(400)
    service = TranslationService(wb)
    for text in stress_sentences(wb):
        result = service.translate(text)
        assert result.candidates, text
