"""The DP's maps key interned expressions by identity, which is exact only
while the intern table is not cleared under a translation.

``ast.intern`` never clears the table; ``ast.intern_scope`` (one per
translation) trims it on entry, when no other translation is in flight.
With the cap forced down to 300 nodes the table is trimmed before nearly
every translation, yet the first 150 descriptions of the Table 2 test split
rank exactly as at the default cap, translated in sequence and from four
threads, and no trim ever lands inside a translation.
"""

from __future__ import annotations

import threading

import pytest

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.dsl import ast
from repro.runtime import TranslationService
from repro.translate.translator import Translator

_DESCRIPTIONS = 150
_SMALL_CAP = 300


def _rankings(threads: int = 1) -> list[list[tuple[str, str]]]:
    """Program strings and ``repr(score)`` of every candidate, per
    description, with one service per sheet shared by ``threads`` threads
    that take the descriptions in turn."""
    descriptions = Corpus.default().test[:_DESCRIPTIONS]
    services = {
        sheet_id: TranslationService(build_sheet(sheet_id))
        for sheet_id in SHEET_ORDER
    }
    out: list = [None] * len(descriptions)
    errors: list[BaseException] = []

    def work(first: int) -> None:
        try:
            for k in range(first, len(descriptions), threads):
                d = descriptions[k]
                result = services[d.sheet_id].translate(d.text)
                out[k] = [
                    (str(c.program), repr(c.score)) for c in result.candidates
                ]
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    workers = [
        threading.Thread(target=work, args=(k,)) for k in range(threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if errors:
        raise errors[0]
    return out


@pytest.fixture(scope="module")
def reference():
    return _rankings()


class _WatchedTable(dict):
    """An intern table that counts its clears, and those made while some
    translation is between its first DP step and its final ranking."""

    def __init__(self, in_flight: set) -> None:
        super().__init__()
        self.in_flight = in_flight
        self.clears = 0
        self.clears_in_flight = 0

    def clear(self) -> None:
        self.clears += 1
        if self.in_flight:
            self.clears_in_flight += 1
        super().clear()


@pytest.fixture
def small_cap(monkeypatch):
    in_flight: set[int] = set()
    lock = threading.Lock()
    table = _WatchedTable(in_flight)
    monkeypatch.setattr(ast, "_INTERN_CAP", _SMALL_CAP)
    monkeypatch.setattr(ast, "_INTERN_TABLE", table)
    translate_span = Translator._translate_span
    rank = Translator._rank

    def step(self, *args, **kwargs):
        with lock:
            in_flight.add(threading.get_ident())
        return translate_span(self, *args, **kwargs)

    def final_ranking(self, *args, **kwargs):
        # The last step that reads derivations; with no budget and no
        # progress hook it runs once per translation.
        try:
            return rank(self, *args, **kwargs)
        finally:
            with lock:
                in_flight.discard(threading.get_ident())

    monkeypatch.setattr(Translator, "_translate_span", step)
    monkeypatch.setattr(Translator, "_rank", final_ranking)
    return table


@pytest.mark.parametrize("threads", [1, 4])
def test_small_cap_changes_no_ranking(reference, small_cap, threads):
    assert _rankings(threads) == reference
    clears, clears_in_flight = small_cap.clears, small_cap.clears_in_flight
    assert clears > 0
    assert clears_in_flight == 0
