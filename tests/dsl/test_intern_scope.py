"""``ast.intern_scope`` trims the intern table only when no other scope is
open, and once the table holds twice the cap an entry waits for the open
scopes to close, so translations always in flight cannot grow it without
bound."""

from __future__ import annotations

import threading

import pytest

from repro.dsl import ast
from repro.sheet import CellValue

_CAP = 4


@pytest.fixture
def table(monkeypatch):
    table: dict = {}
    monkeypatch.setattr(ast, "_INTERN_CAP", _CAP)
    monkeypatch.setattr(ast, "_INTERN_TABLE", table)
    return table


def _fill(size: int) -> None:
    for k in range(size):
        ast.intern(ast.Lit(CellValue.number(k)))


def test_intern_never_clears(table):
    _fill(3 * _CAP)
    assert len(table) == 3 * _CAP


def test_entry_clears_at_the_cap_when_no_scope_is_open(table):
    _fill(_CAP - 1)
    with ast.intern_scope():
        assert len(table) == _CAP - 1
    _fill(_CAP)
    with ast.intern_scope():
        assert len(table) == 0


def test_entry_under_twice_the_cap_leaves_an_open_scope_alone(table):
    with ast.intern_scope():
        _fill(2 * _CAP - 1)
        done = threading.Event()

        def enter() -> None:
            with ast.intern_scope():
                done.set()

        other = threading.Thread(target=enter)
        other.start()
        other.join(timeout=10)
        assert done.is_set()
        assert len(table) == 2 * _CAP - 1


def test_entry_at_twice_the_cap_waits_for_open_scopes(table):
    entered = threading.Event()
    sizes: list[int] = []

    def enter() -> None:
        with ast.intern_scope():
            sizes.append(len(table))
            entered.set()

    with ast.intern_scope():
        _fill(2 * _CAP)
        other = threading.Thread(target=enter)
        other.start()
        assert not entered.wait(timeout=0.2)
        assert len(table) == 2 * _CAP
    other.join(timeout=10)
    assert entered.is_set()
    assert sizes == [0]
