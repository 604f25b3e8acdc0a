"""The type checker's memos stay bounded on a long-lived checker.

A gateway worker keeps its translators — and their checkers — for its
whole life, so a stream of ever-new literals must not grow the memos
without limit.  Each memo is cleared wholesale at ``MEMO_CAP`` entries, and
a cleared checker answers exactly as a fresh one does.  The test lowers
the cap so it can cross it many times over in well under a second.
"""

from __future__ import annotations

from repro.dsl import TypeChecker, ast
from repro.dsl.holes import substitute
from repro.dsl import types
from repro.sheet import CellValue

from ..conftest import make_payroll

_MEMOS = ("_cache", "_valid_cache", "_fail_cache", "_program_cache",
          "substitutions")
_CAP = 256
_EXTRA = 10


def _probe(checker: TypeChecker, k: int) -> tuple:
    """One new entry per memo for each distinct ``k``."""
    literal = ast.Lit(CellValue.number(k))
    fits = ast.Compare(ast.RelOp.LT, ast.ColumnRef("hours"), literal)
    clashes = ast.Compare(ast.RelOp.LT, ast.ColumnRef("title"), literal)
    total = ast.Reduce(
        ast.ReduceOp.SUM, ast.ColumnRef("totalpay"), ast.GetTable(), fits
    )
    open_total = ast.Reduce(
        ast.ReduceOp.SUM, ast.ColumnRef("totalpay"), ast.GetTable(),
        ast.Hole(1),
    )
    return (
        checker.valid(fits),
        checker.valid(clashes),
        checker.valid_program(total),
        checker.type_of(total),
        substitute(open_total, {1: fits}, checker),
    )


def test_memos_are_capped_and_answer_as_fresh(monkeypatch):
    monkeypatch.setattr(types, "MEMO_CAP", _CAP)
    wb = make_payroll()
    checker = TypeChecker(wb, content_check=True)
    largest = dict.fromkeys(_MEMOS, 0)
    for k in range(4 * _CAP + _EXTRA):
        _probe(checker, k)
        for name in _MEMOS:
            largest[name] = max(largest[name], len(getattr(checker, name)))
    # Every memo saw at least four caps' worth of distinct keys.
    for name in _MEMOS:
        assert largest[name] <= _CAP, name
    # One substitution per probe: the table filled to the cap four times,
    # was cleared wholesale each time, and holds only what came after.
    assert len(checker.substitutions) == _EXTRA
    for k in (0, 1, _CAP - 1, _CAP, 2 * _CAP + 7, 4 * _CAP + _EXTRA - 1):
        assert _probe(checker, k) == _probe(
            TypeChecker(wb, content_check=True), k
        )

