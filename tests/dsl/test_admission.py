"""Structural kinds and hole admission: the type-directed closure's skips.

``kind_of``, ``filler_class`` and ``admission`` (``repro.dsl.types``)
decide from node classes alone whether a hole can take a binding, so that
rule instantiation and synthesis skip a binding before substituting it.
Each is checked here against the type checker and ``substitute``:

* wherever ``TypeChecker.type_of(e, scope)`` succeeds, its kind is
  ``kind_of(e)``, over generated expressions (holes included) on both
  payroll sheets, in the default scope and in every table's;
* whenever admission rejects a binding, ``substitute`` returns None, over
  generated (partial expression, bindings) pairs;
* each pitfall that would make a rejection unsound is pinned: an open
  filler that types as ``ANY``, a lookup's needle while its key is a
  hole, an ident that carries two restrictions, and the open derivations
  a rule's G hole binds.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import build_sheet
from repro.dsl import TypeChecker, ast
from repro.dsl import types as dsl_types
from repro.dsl.holes import holes_of, substitute
from repro.dsl.types import (
    FILTER_CLASS, Kind, admission, filler_class, kind_of,
)
from repro.errors import DslTypeError
from repro.rules import builtin_rules
from repro.sheet import CellValue, Color, FormatFn

from ..conftest import make_payroll

_H = ast.Hole
_G = ast.HoleKind.GENERAL
_C = ast.HoleKind.COLUMN
_V = ast.HoleKind.VALUE
_L = ast.HoleKind.LITERAL


def _text(s):
    return ast.Lit(CellValue.text(s))


def _num(x):
    return ast.Lit(CellValue.number(x))


def _col(name, table=None):
    return ast.ColumnRef(name, table)


@functools.lru_cache(maxsize=None)
def _workbooks():
    """The Table 2 payroll sheet and the Fig. 1 miniature: ``basepay`` is
    a column of the first only, ``payrate`` of both."""
    return (build_sheet("payroll"), make_payroll())


def _scopes(workbook):
    return (None, *(t.name.strip().lower() for t in workbook.tables))


def admits(expr: ast.Expr, bindings) -> bool:
    """Whether every binding's class is admitted by its ident."""
    by_ident = dict(
        zip((h.ident for h in holes_of(expr)), admission(expr).by_hole)
    )
    return all(
        by_ident[ident] & filler_class(filler)
        for ident, filler in bindings.items()
    )


# -- generated expressions ------------------------------------------------------

_SPEC = ast.FormatSpec((FormatFn.color(Color.RED),))

_holes = st.builds(
    ast.Hole, st.integers(1, 3), st.sampled_from(list(ast.HoleKind))
)
_atoms = st.sampled_from(
    [
        *(
            _col(c)
            for c in ("name", "title", "hours", "basepay", "payrate", "salary")
        ),
        _col("payrate", "PayRates"),
        _col("title", "payrates"),
        _text("chef"), _text("capitol hill"), _num(20),
        ast.Lit(CellValue.currency(10)),
        ast.Lit(CellValue.date("2014-06-22")),
        ast.Lit(CellValue.boolean(True)),
        ast.Lit(CellValue.empty()),
        ast.CellRef("J2"), ast.CellRef("A2"),
        ast.TrueF(), ast.GetTable(), ast.GetTable("payrates"),
        ast.GetActive(), ast.GetFormat(_SPEC), _SPEC,
    ]
)


def _extend(children):
    return st.one_of(
        st.builds(
            ast.Compare, st.sampled_from(list(ast.RelOp)), children, children
        ),
        st.builds(ast.And, children, children),
        st.builds(ast.Or, children, children),
        st.builds(ast.Not, children),
        st.builds(
            ast.Reduce, st.sampled_from(list(ast.ReduceOp)),
            children, children, children,
        ),
        st.builds(ast.Count, children, children),
        st.builds(
            ast.BinOp, st.sampled_from(list(ast.BinaryOp)), children, children
        ),
        st.builds(ast.Lookup, children, children, children, children),
        st.builds(ast.SelectRows, children, children),
        st.builds(
            ast.SelectCells,
            st.lists(children, min_size=1, max_size=2).map(tuple),
            children, children,
        ),
        st.builds(ast.MakeActive, children),
        st.builds(ast.FormatCells, children, children),
        st.builds(ast.GetFormat, children),
    )


_exprs = st.recursive(st.one_of(_holes, _atoms), _extend, max_leaves=10)

# Open fillers a rule's G hole binds: some type as ANY and fit every slot.
_OPEN_FILLERS = [
    ast.BinOp(ast.BinaryOp.DIV, _H(1), _H(2)),
    ast.BinOp(ast.BinaryOp.ADD, _H(1), _num(2)),
    ast.BinOp(ast.BinaryOp.MULT, _H(2), _col("hours")),
    ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _C)),
    ast.Compare(ast.RelOp.LT, _H(1, _C), _H(2)),
    ast.Reduce(ast.ReduceOp.SUM, _H(1, _C), ast.GetTable(), _H(2)),
    ast.Not(_H(1)),
    _H(1),
]
_fillers = st.one_of(_exprs, st.sampled_from(_OPEN_FILLERS))


def _checked_kinds(expr):
    """Every (checker, scope, kind) for which ``type_of`` succeeds."""
    for workbook in _workbooks():
        for content_check in (False, True):
            checker = TypeChecker(workbook, content_check=content_check)
            for scope in _scopes(workbook):
                try:
                    yield checker.type_of(expr, scope).kind
                except DslTypeError:
                    continue


@settings(max_examples=400, deadline=None)
@given(_exprs)
def test_kind_of_is_the_checked_kind(expr):
    for sub in expr.walk():
        for kind in _checked_kinds(sub):
            assert kind_of(sub) is kind, sub


def test_kind_of_on_rule_and_typed_expressions():
    """Non-vacuous: rule expressions and typed programs of every kind."""
    exprs = [r.expr for r in builtin_rules()] + [
        ast.BinOp(ast.BinaryOp.ADD, _col("basepay"), _col("otpay")),
        ast.BinOp(ast.BinaryOp.MULT, _num(2), _num(3)),
        ast.BinOp(ast.BinaryOp.DIV, _H(1), _num(3)),
        ast.BinOp(ast.BinaryOp.DIV, _H(1), _col("hours")),
        ast.Lookup(
            _col("title"), ast.GetTable("payrates"), _col("title"),
            _col("payrate"),
        ),
        ast.Lookup(
            _text("chef"), ast.GetTable("payrates"), _col("title"),
            _col("payrate"),
        ),
        ast.Lookup(_H(1), _H(2), _H(3, _C), _H(4, _C)),
    ]
    checked = {}
    for expr in exprs:
        for sub in expr.walk():
            for kind in _checked_kinds(sub):
                assert kind_of(sub) is kind, sub
                checked[kind] = checked.get(kind, 0) + 1
    assert set(checked) == set(Kind)


@settings(max_examples=400, deadline=None)
@given(_exprs, st.data())
def test_rejected_binding_never_substitutes(expr, data):
    idents = sorted({h.ident for h in holes_of(expr)})
    if not idents:
        return
    chosen = data.draw(
        st.lists(st.sampled_from(idents), min_size=1, unique=True)
    )
    bindings = {ident: data.draw(_fillers) for ident in chosen}
    if admits(expr, bindings):
        return
    for workbook in _workbooks():
        for content_check in (False, True):
            checker = TypeChecker(workbook, content_check=content_check)
            assert substitute(expr, bindings, checker) is None


# -- the tables ---------------------------------------------------------------


def test_every_node_class_has_a_kind_and_its_slots():
    for cls in ast.Expr.__subclasses__():
        derived = cls in (ast.BinOp, ast.Lookup)
        assert (cls in dsl_types._NODE_KINDS) != derived, cls
        if cls._child_fields:
            slots = dsl_types._SLOT_KINDS[cls]
            assert len(slots) == len(cls._child_fields), cls
        else:
            assert cls not in dsl_types._SLOT_KINDS, cls


def test_admission_aligns_with_holes_of():
    for rule in builtin_rules():
        assert len(admission(rule.expr).by_hole) == len(holes_of(rule.expr))


def test_classes_are_cached_on_the_node():
    expr = ast.intern(ast.BinOp(ast.BinaryOp.ADD, _H(1), _col("hours")))
    assert filler_class(expr) is filler_class(expr)
    assert admission(expr) is admission(expr)
    assert expr.__dict__["_kind"] is Kind.VECTOR


def test_closed_filters_share_one_class():
    chef = ast.Compare(ast.RelOp.EQ, _col("title"), _text("chef"))
    both = ast.Or(chef, ast.TrueF())
    assert filler_class(chef) == filler_class(both) == FILTER_CLASS
    assert filler_class(_col("hours")) != FILTER_CLASS


# -- the pitfalls ---------------------------------------------------------------


def _checker():
    return TypeChecker(_workbooks()[0], content_check=True)


def test_open_filler_typed_any_fits_any_slot():
    receiver = ast.MakeActive(ast.SelectRows(ast.GetTable(), _H(1)))
    filler = ast.BinOp(ast.BinaryOp.DIV, _H(1), _H(2))
    assert kind_of(filler) is Kind.ANY
    assert admits(receiver, {1: filler})
    assert substitute(receiver, {1: filler}, _checker()) is not None


def test_lookup_needle_admits_every_kind_while_the_key_may_be_a_hole():
    receiver = ast.Lookup(_H(1), _H(2), _H(3, _C), _H(4, _C))
    needle = ast.Compare(ast.RelOp.EQ, _col("title"), _text("chef"))
    assert admits(receiver, {1: needle})
    assert substitute(receiver, {1: needle}, _checker()) is not None


def test_an_ident_with_two_restrictions_takes_the_last():
    """``substitute`` checks the last occurrence's restriction only, and
    every occurrence's slot types the binding."""
    receiver = ast.And(
        ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _C)),
        ast.BinOp(ast.BinaryOp.DIV, _H(1), _H(2)),
    )
    chef = _text("chef")
    assert admits(receiver, {1: chef})
    assert substitute(receiver, {1: chef}, _checker()) is not None
    title_is_chef = ast.Compare(ast.RelOp.EQ, _col("title"), chef)
    assert not admits(receiver, {1: title_is_chef})
    assert substitute(receiver, {1: title_is_chef}, _checker()) is None
    # Reversed, the column restriction comes last and rejects the text.
    reversed_ = ast.And(
        ast.BinOp(ast.BinaryOp.DIV, _H(1), _H(2)),
        ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _C)),
    )
    assert not admits(reversed_, {1: chef})
    assert substitute(reversed_, {1: chef}, _checker()) is None


def test_open_derivations_have_a_class():
    """A rule's G hole binds open derivations too."""
    receiver = ast.And(_H(1), _H(2))
    open_filter = ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _C))
    open_sum = ast.Reduce(ast.ReduceOp.SUM, _H(1, _C), ast.GetTable(), _H(2))
    assert admits(receiver, {1: open_filter})
    assert substitute(receiver, {1: open_filter}, _checker()) is not None
    assert not admits(receiver, {1: open_sum})
    assert substitute(receiver, {1: open_sum}, _checker()) is None


def test_restrictions_mirror_consistent():
    receiver = ast.Reduce(
        ast.ReduceOp.SUM, _H(1, _C), ast.GetTable(),
        ast.Compare(ast.RelOp.LT, _H(2, _C), _H(3, _L)),
    )
    date = ast.Lit(CellValue.date("2014-06-22"))
    assert admits(receiver, {3: _num(3)})
    assert admits(receiver, {3: date})
    assert admits(receiver, {3: ast.CellRef("J2")})
    assert not admits(receiver, {3: _text("chef")})
    assert not admits(receiver, {1: _text("hours")})
    value = ast.Compare(ast.RelOp.EQ, _col("title"), _H(1, _V))
    assert admits(value, {1: _text("chef")})
    assert admits(value, {1: date})
    assert not admits(value, {1: _num(3)})
