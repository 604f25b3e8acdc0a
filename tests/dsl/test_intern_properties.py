"""Property tests for AST hash-consing and type-checker memoisation.

Interning is a pure representation change: an interned node must be
indistinguishable from a freshly built one under every observable —
equality, hash, ``str``, parser round-trip — and the memoised type checker
must agree verdict-for-verdict (including error behaviour) with a cold,
unmemoised one on arbitrary expressions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import build_sheet
from repro.dsl import TypeChecker, ast, parse_expr
from repro.dsl.holes import holes_of
from repro.errors import DslTypeError
from repro.sheet import CellValue

# -- strategies --------------------------------------------------------------
#
# Mixed well-typed / ill-typed expressions over the payroll sheet: columns
# that exist and columns that don't, literal types that match and clash —
# the checker memo must agree with the cold checker on *both* verdicts.

_COLUMNS = ["hours", "othours", "basepay", "totalpay", "location", "nosuch"]
_VALUES = [
    CellValue.number(7),
    CellValue.currency(10),
    CellValue.text("barista"),
    CellValue.text("capitol hill"),
]


def atoms():
    return st.one_of(
        st.sampled_from(_COLUMNS).map(ast.ColumnRef),
        st.sampled_from(_VALUES).map(ast.Lit),
        st.integers(min_value=1, max_value=3).map(
            lambda i: ast.Hole(i, ast.HoleKind.GENERAL)
        ),
    )


def filters(depth: int = 2):
    base = st.one_of(
        st.just(ast.TrueF()),
        st.tuples(st.sampled_from(list(ast.RelOp)), atoms(), atoms()).map(
            lambda t: ast.Compare(*t)
        ),
    )
    if depth == 0:
        return base
    sub = filters(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda t: ast.And(*t)),
        st.tuples(sub, sub).map(lambda t: ast.Or(*t)),
        sub.map(ast.Not),
    )


def expressions():
    return st.one_of(
        atoms(),
        filters(),
        st.tuples(
            st.sampled_from(list(ast.ReduceOp)),
            st.sampled_from(_COLUMNS).map(ast.ColumnRef),
            filters(1),
        ).map(lambda t: ast.Reduce(t[0], t[1], ast.GetTable(), t[2])),
        filters(1).map(lambda f: ast.Count(ast.GetTable(), f)),
        st.tuples(st.sampled_from(list(ast.BinaryOp)), atoms(), atoms()).map(
            lambda t: ast.BinOp(*t)
        ),
        filters(1).map(
            lambda f: ast.MakeActive(ast.SelectRows(ast.GetTable(), f))
        ),
    )


# -- interning preserves structural semantics --------------------------------


@given(expressions())
@settings(max_examples=200)
def test_interned_equals_fresh(expr):
    interned = ast.intern(expr)
    assert interned == expr
    assert hash(interned) == hash(expr)
    assert str(interned) == str(expr)
    assert type(interned) is type(expr)


@given(expressions())
@settings(max_examples=200)
def test_interning_is_idempotent_and_canonical(expr):
    a = ast.intern(expr)
    assert ast.intern(a) is a
    # A structurally equal tree built independently lands on the same object,
    # and so does every sub-expression.
    rebuilt = parse_expr(str(expr)) if _parseable(expr) else expr
    b = ast.intern(
        rebuilt.replace_children(rebuilt.children()) if rebuilt.children()
        else rebuilt
    )
    if rebuilt == expr:
        assert b is a
        for child_a, child_b in zip(a.children(), b.children()):
            assert child_a is child_b


def _parseable(expr) -> bool:
    try:
        return parse_expr(str(expr)) == expr
    except Exception:
        return False


@given(expressions())
@settings(max_examples=200)
def test_parser_round_trip_agrees(expr):
    """Interned and fresh nodes print identically, so the parser cannot
    tell them apart."""
    try:
        fresh_round = parse_expr(str(expr))
    except Exception:
        return  # holes etc. outside the concrete syntax — nothing to check
    interned_round = parse_expr(str(ast.intern(expr)))
    assert interned_round == fresh_round


@given(expressions())
@settings(max_examples=200)
def test_holes_cache_matches_walk(expr):
    cached = holes_of(ast.intern(expr))
    assert list(cached) == [
        node for node in expr.walk() if isinstance(node, ast.Hole)
    ]
    # And the cache is stable across repeat probes.
    assert holes_of(ast.intern(expr)) == cached


# -- memoised type checker agrees with a cold one ----------------------------


@pytest.fixture(scope="module")
def workbook():
    return build_sheet("payroll")


def _verdict(checker, expr):
    """(valid, type-or-error-class) — the full observable behaviour."""
    try:
        t = checker.type_of(expr)
        return (True, str(t))
    except DslTypeError:
        return (False, DslTypeError.__name__)


@given(st.lists(expressions(), min_size=1, max_size=8))
@settings(max_examples=150)
def test_memoised_checker_agrees_with_cold(workbook, exprs):
    """One warm checker probed repeatedly (memos populated, including the
    failure memo) vs a cold checker per expression: identical verdicts,
    identical types, and ``valid``/``valid_program`` consistent with
    ``type_of``."""
    warm = TypeChecker(workbook, content_check=True)
    for expr in exprs:
        expr = ast.intern(expr)
        cold = TypeChecker(workbook, content_check=True)
        first = _verdict(warm, expr)
        again = _verdict(warm, expr)  # cached probe (success or failure memo)
        assert first == again == _verdict(cold, expr)
        assert warm.valid(expr) == cold.valid(expr) == first[0]
        assert warm.valid(expr) == warm.valid(expr)
        assert (
            warm.valid_program(expr)
            == cold.valid_program(expr)
            == warm.valid_program(expr)
        )
