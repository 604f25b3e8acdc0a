"""The vector evaluator must compute exactly what the cell walk computes.

The evaluator compiles each filter once per query into a test on a row
index, reading text and number columns from their vectors
(``repro.sheet.vectors``), and folds reductions from those vectors.
Over generated workbooks, filters and programs, it must select the same
rows and compute the same values as the cell-reading interpreter in
``filter_oracle.py``, or raise the same error type with the same
message.  The generators aim at the places a vector could drift from
``CellValue.equals`` / ``less_than`` and ``float(payload)``: empty cells,
NUMBER vs CURRENCY magnitudes, TEXT case and whitespace variants, BOOL
and DATE columns, cells whose type is not their column's,
``And``/``Or``/``Not`` short-circuits, nested scalar operands
(reductions, counts, cell references — some empty) that the walk
evaluates on every row and the compiled filter at most once, the
``GetActive`` and ``GetFormat`` row subsets, and writes between
evaluations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import Evaluator, ast
from repro.sheet import (
    CellValue,
    Column,
    FormatFn,
    Table,
    ValueType,
    Workbook,
)
from repro.sheet.vectors import Magnitudes, TextIds

from .filter_oracle import RowWalkEvaluator

_N, _C, _T, _B, _D = (
    ValueType.NUMBER, ValueType.CURRENCY, ValueType.TEXT,
    ValueType.BOOL, ValueType.DATE,
)
_COLUMNS = (("num", _N), ("cur", _C), ("txt", _T), ("flag", _B), ("day", _D))
_CELLS = {
    _N: [CellValue.number(x) for x in (0, 2, 2.0, 2.5, -1, 7)],
    _C: [CellValue.currency(x) for x in (0, 2, 2.5, 3, 7)],
    _T: [CellValue.text(s) for s in (
        "chef", "Chef", " CHEF ", "barista", "capitol hill",
        "Capitol Hill ", "", " ",
    )],
    _B: [CellValue.boolean(b) for b in (True, False)],
    _D: [CellValue.date(d)
         for d in ("2013-01-01", "2014-06-01", "2015-12-31")],
}
# What each column type is compared with: its own cell values plus near
# misses, the empty value and two values of other types whose payloads
# Python calls equal to 0 and False; NUMBER and CURRENCY are pooled so
# that equal magnitudes meet across the two types, with a number beyond
# the float range.
_NUMERIC = [*_CELLS[_N], *_CELLS[_C], CellValue.number(3),
            CellValue.currency(2.0), CellValue.number(10 ** 400)]
_OTHERS = [CellValue.empty(), CellValue.boolean(False), CellValue.number(0)]
# Values of another type than their column's (or, for the huge number,
# of its type but beyond the float range), written past
# ``Column.accepts`` with ``Workbook.set_value``.  The text partners
# below spell out ``str(payload)`` of those in the TEXT column.
_ODD = {
    _N: [CellValue.text("5"), CellValue.text("abc"), CellValue.currency(2),
         CellValue.boolean(True), CellValue.date("2014-06-01"),
         CellValue.number(10 ** 400)],
    _C: [CellValue.number(2), CellValue.text(" 7 "), CellValue.boolean(False),
         CellValue.text("x")],
    _T: [CellValue.number(0), CellValue.number(2), CellValue.boolean(False),
         CellValue.date("2014-06-01")],
    _B: [CellValue.number(1), CellValue.text("true")],
    _D: [CellValue.text("2014-06-01"), CellValue.number(20140601)],
}
_PARTNERS = {
    dtype: [*pool, *_OTHERS] for dtype, pool in {
        _N: [*_NUMERIC, CellValue.number(5)],
        _C: [*_NUMERIC, CellValue.currency(7)],
        _T: [*_CELLS[_T], CellValue.text("nobody"), CellValue.text("0"),
             CellValue.text("2"), CellValue.text("false"),
             CellValue.text("2014-06-01")],
        _B: _CELLS[_B],
        _D: [*_CELLS[_D], CellValue.date("2014-06-02")],
    }.items()
}
_LITERALS = [v for pool in _PARTNERS.values() for v in pool]
# Z1..Z4 hold values; Z5 is blank, so a reference to it raises.
_SCRATCH = {
    "Z1": CellValue.number(2), "Z2": CellValue.text("chef"),
    "Z3": CellValue.currency(3), "Z4": CellValue.date("2014-06-01"),
}
_COLUMN_NAMES = [name for name, _ in _COLUMNS] + ["nosuch"]


_SPECS = [
    (FormatFn.bold(),), (FormatFn.color("red"),),
    (FormatFn.bold(), FormatFn.color("red")),
]


@st.composite
def workbooks(draw):
    """A default table T over every column type (cells may be empty, a
    few hold a value of another type), a narrower second table U, scratch
    cells outside both, some bold or red cells and a selection."""
    wb = Workbook()
    selected = []
    for name, columns in (("T", _COLUMNS), ("U", _COLUMNS[:3])):
        rows = [
            [
                draw(st.one_of(
                    st.just(CellValue.empty()), st.sampled_from(_CELLS[dtype])
                ))
                for _, dtype in columns
            ]
            for _ in range(draw(st.integers(0, 8)))
        ]
        table = Table(name, [Column(n, t) for n, t in columns], rows)
        wb.add_table(table)
        cells = st.lists(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(columns) - 1)
        ), max_size=6) if rows else st.just([])
        for i, j in draw(cells)[:3]:
            odd = draw(st.sampled_from(_ODD[columns[j][1]]))
            wb.set_value(table.address_of(i, j), odd)
        for i, j in draw(cells):
            table.cell(i, j).apply_formats(draw(st.sampled_from(_SPECS)))
        selected += [table.address_of(i, j) for i, j in draw(cells)[:3]]
    wb.select(selected)
    for a1, value in _SCRATCH.items():
        wb.set_value(a1, value)
    return wb


def _columns():
    return st.sampled_from(_COLUMN_NAMES).map(ast.ColumnRef)


def _scalars(filters):
    """Scalar operands: literals, cell references (Z5 is blank) and nested
    reductions and counts over the default table."""
    literal = st.sampled_from(_LITERALS).map(ast.Lit)
    cell = st.sampled_from(["Z1", "Z2", "Z3", "Z4", "Z5"]).map(ast.CellRef)
    nested = st.tuples(
        st.sampled_from([*ast.ReduceOp, "count"]),
        st.sampled_from(["num", "cur"]).map(ast.ColumnRef),
        filters,
    ).map(_nested)
    return st.one_of(literal, cell, nested)


def _nested(parts) -> ast.Expr:
    op, column, condition = parts
    if op == "count":
        return ast.Count(ast.GetTable(), condition)
    return ast.Reduce(op, column, ast.GetTable(), condition)


def _compares(filters):
    """Comparisons: a column against a literal its type can meet, on
    either side, two columns, or any two operands (column/column,
    column/scalar, scalar/column, scalar/scalar)."""
    typed = st.sampled_from(_COLUMNS).flatmap(
        lambda column: st.tuples(
            st.just(ast.ColumnRef(column[0])),
            st.sampled_from(_PARTNERS[column[1]]).map(ast.Lit),
        )
    )
    operand = st.one_of(_columns(), _scalars(filters))
    pairs = st.one_of(
        typed,
        typed.map(lambda pair: pair[::-1]),
        st.lists(_columns(), min_size=2, max_size=2),
        st.lists(operand, min_size=2, max_size=2),
    )
    return st.tuples(st.sampled_from(list(ast.RelOp)), pairs).map(
        lambda parts: ast.Compare(parts[0], *parts[1])
    )


def _filters(depth: int = 2):
    """Filter trees whose nested operands hold filters of ``depth - 1``."""
    inner = _filters(depth - 1) if depth else st.just(ast.TrueF())
    compares = _compares(inner)
    # Mostly comparisons; one leaf in ten is not a filter at all.
    leaves = st.integers(0, 9).flatmap(
        lambda k: compares if k < 7 else st.just(
            ast.TrueF() if k < 9 else ast.Lit(CellValue.number(1))
        )
    )
    return st.recursive(
        leaves,
        lambda tree: st.one_of(
            st.builds(ast.And, tree, tree),
            st.builds(ast.Or, tree, tree),
            st.builds(ast.Not, tree),
        ),
        max_leaves=5,
    )


def _outcome(evaluator, condition, table, rows):
    try:
        return ("rows", evaluator._filter_rows(condition, table, list(rows)))
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return ("error", type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(workbooks(), _filters(), st.data())
def test_compiled_filter_agrees_with_row_walk(wb, condition, data):
    """Same rows selected, or the same error raised, on every table and on
    all rows, a subset of rows or none."""
    for name in ("T", "U"):
        table = wb.table(name)
        every = range(table.n_rows)
        subset = data.draw(st.lists(st.sampled_from(every), unique=True)
                           .map(sorted)) if table.n_rows else []
        for rows in (every, subset, []):
            compiled = _outcome(Evaluator(wb), condition, table, rows)
            walked = _outcome(RowWalkEvaluator(wb), condition, table, rows)
            assert compiled == walked, (str(condition), name, list(rows))


def _sources():
    """Every row source over either table: all rows, the selection, and
    the rows holding a bold and/or red cell."""
    formats = st.sampled_from(_SPECS).map(ast.FormatSpec)
    return st.one_of(
        st.sampled_from([ast.GetTable(), ast.GetTable("U"), ast.GetActive()]),
        st.builds(ast.GetFormat, formats),
        st.builds(ast.GetFormat, formats, st.just("U")),
    )


def _programs():
    """Reductions over the numeric columns (``Valid`` admits no other)
    and counts, each over any row source and filter."""
    reduce = st.builds(
        ast.Reduce,
        st.sampled_from(list(ast.ReduceOp)),
        st.sampled_from(["num", "cur"]).map(ast.ColumnRef),
        _sources(),
        _filters(),
    )
    return st.one_of(reduce, st.builds(ast.Count, _sources(), _filters()))


def _value(evaluator, program):
    try:
        value = evaluator.eval_scalar(program, evaluator._default_key())
        return ("value", value.type, repr(value.payload))
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return ("error", type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(workbooks(), _programs(), st.data())
def test_program_agrees_with_cell_walk(wb, program, data):
    """Same value (type and payload repr), or the same error, before and
    after a scratch write, which keeps the typed vectors, and a table-cell
    write, which rebuilds them."""

    def agree():
        assert _value(Evaluator(wb), program) == (
            _value(RowWalkEvaluator(wb), program)
        ), str(program)

    agree()
    table = wb.table("T")
    vectors = [(0, Magnitudes), (1, Magnitudes), (2, TextIds)]
    kept = [wb.column_vector(table, j, layout) for j, layout in vectors]
    wb.set_value("Z1", data.draw(st.sampled_from(_LITERALS)))
    assert all(
        wb.column_vector(table, j, layout) is vector
        for (j, layout), vector in zip(vectors, kept)
    )
    agree()
    if table.n_rows:
        i = data.draw(st.integers(0, table.n_rows - 1))
        j = data.draw(st.integers(0, table.n_cols - 1))
        dtype = _COLUMNS[j][1]
        value = data.draw(st.sampled_from(
            [CellValue.empty(), *_CELLS[dtype], *_ODD[dtype]]
        ))
        wb.set_value(table.address_of(i, j), value)
        assert not any(
            wb.column_vector(table, j, layout) is vector
            for (j, layout), vector in zip(vectors, kept)
        )
        agree()


@pytest.mark.parametrize("odd,program", [
    # float() refuses these payloads, so a reduction over them must raise.
    (CellValue.number(10 ** 400), "sum"),
    (CellValue.text("abc"), "sum"),
    (CellValue.date("2014-06-01"), "max"),
    # float() takes these, so they are summed like the column's numbers.
    (CellValue.text(" 5 "), "sum"),
    (CellValue.boolean(True), "avg"),
    # Their str(payload) spells the text, yet no text equality may hold
    # on them.
    (CellValue.number(0), "count 0"),
    (CellValue.boolean(False), "count false"),
    (CellValue.date("2014-06-01"), "count 2014-06-01"),
])
def test_odd_cell_is_read_as_the_cell_walk_reads_it(odd, program):
    """A value of another type than its column's, which
    ``Workbook.set_value`` does not refuse."""
    wb = Workbook()
    wb.add_table(Table(
        "T", [Column("num", _N), Column("txt", _T)],
        [[CellValue.number(1), CellValue.text("chef")],
         [CellValue.number(2), CellValue.text("0")]],
    ))
    table = wb.default_table
    if program.startswith("count"):
        wb.set_value(table.address_of(0, 1), odd)
        expr = ast.Count(ast.GetTable(), ast.Compare(
            ast.RelOp.EQ, ast.ColumnRef("txt"),
            ast.Lit(CellValue.text(program.split(" ", 1)[1])),
        ))
    else:
        wb.set_value(table.address_of(0, 0), odd)
        expr = ast.Reduce(
            ast.ReduceOp[program.upper()], ast.ColumnRef("num"), ast.GetTable(),
            ast.TrueF(),
        )
    assert _value(Evaluator(wb), expr) == _value(RowWalkEvaluator(wb), expr)


def _people(n: int) -> Workbook:
    wb = Workbook()
    wb.add_table(Table.from_data(
        "People", ["name", "age"],
        [[f"p{i}", i % 50] for i in range(n)],
    ))
    return wb


def test_equality_against_constants():
    """Text matches across case and surrounding space, NUMBER meets
    CURRENCY by magnitude, and nothing else crosses types, though Python
    calls ``0 == False`` and ``1 == True``."""
    wb = Workbook()
    wb.add_table(Table.from_data(
        "Mixed", ["num", "cost", "flag", "word"],
        [[0, 0, False, " CHEF "], [1, 2.5, True, "chef"],
         [2, 2, True, "false"], [2.5, 1, False, "0"]],
        types=[_N, _C, _B, _T],
    ))
    literals = [
        CellValue.boolean(False), CellValue.boolean(True),
        CellValue.number(0), CellValue.number(1), CellValue.number(2.5),
        CellValue.currency(2), CellValue.text("chef"),
        CellValue.text("Chef "), CellValue.text("0"),
        CellValue.text("false"),
    ]

    def selected(evaluator, column, literal, column_first=True):
        pair = (ast.ColumnRef(column), ast.Lit(literal))
        condition = ast.Compare(
            ast.RelOp.EQ, *(pair if column_first else pair[::-1])
        )
        return evaluator.eval_query(
            ast.SelectRows(ast.GetTable(), condition)
        )[1]

    compiled, walked = Evaluator(wb), RowWalkEvaluator(wb)
    for column in ("num", "cost", "flag", "word"):
        for literal in literals:
            for column_first in (True, False):
                assert selected(compiled, column, literal, column_first) == (
                    selected(walked, column, literal, column_first)
                ), (column, literal, column_first)
    assert selected(compiled, "word", CellValue.text("Chef ")) == [0, 1]
    assert selected(compiled, "num", CellValue.currency(2)) == [2]
    assert selected(compiled, "cost", CellValue.number(2.5)) == [1]
    assert selected(compiled, "num", CellValue.boolean(False)) == []


def test_number_beyond_the_float_range():
    """``float()`` refuses the constant, so the walk raises at the first
    row it compares, and on no rows raises nothing."""
    wb = _people(3)
    table = wb.default_table
    huge = ast.Lit(CellValue.number(10 ** 400))
    for op in ast.RelOp:
        for pair in ((ast.ColumnRef("age"), huge),
                     (huge, ast.ColumnRef("age"))):
            condition = ast.Compare(op, *pair)
            for rows in ([], [0, 1, 2]):
                assert _outcome(Evaluator(wb), condition, table, rows) == (
                    _outcome(RowWalkEvaluator(wb), condition, table, rows)
                ), (str(condition), rows)
    assert _outcome(Evaluator(wb), condition, table, [0])[1] is OverflowError


def test_empty_cell_behind_short_circuit_is_never_read():
    """The walk never reaches the blank Z9 when the left side is false on
    every row, so neither may the compiled filter."""
    wb = _people(20)
    guarded = ast.And(
        ast.Compare(ast.RelOp.EQ, ast.ColumnRef("name"),
                    ast.Lit(CellValue.text("nobody"))),
        ast.Compare(ast.RelOp.GT, ast.ColumnRef("age"), ast.CellRef("Z9")),
    )
    query = ast.SelectRows(ast.GetTable(), guarded)
    assert Evaluator(wb).eval_query(query)[1] == []
    assert RowWalkEvaluator(wb).eval_query(query)[1] == []


def test_zero_rows_raise_nothing():
    """On an empty row set nothing is evaluated: not an unknown column, not
    a blank cell, not a node that is no filter at all."""
    wb = _people(3)
    table = wb.default_table
    for condition in (
        ast.Compare(ast.RelOp.EQ, ast.ColumnRef("nosuch"),
                    ast.Lit(CellValue.number(1))),
        ast.Compare(ast.RelOp.LT, ast.ColumnRef("age"), ast.CellRef("Z9")),
        ast.Lit(CellValue.number(1)),
    ):
        assert Evaluator(wb)._filter_rows(condition, table, []) == []


def test_nested_reduction_is_evaluated_once(monkeypatch):
    """Task countries-02's shape, "rows whose gdp per capita is above the
    average", on a 2,000-row sheet: the inner ``Avg`` runs once per query,
    where the per-row walk runs it once per row."""
    rows = [[f"c{i}", (i * 37) % 101] for i in range(2000)]
    wb = Workbook()
    wb.add_table(Table.from_data(
        "Countries", ["country", "gdppercapita"], rows,
        types=[ValueType.TEXT, ValueType.CURRENCY],
    ))
    average = ast.Reduce(
        ast.ReduceOp.AVG, ast.ColumnRef("gdppercapita"), ast.GetTable(),
        ast.TrueF(),
    )
    program = ast.MakeActive(ast.SelectRows(
        ast.GetTable(),
        ast.Compare(ast.RelOp.GT, ast.ColumnRef("gdppercapita"), average),
    ))
    calls = []
    reduce = Evaluator._eval_reduce

    def counting(self, e):
        calls.append(e)
        return reduce(self, e)

    monkeypatch.setattr(Evaluator, "_eval_reduce", counting)
    result = Evaluator(wb).run(program)
    assert calls == [average]
    mean = sum(value for _, value in rows) / len(rows)
    assert result.rows == [i for i, (_, v) in enumerate(rows) if v > mean]


# -- Lookup -------------------------------------------------------------------

# Keys and needles no float-keyed map can hold: a NaN equals nothing, and
# float() of a number beyond the float range raises while the walk meets it.
_UNMAPPABLE = [
    CellValue.number(float("nan")), CellValue.currency(float("nan")),
    CellValue.number(10 ** 400),
]


def _lookups():
    """A vector lookup keyed by a column of the default table, or a scalar
    one keyed by a literal, over any row source and pair of columns (some
    missing)."""
    needle = st.one_of(
        _columns(),
        st.sampled_from(_LITERALS + _UNMAPPABLE).map(ast.Lit),
    )
    return st.builds(ast.Lookup, needle, _sources(), _columns(), _columns())


def _looked_up(evaluator, lookup):
    scope = evaluator._default_key()
    try:
        if isinstance(lookup.needle, ast.ColumnRef):
            values = evaluator.eval_vector(lookup, scope)
        else:
            values = [evaluator.eval_scalar(lookup, scope)]
        return ("values", [(v.type, repr(v.payload)) for v in values])
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return ("error", type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(workbooks(), _lookups(), st.data())
def test_lookup_agrees_with_row_walk(wb, lookup, data):
    """Same values, or the same error type and message, including keys
    and needles that no map can hold."""
    for name in ("T", "U"):
        table = wb.table(name)
        for _ in range(data.draw(st.integers(0, 2)) if table.n_rows else 0):
            i = data.draw(st.integers(0, table.n_rows - 1))
            j = data.draw(st.integers(0, 1))
            wb.set_value(
                table.address_of(i, j), data.draw(st.sampled_from(_UNMAPPABLE))
            )
    assert _looked_up(Evaluator(wb), lookup) == (
        _looked_up(RowWalkEvaluator(wb), lookup)
    ), str(lookup)


# One key column holding every type, so equal keys repeat (NUMBER and
# CURRENCY magnitudes, TEXT case and whitespace variants), with the
# unmappable ones among them.
_KEY_POOL = [
    *_NUMERIC, *_CELLS[_T], *_CELLS[_B], *_CELLS[_D], *_UNMAPPABLE,
    CellValue.empty(),
]


@st.composite
def _keyed(draw):
    """A key table K (mixed-type keys, each row's out value its index)
    and a needle table N whose needles are mostly keys of K, so most
    lookups hit and the first of several equal keys must win."""
    keys = draw(st.lists(st.sampled_from(_KEY_POOL), min_size=1, max_size=10))
    miss = CellValue.text("nobody")
    needles = draw(st.lists(st.sampled_from([*keys, miss]), max_size=6))
    wb = Workbook()
    for name, columns, values in (
        ("N", [Column("needle", _T)], [[v] for v in needles]),
        ("K", [Column("key", _T), Column("out", _N)],
         [[v, CellValue.number(i)] for i, v in enumerate(keys)]),
    ):
        table = Table(
            name, columns,
            [[CellValue.empty()] * len(columns) for _ in values],
        )
        wb.add_table(table)
        for i, row in enumerate(values):
            for j, value in enumerate(row):
                wb.set_value(table.address_of(i, j), value)
    return wb, needles


@settings(max_examples=300, deadline=None)
@given(_keyed(), st.data())
def test_lookup_hits_agree_with_row_walk(keyed, data):
    """The first equal key's row wins, an unmappable key or needle is
    walked, and a miss raises the walk's error."""
    wb, needles = keyed
    columns = [ast.ColumnRef(name) for name in ("key", "out")]
    vector = ast.Lookup(ast.ColumnRef("needle"), ast.GetTable("K"), *columns)
    programs = [vector] + [
        ast.Lookup(ast.Lit(needle), ast.GetTable("K"), *columns)
        for needle in needles
    ]
    for program in programs:
        assert _looked_up(Evaluator(wb), program) == (
            _looked_up(RowWalkEvaluator(wb), program)
        ), str(program)


def test_vector_lookup_reads_its_columns_once(monkeypatch):
    """2,000 needles against a 300-row key table read the key and out
    columns once, not once per needle."""
    keys = Table.from_data(
        "Keys", ["code", "rate"], [[f"k{i}", i] for i in range(300)],
        types=[_T, _N],
    )
    needles = Table.from_data(
        "Needles", ["code"], [[f"K{(i * 7) % 300} "] for i in range(2000)],
        types=[_T],
    )
    wb = Workbook()
    wb.add_table(needles)
    wb.add_table(keys)
    lookup = ast.Lookup(
        ast.ColumnRef("code"), ast.GetTable("Keys"), ast.ColumnRef("code"),
        ast.ColumnRef("rate"),
    )
    reads = []
    column_values = Table.column_values

    def counting(self, name, rows=None):
        reads.append((self.name, name))
        return column_values(self, name, rows)

    monkeypatch.setattr(Table, "column_values", counting)
    values = Evaluator(wb).eval_vector(lookup, "Needles")
    assert [v.payload for v in values] == [(i * 7) % 300 for i in range(2000)]
    assert sorted(reads) == [
        ("Keys", "code"), ("Keys", "rate"), ("Needles", "code")
    ]
