"""Translate DSL programs into Excel formulas (paper §4).

"We transform each result expression into both Excel formulas and structured
unambiguous English.  Translation into Excel formulas is enabled by
syntax-directed rewriting strategies ... done to avoid forcing users to learn
our DSL."

The emitter is syntax-directed: simple conjunctive filters become the
``SUMIFS`` / ``AVERAGEIFS`` / ``COUNTIFS`` family; disjunctions, negations,
and column-to-column comparisons fall back to ``SUMPRODUCT`` array forms
(exactly the ``IF(b1+b2, 1, 0)`` workaround the paper's footnote mentions);
lookups become ``INDEX``/``MATCH``.  Selection and formatting programs have
no formula equivalent, so they render as bracketed action descriptions.
"""

from __future__ import annotations

from ..errors import EvaluationError
from ..sheet.table import Table
from ..sheet.values import CellValue, ValueType
from ..sheet.workbook import Workbook
from . import ast

_REDUCE_PLAIN = {
    ast.ReduceOp.SUM: "SUM",
    ast.ReduceOp.AVG: "AVERAGE",
    ast.ReduceOp.MIN: "MIN",
    ast.ReduceOp.MAX: "MAX",
}
_REDUCE_IFS = {
    ast.ReduceOp.SUM: "SUMIFS",
    ast.ReduceOp.AVG: "AVERAGEIFS",
    ast.ReduceOp.MIN: "MINIFS",
    ast.ReduceOp.MAX: "MAXIFS",
}


class ExcelEmitter:
    """Emits an Excel formula string for a complete DSL program."""

    def __init__(self, workbook: Workbook) -> None:
        self.workbook = workbook

    # -- public API --------------------------------------------------------

    def emit(self, program: ast.Expr) -> str:
        """The Excel rendering shown beside each candidate in the UI."""
        if isinstance(program, ast.MakeActive):
            return f"[select {self._describe_query(program.query)}]"
        if isinstance(program, ast.FormatCells):
            fmt = ", ".join(fn.describe() for fn in program.spec.fns)
            return f"[apply {fmt} to {self._describe_query(program.query)}]"
        body = self._value(program)
        return f"={body}"

    # -- value expressions ---------------------------------------------------

    def _value(self, e: ast.Expr) -> str:
        if isinstance(e, ast.Lit):
            return _literal(e.value)
        if isinstance(e, ast.CellRef):
            return e.a1.upper()
        if isinstance(e, ast.ColumnRef):
            table = self._table_of(e)
            return _column_range(table, e.name)
        if isinstance(e, ast.BinOp):
            return f"({self._value(e.left)}{e.op.symbol}{self._value(e.right)})"
        if isinstance(e, ast.Reduce):
            return self._reduce(e)
        if isinstance(e, ast.Count):
            return self._count(e)
        if isinstance(e, ast.Lookup):
            return self._lookup(e)
        raise EvaluationError(f"cannot emit Excel for {e}")

    def _reduce(self, e: ast.Reduce) -> str:
        table = self._source_table(e.source)
        data = _column_range(table, _name(e.column))
        if isinstance(e.condition, ast.TrueF):
            return f"{_REDUCE_PLAIN[e.op]}({data})"
        criteria = _conjunctive_criteria(e.condition)
        if criteria is not None:
            pairs = ", ".join(
                f"{_column_range(table, col)}, {self._criterion(op, rhs)}"
                for col, op, rhs in criteria
            )
            return f"{_REDUCE_IFS[e.op]}({data}, {pairs})"
        cond = self._array_condition(e.condition, table)
        if e.op is ast.ReduceOp.SUM:
            return f"SUMPRODUCT({cond}*{data})"
        inner = f"IF({cond}, {data})"
        return f"{_REDUCE_PLAIN[e.op]}({inner})"

    def _count(self, e: ast.Count) -> str:
        table = self._source_table(e.source)
        if isinstance(e.condition, ast.TrueF):
            first = _column_range(table, table.column_names[0])
            return f"COUNTA({first})"
        criteria = _conjunctive_criteria(e.condition)
        if criteria is not None:
            pairs = ", ".join(
                f"{_column_range(table, col)}, {self._criterion(op, rhs)}"
                for col, op, rhs in criteria
            )
            return f"COUNTIFS({pairs})"
        cond = self._array_condition(e.condition, table)
        return f"SUMPRODUCT(1*{cond})"

    def _lookup(self, e: ast.Lookup) -> str:
        table = self._source_table(e.source)
        out = _column_range(table, _name(e.out))
        key = _column_range(table, _name(e.key))
        if _is_text(e.needle):
            # MATCH(..., 0) reads wildcards in a text needle.
            needle = _string(_literal_pattern(e.needle.value.payload))
        else:
            needle = self._value(e.needle)
        return f"INDEX({out}, MATCH({needle}, {key}, 0))"

    # -- filters ----------------------------------------------------------------

    def _criterion(self, op: ast.RelOp, rhs: ast.Expr) -> str:
        """A SUMIFS-style criterion: ``"barista"``, ``"<20"``, or a computed
        one like ``">"&AVERAGE(...)``.  A text value must match itself
        only: its wildcards are escaped, and one that starts like an
        operator (``<``, ``>``, ``=``) is written after an explicit ``=``."""
        if op is ast.RelOp.EQ and _is_text(rhs):
            text = _literal_pattern(rhs.value.payload)
            if text[:1] in ("<", ">", "="):
                text = "=" + text
            return _string(text)
        rendered = self._value(rhs)
        if op is ast.RelOp.EQ:
            return rendered
        if isinstance(rhs, ast.Lit):
            value = rhs.value
            if value.type is ValueType.TEXT or value.type is ValueType.DATE:
                rendered = str(value.payload)
            return _string(f"{op.symbol}{rendered}")
        if isinstance(rhs, ast.CellRef):
            return f'"{op.symbol}"&{rendered}'
        return f'"{op.symbol}"&({rendered})'

    def _array_condition(self, f: ast.Expr, table: Table) -> str:
        """Render a filter as a 0/1 array expression for SUMPRODUCT."""
        if isinstance(f, ast.TrueF):
            return "1"
        if isinstance(f, ast.And):
            return (
                f"({self._array_condition(f.left, table)}"
                f"*{self._array_condition(f.right, table)})"
            )
        if isinstance(f, ast.Or):
            left = self._array_condition(f.left, table)
            right = self._array_condition(f.right, table)
            return f"(({left}+{right})>0)"
        if isinstance(f, ast.Not):
            return f"(1-{self._array_condition(f.operand, table)})"
        if isinstance(f, ast.Compare):
            left = self._comparand(f.left, table)
            right = self._comparand(f.right, table)
            return f"({left}{f.op.symbol}{right})"
        raise EvaluationError(f"cannot emit condition for {f}")

    def _comparand(self, e: ast.Expr, table: Table) -> str:
        if isinstance(e, ast.ColumnRef) and e.table is None:
            return _column_range(table, e.name)
        return self._value(e)

    # -- queries (described, not emitted) ------------------------------------------

    def _describe_query(self, q: ast.Expr) -> str:
        if isinstance(q, ast.SelectRows):
            table = self._source_table(q.source)
            if isinstance(q.condition, ast.TrueF):
                return f"all rows of {table.name}"
            return f"rows of {table.name} where {self._condition_text(q.condition, table)}"
        if isinstance(q, ast.SelectCells):
            table = self._source_table(q.source)
            cols = ", ".join(_name(c) for c in q.columns)
            if isinstance(q.condition, ast.TrueF):
                return f"{cols} of {table.name}"
            return (
                f"{cols} of {table.name} where "
                f"{self._condition_text(q.condition, table)}"
            )
        raise EvaluationError(f"not a query: {q}")

    def _condition_text(self, f: ast.Expr, table: Table) -> str:
        if isinstance(f, ast.And):
            return (
                f"{self._condition_text(f.left, table)} and "
                f"{self._condition_text(f.right, table)}"
            )
        if isinstance(f, ast.Or):
            return (
                f"{self._condition_text(f.left, table)} or "
                f"{self._condition_text(f.right, table)}"
            )
        if isinstance(f, ast.Not):
            return f"not ({self._condition_text(f.operand, table)})"
        if isinstance(f, ast.Compare):
            return (
                f"{self._comparand(f.left, table)}"
                f"{f.op.symbol}{self._comparand(f.right, table)}"
            )
        return str(f)

    # -- table resolution -----------------------------------------------------------

    def _source_table(self, rs: ast.Expr) -> Table:
        if isinstance(rs, (ast.GetTable, ast.GetFormat)) and rs.table:
            return self.workbook.table(rs.table)
        return self.workbook.default_table

    def _table_of(self, c: ast.ColumnRef) -> Table:
        if c.table:
            return self.workbook.table(c.table)
        return self.workbook.default_table


def _conjunctive_criteria(
    f: ast.Expr,
) -> list[tuple[str, ast.RelOp, ast.Expr]] | None:
    """Decompose a filter into SUMIFS-compatible (column, op, rhs) criteria.

    Only conjunctions of comparisons with exactly one local-table column on
    one side qualify; returns ``None`` otherwise (the caller falls back to a
    SUMPRODUCT array form).
    """
    if isinstance(f, ast.And):
        left = _conjunctive_criteria(f.left)
        right = _conjunctive_criteria(f.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(f, ast.Compare):
        flipped = {ast.RelOp.LT: ast.RelOp.GT, ast.RelOp.GT: ast.RelOp.LT}
        left_col = isinstance(f.left, ast.ColumnRef) and f.left.table is None
        right_col = isinstance(f.right, ast.ColumnRef) and f.right.table is None
        if left_col and not right_col:
            return [(f.left.name, f.op, f.right)]
        if right_col and not left_col:
            op = flipped.get(f.op, f.op)
            return [(f.right.name, op, f.left)]
        return None
    return None


def _name(e: ast.Expr) -> str:
    if isinstance(e, ast.ColumnRef):
        return e.name
    raise EvaluationError(f"expected a column, got {e}")


def _column_range(table: Table, column: str) -> str:
    j = table.column_index(column)
    if table.n_rows == 0:
        # An empty table still has a well-defined first data cell.
        from ..sheet.address import CellAddress

        return CellAddress(table.origin.col + j, table.origin.row + 1).to_a1()
    first = table.address_of(0, j).to_a1()
    last = table.address_of(table.n_rows - 1, j).to_a1()
    return f"{first}:{last}"


def _is_text(e: ast.Expr) -> bool:
    return isinstance(e, ast.Lit) and e.value.type is ValueType.TEXT


def _string(text: str) -> str:
    """An Excel string literal: quoted, with every quote doubled."""
    return '"' + text.replace('"', '""') + '"'


def _literal_pattern(text: str) -> str:
    """A criterion or ``MATCH`` pattern that matches ``text`` itself:
    ``~``, ``*`` and ``?`` escaped with ``~``."""
    return text.replace("~", "~~").replace("*", "~*").replace("?", "~?")


def _literal(v: CellValue) -> str:
    if v.type is ValueType.TEXT or v.type is ValueType.DATE:
        return _string(str(v.payload))
    if v.type is ValueType.BOOL:
        return "TRUE" if v.payload else "FALSE"
    if v.type is ValueType.CURRENCY:
        x = float(v.payload)
        return str(int(x)) if x == int(x) else str(x)
    x = v.payload
    if isinstance(x, float) and x == int(x):
        return str(int(x))
    return str(x)
