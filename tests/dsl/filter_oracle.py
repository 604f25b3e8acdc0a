"""The cell-reading interpreter: the reference oracle for the evaluator.

:class:`RowWalkEvaluator` is :class:`repro.dsl.Evaluator` with every value
read from the table's cells, the literal way:

* a filter walks its AST on every row, and evaluates a scalar operand
  every time a row needs it, so a nested reduction inside a filter costs
  one evaluation per row;
* a reduction or count folds the selected cells' payloads;
* a ``Lookup`` re-reads its source and both columns for every needle and
  walks the key cells with ``CellValue.equals``.

Production instead compiles each filter once per query into a test on a
row index, reading text and number columns from their vectors
(``repro.sheet.vectors``), folds reductions from those vectors, and maps
a ``Lookup``'s keys to their first row once per lookup.  This copy
shares none of that code and exists only to check it
(``test_compiled_filters.py``).
"""

from __future__ import annotations

from repro.dsl import Evaluator, ast
from repro.dsl.evaluator import _column_name, _make_numeric
from repro.errors import EvaluationError
from repro.sheet import CellValue, Table, ValueType


class RowWalkEvaluator(Evaluator):
    """An evaluator whose filters (nested ones included) walk per row and
    whose reductions and counts read cells."""

    def _filter_rows(
        self, condition: ast.Expr, table: Table, rows: list[int]
    ) -> list[int]:
        return [i for i in rows if self.eval_filter(condition, table, i)]

    def eval_filter(self, f: ast.Expr, table: Table, row: int) -> bool:
        if isinstance(f, ast.TrueF):
            return True
        if isinstance(f, ast.And):
            return self.eval_filter(f.left, table, row) and self.eval_filter(
                f.right, table, row
            )
        if isinstance(f, ast.Or):
            return self.eval_filter(f.left, table, row) or self.eval_filter(
                f.right, table, row
            )
        if isinstance(f, ast.Not):
            return not self.eval_filter(f.operand, table, row)
        if isinstance(f, ast.Compare):
            left = self._operand(f.left, table, row)
            right = self._operand(f.right, table, row)
            if left.is_empty or right.is_empty:
                return False
            if f.op is ast.RelOp.EQ:
                return left.equals(right)
            if f.op is ast.RelOp.LT:
                return left.less_than(right)
            return right.less_than(left)
        raise EvaluationError(f"not a filter: {f}")

    def _operand(self, e: ast.Expr, table: Table, row: int) -> CellValue:
        """A column yields the row's cell; anything else is a scalar,
        evaluated in the default scope on every call."""
        if isinstance(e, ast.ColumnRef):
            j = table.column_index(e.name)
            return table.cell(row, j).value
        return self.eval_scalar(e, self._default_key())

    def eval_scalar(self, e: ast.Expr, scope: str) -> CellValue:
        if isinstance(e, ast.Count):
            table, rows = self.eval_row_source(e.source)
            matched = self._filter_rows(e.condition, table, rows)
            return CellValue.number(len(matched))
        if isinstance(e, ast.Lookup):
            return self._lookup_walk(e, self.eval_scalar(e.needle, scope))
        return super().eval_scalar(e, scope)

    def eval_vector(self, e: ast.Expr, scope: str) -> list[CellValue]:
        if isinstance(e, ast.Lookup):
            needles = self.eval_vector(e.needle, scope)
            return [self._lookup_walk(e, n) for n in needles]
        return super().eval_vector(e, scope)

    def _lookup_walk(self, e: ast.Lookup, needle: CellValue) -> CellValue:
        table, rows = self.eval_row_source(e.source)
        key = table.column(_column_name(e.key)).name
        out = table.column(_column_name(e.out)).name
        key_values = table.column_values(key, rows)
        out_values = table.column_values(out, rows)
        for k, v in zip(key_values, out_values):
            if not k.is_empty and k.equals(needle):
                return v
        raise EvaluationError(
            f"lookup failed: no row with {key} = {needle.display()}"
        )

    def _eval_reduce(self, e: ast.Reduce) -> CellValue:
        table, rows = self.eval_row_source(e.source)
        rows = self._filter_rows(e.condition, table, rows)
        column = table.column(_column_name(e.column))
        numbers = [
            float(v.payload)
            for v in table.column_values(column.name, rows)
            if v.type is not ValueType.EMPTY
        ]
        if e.op is ast.ReduceOp.SUM:
            return _make_numeric(sum(numbers), column.dtype)
        if not numbers:
            raise EvaluationError(
                f"{e.op.value} over no rows (filter matched nothing)"
            )
        if e.op is ast.ReduceOp.AVG:
            return _make_numeric(sum(numbers) / len(numbers), column.dtype)
        if e.op is ast.ReduceOp.MIN:
            return _make_numeric(min(numbers), column.dtype)
        return _make_numeric(max(numbers), column.dtype)
