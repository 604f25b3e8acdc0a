"""The per-row filter interpreter: the reference oracle for compiled filters.

:class:`RowWalkEvaluator` is :class:`repro.dsl.Evaluator` with filters
decided the literal way — walk the filter AST on every row, and evaluate a
scalar operand every time a row needs it.  That makes a nested reduction
inside a filter cost one evaluation per row, which is why production
compiles each filter once per query instead; this copy exists only to check
the compiled filters against (``test_compiled_filters.py``).
"""

from __future__ import annotations

from repro.dsl import Evaluator, ast
from repro.errors import EvaluationError
from repro.sheet import CellValue, Table


class RowWalkEvaluator(Evaluator):
    """An evaluator whose filters (nested ones included) walk per row."""

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
