"""The DSL interpreter.

Executes complete (hole-free) programs against a :class:`Workbook`,
producing values and the spreadsheet side effects of paper §2/§4:

* scalar / vector programs place their result at the active cursor,
* ``MakeActive`` replaces the active selection (anonymous views),
* ``Format`` mutates cell formatting (named views).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import EvaluationError
from ..sheet.address import CellAddress
from ..sheet.cell import Cell
from ..sheet.table import Table
from ..sheet.values import CellValue, ValueType
from ..sheet.vectors import CELL, HELD, Magnitudes, TextIds
from ..sheet.workbook import Workbook
from . import ast
from .holes import is_complete
from .types import TypeChecker, _unit_result


@dataclass
class ProgramResult:
    """What executing one program did.

    ``kind`` is one of ``"scalar"``, ``"vector"``, ``"selection"``,
    ``"format"``.  ``addresses`` lists every cell written, selected, or
    reformatted, so callers (and tests) can observe the side effects.
    """

    kind: str
    value: CellValue | None = None
    values: list[CellValue] = field(default_factory=list)
    table: str | None = None
    rows: list[int] = field(default_factory=list)
    addresses: list[CellAddress] = field(default_factory=list)

    def display(self) -> str:
        if self.kind == "scalar":
            return self.value.display()
        if self.kind == "vector":
            return "[" + ", ".join(v.display() for v in self.values) + "]"
        if self.kind == "selection":
            return f"selected {len(self.addresses)} cells"
        return f"formatted {len(self.addresses)} cells"


class Evaluator:
    """Interprets DSL programs over a workbook."""

    def __init__(self, workbook: Workbook) -> None:
        self.workbook = workbook
        self.checker = TypeChecker(workbook)

    # -- entry point -------------------------------------------------------

    def run(self, program: ast.Expr, place: bool = True) -> ProgramResult:
        """Execute a complete program.  When ``place`` is true and a cursor
        is set, scalar/vector results are written into the sheet."""
        self.checker.refresh()
        if not is_complete(program):
            raise EvaluationError(f"program has unfilled holes: {program}")
        if not self.checker.valid(program):
            raise EvaluationError(f"program is ill-typed: {program}")
        if isinstance(program, ast.MakeActive):
            return self._run_make_active(program)
        if isinstance(program, ast.FormatCells):
            return self._run_format(program)
        return self._run_value(program, place)

    # -- value programs ----------------------------------------------------

    def _run_value(self, program: ast.Expr, place: bool) -> ProgramResult:
        scope = self._default_key()
        kind = self.checker.type_of(program).kind
        if kind.value in ("column", "vector"):
            values = self.eval_vector(program, scope)
            result = ProgramResult(kind="vector", values=values)
            if place and self.workbook.has_cursor:
                result.addresses = self.workbook.place_vector(values)
            return result
        value = self.eval_scalar(program, scope)
        result = ProgramResult(kind="scalar", value=value)
        if place and self.workbook.has_cursor:
            result.addresses = [self.workbook.place_scalar(value)]
        return result

    def _run_make_active(self, program: ast.MakeActive) -> ProgramResult:
        table, rows, cols = self.eval_query(program.query)
        cells = [(i, j) for i in rows for j in cols]
        self.workbook.select_cells(table, cells)
        addresses = [table.address_of(i, j) for i, j in cells]
        return ProgramResult(
            kind="selection", table=table.name, rows=rows, addresses=addresses
        )

    def _run_format(self, program: ast.FormatCells) -> ProgramResult:
        table, rows, cols = self.eval_query(program.query)
        addresses = []
        for i in rows:
            for j in cols:
                table.cell(i, j).apply_formats(program.spec.fns)
                addresses.append(table.address_of(i, j))
        return ProgramResult(
            kind="format", table=table.name, rows=rows, addresses=addresses
        )

    # -- queries -----------------------------------------------------------

    def eval_query(self, q: ast.Expr) -> tuple[Table, list[int], list[int]]:
        """Evaluate a query to (table, row indices, column indices)."""
        if isinstance(q, ast.SelectRows):
            table, rows = self.eval_row_source(q.source)
            rows = self._filter_rows(q.condition, table, rows)
            return table, rows, list(range(table.n_cols))
        if isinstance(q, ast.SelectCells):
            table, rows = self.eval_row_source(q.source)
            rows = self._filter_rows(q.condition, table, rows)
            cols = [table.column_index(_column_name(c)) for c in q.columns]
            return table, rows, cols
        raise EvaluationError(f"not a query: {q}")

    def eval_row_source(self, rs: ast.Expr) -> tuple[Table, list[int]]:
        if isinstance(rs, ast.GetTable):
            table = self._table(rs.table)
            return table, list(range(table.n_rows))
        if isinstance(rs, ast.GetActive):
            # The selection may live in any table; prefer the table that
            # actually contains selected cells, falling back to the default.
            for table in self.workbook.tables:
                rows = self.workbook.selected_row_indices(table)
                if rows:
                    return table, rows
            return self.workbook.default_table, []
        if isinstance(rs, ast.GetFormat):
            table = self._table(rs.table)
            return table, table.rows_matching_format(rs.spec.fns)
        raise EvaluationError(f"not a row source: {rs}")

    def _filter_rows(
        self, condition: ast.Expr, table: Table, rows: list[int]
    ) -> list[int]:
        """The rows among ``rows`` that satisfy ``condition``.  The filter
        is compiled once per call into a test on a row index
        (:meth:`_compile_filter`), so the AST is walked once, not per
        row."""
        if isinstance(condition, ast.TrueF):
            return list(rows)
        test = self._compile_filter(condition, table)
        return [i for i in rows if test(i)]

    # -- filters -------------------------------------------------------------

    def _compile_filter(self, f: ast.Expr, table: Table) -> RowTest:
        """A test on a row index that decides ``f`` on that row.

        It keeps the semantics of deciding ``f`` row by row with
        ``And``/``Or`` short-circuiting, including where errors are
        raised: nothing that can fail runs before the first row reaches
        it, so a zero-row input or an untaken branch raises nothing."""
        if isinstance(f, ast.TrueF):
            return _always
        if isinstance(f, ast.And):
            left = self._compile_filter(f.left, table)
            right = self._compile_filter(f.right, table)
            return lambda i: left(i) and right(i)
        if isinstance(f, ast.Or):
            left = self._compile_filter(f.left, table)
            right = self._compile_filter(f.right, table)
            return lambda i: left(i) or right(i)
        if isinstance(f, ast.Not):
            inner = self._compile_filter(f.operand, table)
            return lambda i: not inner(i)
        if isinstance(f, ast.Compare):
            return self._compile_compare(f, table)

        def not_a_filter(i):
            raise EvaluationError(f"not a filter: {f}")

        return not_a_filter

    def _compile_compare(self, f: ast.Compare, table: Table) -> RowTest:
        """A comparison operand is a column (the row's value) or a scalar
        evaluated in the *default* scope (nested reductions like "larger
        than the average" land here).  Known columns and literals resolve
        now; a scalar that must be evaluated, or an unknown column, is
        resolved once, left to right, when the first row reaches the
        comparison — where evaluating the operands per row would first
        raise its error."""
        sides = (f.left, f.right)
        operands = [_static_operand(e, table) for e in sides]
        if all(o is not None for o in operands):
            return self._compare_test(f.op, table, *operands)
        compiled: RowTest | None = None

        def test(i) -> bool:
            nonlocal compiled
            if compiled is None:
                resolved = [
                    self._resolve_operand(e, table) if o is None else o
                    for e, o in zip(sides, operands)
                ]
                compiled = self._compare_test(f.op, table, *resolved)
            return compiled(i)

        return test

    def _compare_test(
        self, op: ast.RelOp, table: Table,
        left: int | CellValue, right: int | CellValue,
    ) -> RowTest:
        """The row test of ``op(left, right)``, each operand a column
        position or a constant value.  ``Eq`` of a TEXT column with text,
        and a NUMBER or CURRENCY column against a number or currency, read
        the column's vector (:mod:`repro.sheet.vectors`); every other
        comparison, and a row the vector does not hold, reads the row's
        cells."""
        cells = _cells_test(op, table.cell_rows, left, right)
        if isinstance(left, int) == isinstance(right, int):
            return cells
        if isinstance(left, int):
            j, c = left, right
        else:
            # op(c, column) is _FLIPPED[op](column, c) on the vector.
            j, c, op = right, left, _FLIPPED[op]
        dtype = table.columns[j].dtype
        if op is ast.RelOp.EQ and dtype is _TEXT and c.type is _TEXT:
            column = self.workbook.column_vector(table, j, TextIds)
            ids, k = column.ids, column.id_of(c.payload)
            return lambda i: ids[i] == k
        if not (dtype.is_numeric and c.is_numeric):
            return cells
        try:
            key = float(c.payload)
        except OverflowError:  # the cells raise it when a row is read
            return cells
        column = self.workbook.column_vector(table, j, Magnitudes)
        nums, holds = column.nums, _HOLDS[op]
        if not column.odd:
            return lambda i: holds(nums[i], key)
        tags = column.tags
        return lambda i: (
            cells(i) if tags[i] == CELL else holds(nums[i], key)
        )

    def _resolve_operand(self, e: ast.Expr, table: Table) -> int | CellValue:
        """A column's position, or a scalar operand's value (raising what
        evaluating it raises)."""
        if isinstance(e, ast.ColumnRef):
            return table.column_index(e.name)
        return self.eval_scalar(e, self._default_key())

    # -- scalars ----------------------------------------------------------------

    def eval_scalar(self, e: ast.Expr, scope: str) -> CellValue:
        if isinstance(e, ast.Lit):
            return e.value
        if isinstance(e, ast.CellRef):
            value = self.workbook.get_value(e.a1)
            if value.is_empty:
                raise EvaluationError(f"cell {e.a1} is empty")
            return value
        if isinstance(e, ast.Reduce):
            return self._eval_reduce(e)
        if isinstance(e, ast.Count):
            table, rows = self.eval_row_source(e.source)
            matched = self._filter_rows(e.condition, table, rows)
            return CellValue.number(len(matched))
        if isinstance(e, ast.BinOp):
            return self._eval_scalar_binop(e, scope)
        if isinstance(e, ast.Lookup):
            needle = self.eval_scalar(e.needle, scope)
            return self._lookup(e, [needle])[0]
        raise EvaluationError(f"not a scalar expression: {e}")

    def _eval_reduce(self, e: ast.Reduce) -> CellValue:
        """Fold the selected non-empty cells' ``float(payload)``, in row
        order, with the builtin ``sum``, ``min`` and ``max``."""
        table, rows = self.eval_row_source(e.source)
        rows = self._filter_rows(e.condition, table, rows)
        j = table.column_index(_column_name(e.column))
        column = self.workbook.column_vector(table, j, Magnitudes)
        nums, tags = column.nums, column.tags
        if column.odd:
            cells = table.cell_rows
            numbers = [
                nums[i] if tags[i] == HELD
                else float(cells[i][j].value.payload)
                for i in rows if tags[i]
            ]
        else:
            numbers = [nums[i] for i in rows if tags[i]]
        dtype = table.columns[j].dtype
        if e.op is ast.ReduceOp.SUM:
            return _make_numeric(sum(numbers), dtype)
        if not numbers:
            raise EvaluationError(
                f"{e.op.value} over no rows (filter matched nothing)"
            )
        if e.op is ast.ReduceOp.AVG:
            return _make_numeric(sum(numbers) / len(numbers), dtype)
        if e.op is ast.ReduceOp.MIN:
            return _make_numeric(min(numbers), dtype)
        return _make_numeric(max(numbers), dtype)

    def _eval_scalar_binop(self, e: ast.BinOp, scope: str) -> CellValue:
        left = self.eval_scalar(e.left, scope)
        right = self.eval_scalar(e.right, scope)
        elem = _unit_result(e.op, left.type, right.type)
        return _apply_binop(e.op, left, right, elem)

    def _lookup(
        self, e: ast.Lookup, needles: list[CellValue]
    ) -> list[CellValue]:
        """For each needle, the ``out`` value of the first source row whose
        non-empty ``key`` value ``equals`` it.

        The source and both columns are read once per call, and the keys
        are mapped to their first row by :func:`_lookup_slot`.  A needle
        with no slot, or a numeric needle when some numeric key has none,
        walks the rows instead, so it raises what ``equals`` raises there.
        """
        if not needles:
            return []
        table, rows = self.eval_row_source(e.source)
        key = table.column(_column_name(e.key)).name
        out = table.column(_column_name(e.out)).name
        pairs = [
            (k, v)
            for k, v in zip(
                table.column_values(key, rows), table.column_values(out, rows)
            )
            if not k.is_empty
        ]
        first_row: dict[object, CellValue] = {}
        numbers_held = True
        for k, v in pairs:
            slot = _lookup_slot(k)
            if slot is None:
                numbers_held = False
            elif slot not in first_row:
                first_row[slot] = v
        found: list[CellValue] = []
        for needle in needles:
            slot = _lookup_slot(needle)
            if slot is not None and (numbers_held or not needle.is_numeric):
                value = first_row.get(slot)
            else:
                value = next(
                    (v for k, v in pairs if k.equals(needle)), None
                )
            if value is None:
                raise EvaluationError(
                    f"lookup failed: no row with {key} = {needle.display()}"
                )
            found.append(value)
        return found

    # -- vectors --------------------------------------------------------------

    def eval_vector(self, e: ast.Expr, scope: str) -> list[CellValue]:
        if isinstance(e, ast.ColumnRef):
            table = self._table(e.table) if e.table else self._table(scope)
            return table.column_values(e.name)
        if isinstance(e, ast.Lookup):
            return self._lookup(e, self.eval_vector(e.needle, scope))
        if isinstance(e, ast.BinOp):
            return self._eval_vector_binop(e, scope)
        raise EvaluationError(f"not a vector expression: {e}")

    def _eval_vector_binop(self, e: ast.BinOp, scope: str) -> list[CellValue]:
        lt = self.checker.type_of(e.left)
        rt = self.checker.type_of(e.right)
        left_is_vec = lt.kind.value in ("column", "vector")
        right_is_vec = rt.kind.value in ("column", "vector")
        elem = _unit_result(e.op, lt.elem, rt.elem)
        if left_is_vec and right_is_vec:
            lv = self.eval_vector(e.left, scope)
            rv = self.eval_vector(e.right, scope)
            if len(lv) != len(rv):
                raise EvaluationError("vector length mismatch")
            return [_apply_binop(e.op, a, b, elem) for a, b in zip(lv, rv)]
        if left_is_vec:
            lv = self.eval_vector(e.left, scope)
            r = self.eval_scalar(e.right, scope)
            return [_apply_binop(e.op, a, r, elem) for a in lv]
        l = self.eval_scalar(e.left, scope)
        rv = self.eval_vector(e.right, scope)
        return [_apply_binop(e.op, l, b, elem) for b in rv]

    # -- misc ------------------------------------------------------------------

    def _table(self, name: str | None) -> Table:
        if name is None:
            return self.workbook.default_table
        return self.workbook.table(name)

    def _default_key(self) -> str:
        return self.workbook.default_table.name.strip().lower()


RowTest = Callable[[int], bool]

_TEXT = ValueType.TEXT
_EMPTY = ValueType.EMPTY
_FLIPPED = {
    ast.RelOp.EQ: ast.RelOp.EQ,
    ast.RelOp.LT: ast.RelOp.GT,
    ast.RelOp.GT: ast.RelOp.LT,
}
# op on two floats, as CellValue.equals / less_than decide two numbers.
_HOLDS = {
    ast.RelOp.EQ: operator.eq,
    ast.RelOp.LT: operator.lt,
    ast.RelOp.GT: operator.gt,
}


def _always(i) -> bool:
    return True


def _static_operand(e: ast.Expr, table: Table) -> int | CellValue | None:
    """A known column's position or a literal's value — the operands that
    resolve without evaluating anything, so cannot fail — else None."""
    if isinstance(e, ast.ColumnRef) and table.has_column(e.name):
        return table.column_index(e.name)
    if isinstance(e, ast.Lit):
        return e.value
    return None


def _cells_test(
    op: ast.RelOp, cells: Sequence[Sequence[Cell]],
    left: int | CellValue, right: int | CellValue,
) -> RowTest:
    """``op(left, right)`` with a column operand read from the row's cell:
    false when either value is empty, else decided by :func:`_relate`."""
    read_left, read_right = _reader(cells, left), _reader(cells, right)

    def test(i) -> bool:
        a = read_left(i)
        b = read_right(i)
        if a.type is _EMPTY or b.type is _EMPTY:
            return False
        return _relate(op, a, b)

    return test


def _reader(
    cells: Sequence[Sequence[Cell]], operand: int | CellValue,
) -> Callable[[int], CellValue]:
    """Row ``i``'s value of a column position, or a constant's value."""
    if isinstance(operand, int):
        return lambda i: cells[i][operand].value
    return lambda i: operand


def _relate(op: ast.RelOp, left: CellValue, right: CellValue) -> bool:
    """``op(left, right)`` on two non-empty values, per
    :meth:`CellValue.equals` / :meth:`CellValue.less_than` (which raises
    ``TypeError`` on unordered types)."""
    if op is ast.RelOp.EQ:
        return left.equals(right)
    if op is ast.RelOp.LT:
        return left.less_than(right)
    return right.less_than(left)


def _lookup_slot(value: CellValue) -> object:
    """A dict key under which two values meet exactly when
    ``CellValue.equals`` holds between them: numbers and currencies by
    magnitude, text by its stripped lower-cased form, any other type by
    (type, payload).  ``None`` for a numeric payload with no float (beyond
    the float range) or a NaN, which equals nothing."""
    if value.is_numeric:
        try:
            number = float(value.payload)
        except OverflowError:
            return None
        return None if number != number else number
    if value.type is ValueType.TEXT:
        return (ValueType.TEXT, value.payload.strip().lower())
    return (value.type, value.payload)


def _column_name(e: ast.Expr) -> str:
    if not isinstance(e, ast.ColumnRef):
        raise EvaluationError(f"expected a column reference, got {e}")
    return e.name


def _make_numeric(x: float, dtype: ValueType) -> CellValue:
    if x == int(x):
        x = int(x)
    if dtype is ValueType.CURRENCY:
        return CellValue.currency(x)
    return CellValue.number(x)


def _apply_binop(
    op: ast.BinaryOp, a: CellValue, b: CellValue, elem: ValueType | None
) -> CellValue:
    if a.is_empty or b.is_empty:
        raise EvaluationError("arithmetic on an empty cell")
    x, y = float(a.payload), float(b.payload)
    if op is ast.BinaryOp.ADD:
        z = x + y
    elif op is ast.BinaryOp.SUB:
        z = x - y
    elif op is ast.BinaryOp.MULT:
        z = x * y
    else:
        if y == 0:
            raise EvaluationError("division by zero")
        z = x / y
    return _make_numeric(z, elem or ValueType.NUMBER)
