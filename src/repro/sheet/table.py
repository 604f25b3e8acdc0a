"""Spreadsheet tables.

A table is a rectangular block of cells with a header row of uniquely named,
typed columns (paper §2: "we model a spreadsheet as a collection of tables,
where each table is a set of rows and has uniquely labeled and typed
columns").  Tables are anchored at a sheet origin so that data cells have
A1 addresses (the header occupies the origin row).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..errors import SheetError, UnknownColumnError
from .address import CellAddress
from .cell import Cell, bump_table_revision
from .column import Column, infer_column_type
from .formatting import FormatFn
from .values import CellValue, ValueType


class Table:
    """A named table of typed columns and mutable cells."""

    # Structural mutations (rename, re-anchor, row/column surgery) change
    # table content, so they invalidate the same memos a cell write does.
    # Construction assigns through ``object.__setattr__``: a new table is
    # in no workbook yet, and ``Workbook.add_table`` bumps on attaching it.
    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        bump_table_revision()

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        rows: Iterable[Sequence[CellValue]] = (),
        origin: CellAddress = CellAddress(0, 0),
    ) -> None:
        if not name or not name.strip():
            raise SheetError("table name must be non-empty")
        keys = [c.key for c in columns]
        if len(set(keys)) != len(keys):
            raise SheetError(f"duplicate column names in table {name!r}")
        init = object.__setattr__
        init(self, "name", name)
        init(self, "origin", origin)
        init(self, "_columns", list(columns))
        init(self, "_index", {c.key: i for i, c in enumerate(self._columns)})
        init(self, "_rows", [self._new_row(row) for row in rows])

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_data(
        name: str,
        header: Sequence[str],
        data: Sequence[Sequence[object]],
        types: Sequence[ValueType] | None = None,
        origin: CellAddress = CellAddress(0, 0),
    ) -> "Table":
        """Build a table from raw Python data, inferring column types.

        ``data`` cells may be ``CellValue`` instances or raw ``int`` /
        ``float`` / ``str`` / ``bool`` / ``None`` values; raw numbers become
        NUMBER cells unless the column is declared CURRENCY via ``types``.
        """
        converted: list[list[CellValue]] = []
        for raw_row in data:
            if len(raw_row) != len(header):
                raise SheetError(
                    f"row width {len(raw_row)} != header width {len(header)}"
                )
            converted.append([_coerce(v) for v in raw_row])
        if types is None:
            inferred = []
            for j in range(len(header)):
                inferred.append(infer_column_type(row[j] for row in converted))
            types = inferred
        else:
            if len(types) != len(header):
                raise SheetError("types width != header width")
            for i, row in enumerate(converted):
                converted[i] = [
                    _retype(v, t) for v, t in zip(row, types)
                ]
        columns = [Column(h, t) for h, t in zip(header, types)]
        return Table(name, columns, converted, origin=origin)

    def append_row(self, values: Sequence[CellValue]) -> None:
        self._rows.append(self._new_row(values))
        bump_table_revision()

    def _new_row(self, values: Sequence[CellValue]) -> list[Cell]:
        """Validated fresh cells for one row of this table."""
        if len(values) != len(self._columns):
            raise SheetError(
                f"row width {len(values)} != table width {len(self._columns)}"
            )
        for col, value in zip(self._columns, values):
            if not col.accepts(value):
                raise SheetError(
                    f"value {value.display()!r} ({value.type.value}) not valid "
                    f"for column {col.name!r} ({col.dtype.value})"
                )
        return [Cell(value=v) for v in values]

    # -- shape -------------------------------------------------------------

    @property
    def columns(self) -> list[Column]:
        return list(self._columns)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self._columns]

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self.n_rows

    # -- column access -----------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name.strip().lower() in self._index

    def column(self, name: str) -> Column:
        try:
            return self._columns[self.column_index(name)]
        except UnknownColumnError:
            raise

    def column_index(self, name: str) -> int:
        key = name.strip().lower()
        if key not in self._index:
            raise UnknownColumnError(self.name, name)
        return self._index[key]

    def column_values(self, name: str, rows: Iterable[int] | None = None) -> list[CellValue]:
        j = self.column_index(name)
        indices = range(self.n_rows) if rows is None else rows
        return [self._rows[i][j].value for i in indices]

    # -- cell access -------------------------------------------------------

    def cell(self, row: int, col: int) -> Cell:
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise SheetError(
                f"cell ({row},{col}) out of range in table {self.name!r}"
            )
        return self._rows[row][col]

    def iter_row_cells(self, row: int) -> Iterator[Cell]:
        for j in range(self.n_cols):
            yield self.cell(row, j)

    @property
    def cell_rows(self) -> Sequence[Sequence[Cell]]:
        """Every row's cells in row order, without copying — the bulk read
        path (the evaluator's compiled filters).  Read-only: mutate cells
        through their attributes, never the sequences."""
        return self._rows

    # -- addressing --------------------------------------------------------

    def address_of(self, row: int, col: int) -> CellAddress:
        """A1 address of a data cell (header occupies the origin row)."""
        return CellAddress(self.origin.col + col, self.origin.row + 1 + row)

    def locate(self, address: CellAddress) -> tuple[int, int] | None:
        """(row, col) of a data cell at ``address``, or None if outside."""
        col = address.col - self.origin.col
        row = address.row - self.origin.row - 1
        if 0 <= row < self.n_rows and 0 <= col < self.n_cols:
            return (row, col)
        return None

    def column_at_letter_index(self, sheet_col: int) -> Column | None:
        """The column occupying absolute sheet column ``sheet_col``.

        Lets descriptions like "sum column H" resolve against the table.
        """
        j = sheet_col - self.origin.col
        if 0 <= j < self.n_cols:
            return self._columns[j]
        return None

    # -- queries used by the evaluator and translator -----------------------

    def rows_matching_format(self, fns: Sequence[FormatFn]) -> list[int]:
        """Rows containing at least one cell matching all constraints —
        the ``GetFormat`` row source."""
        return [
            i
            for i in range(self.n_rows)
            if any(c.matches_format(fns) for c in self._rows[i])
        ]

    def clone(self) -> "Table":
        """A deep copy: cell values are shared (immutable), cell records
        and row lists are fresh, so mutations never leak across copies."""
        twin = Table(self.name, self._columns, origin=self.origin)
        rows = [[cell.copy() for cell in row] for row in self._rows]
        object.__setattr__(twin, "_rows", rows)
        return twin

    def render(self, max_rows: int = 20) -> str:
        """Plain-text rendering for examples and debugging."""
        widths = [len(c.name) for c in self._columns]
        shown = self._rows[:max_rows]
        for row in shown:
            for j, cell in enumerate(row):
                widths[j] = max(widths[j], len(cell.display()))
        lines = [
            " | ".join(c.name.ljust(w) for c, w in zip(self._columns, widths))
        ]
        lines.append("-+-".join("-" * w for w in widths))
        for row in shown:
            lines.append(
                " | ".join(c.display().ljust(w) for c, w in zip(row, widths))
            )
        if self.n_rows > max_rows:
            lines.append(f"... ({self.n_rows - max_rows} more rows)")
        return "\n".join(lines)


def _coerce(raw: object) -> CellValue:
    if isinstance(raw, CellValue):
        return raw
    if raw is None:
        return CellValue.empty()
    if isinstance(raw, bool):
        return CellValue.boolean(raw)
    if isinstance(raw, (int, float)):
        return CellValue.number(raw)
    if isinstance(raw, str):
        return CellValue.text(raw)
    raise SheetError(f"cannot coerce {raw!r} into a cell value")


def _retype(value: CellValue, target: ValueType) -> CellValue:
    """Re-type a coerced raw value to the declared column type (numbers may
    become currency; everything else must already agree)."""
    if value.is_empty or value.type is target:
        return value
    if target is ValueType.CURRENCY and value.type is ValueType.NUMBER:
        return CellValue.currency(value.payload)
    if target is ValueType.DATE and value.type is ValueType.TEXT:
        return CellValue.date(str(value.payload))
    raise SheetError(
        f"cannot retype {value.type.value} value to {target.value}"
    )
