"""The workbook: tables + cursor + active selection + scratch cells.

This is the spreadsheet state a DSL program reads and updates (paper §2):

* computed scalars/vectors are *placed at the active cursor*,
* ``MakeActive(Q)`` changes the active selection (the anonymous view that
  ``GetActive()`` reads back),
* ``Format(fe, Q)`` mutates cell formats (named views read back by
  ``GetFormat``),
* cells outside any table ("scratch" cells like the ``I2`` result in Fig. 1)
  hold earlier results and can be referenced by A1 address in later steps —
  the temporal context that makes programming-in-steps work.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, TypeVar

from ..errors import SheetError, UnknownTableError
from .address import CellAddress
from .cell import (
    Cell,
    ScratchCell,
    bump_revision,
    bump_table_revision,
    current_revision,
    table_revision,
)
from .columnar import ColumnarIndex
from .table import Table
from .values import CellValue
from .vectors import Magnitudes, TextIds

Vector = TypeVar("Vector", Magnitudes, TextIds)


class Workbook:
    """A collection of tables plus interactive state."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._scratch: dict[CellAddress, Cell] = {}
        self._cursor: CellAddress | None = None
        self._selection: tuple[CellAddress, ...] = ()
        self._fp_digest: str | None = None
        self._fp_revision: int = -1
        self._columnar: ColumnarIndex | None = None
        self._columnar_revision: int = -1
        self._vectors: dict[tuple, Magnitudes | TextIds] = {}
        self._vectors_revision: int = -1

    def __getstate__(self) -> dict:
        """Pickle without the revision-keyed memos.  Revision counters
        are per process, so a memo's revision means nothing where the
        payload is unpickled and could match an unrelated counter value
        there; the receiving process rebuilds on first use."""
        state = self.__dict__.copy()
        state.update(
            _fp_digest=None, _fp_revision=-1,
            _columnar=None, _columnar_revision=-1,
            _vectors={}, _vectors_revision=-1,
        )
        return state

    def clone(self) -> "Workbook":
        """A deep copy of the whole interactive state (tables, scratch
        cells, cursor, selection) — the undo snapshot.  Copying mutates
        nothing, so it leaves every memo of this workbook valid."""
        twin = Workbook()
        twin._tables = {
            key: table.clone() for key, table in self._tables.items()
        }
        twin._scratch = {
            address: cell.copy() for address, cell in self._scratch.items()
        }
        twin._cursor = self._cursor
        twin._selection = self._selection
        return twin

    def restore(self, snapshot: "Workbook") -> None:
        """Overwrite this workbook's state from a snapshot produced by
        :meth:`clone` (tables by name, scratch cells, cursor, selection).
        Used by the session's undo."""
        for key, table in self._tables.items():
            if not snapshot.has_table(key):
                raise SheetError(f"snapshot lacks table {table.name!r}")
            source = snapshot.table(key)
            table._columns = list(source._columns)
            table._index = dict(source._index)
            table._rows = [
                [cell.copy() for cell in row] for row in source._rows
            ]
            table.origin = source.origin
        self._scratch = {
            address: cell.copy()
            for address, cell in snapshot._scratch.items()
        }
        self._cursor = snapshot._cursor
        self._selection = snapshot._selection
        bump_table_revision()

    def fingerprint(self) -> str:
        """A stable content hash of the whole interactive state.

        Two workbooks with identical tables (names, origins, column
        schemas, cell values and formats), scratch cells, cursor, and
        selection share a fingerprint; any visible difference changes it.
        Serving layers key shared translator caches, warm-worker routing,
        per-workbook circuit breakers, and memoised translation results
        (:mod:`repro.cache`) on this value.

        The hash is memoised against the full sheet revision
        (:func:`repro.sheet.cell.current_revision`): any mutation anywhere
        — a cell value or format write, a scratch write, a table re-anchor,
        a cursor move — forces a recompute, so serving layers can call
        this per request for free.
        """
        revision = current_revision()
        if self._fp_digest is not None and self._fp_revision == revision:
            return self._fp_digest
        digest = hashlib.sha256()

        def put(*parts: object) -> None:
            for part in parts:
                digest.update(str(part).encode("utf-8", "replace"))
                digest.update(b"\x1f")

        def put_cell(cell: Cell) -> None:
            put(cell.value.type.value, repr(cell.value.payload))
            fmt = cell.format
            if not fmt.is_default:
                put(
                    fmt.bold, fmt.italics, fmt.underline,
                    fmt.color.value, fmt.font_size,
                )

        for key in sorted(self._tables):
            table = self._tables[key]
            put("table", table.name, table.origin.col, table.origin.row)
            for column in table.columns:
                put("col", column.name, column.dtype.value)
            for i in range(table.n_rows):
                for j in range(table.n_cols):
                    put_cell(table.cell(i, j))
        for address in sorted(self._scratch):
            put("scratch", address.col, address.row)
            put_cell(self._scratch[address])
        if self._cursor is not None:
            put("cursor", self._cursor.col, self._cursor.row)
        for address in self._selection:
            put("select", address.col, address.row)
        # Revision captured *before* hashing: a concurrent mutation during
        # the walk leaves the memo conservatively stale (next call
        # recomputes), never wrongly fresh.
        self._fp_digest = digest.hexdigest()
        self._fp_revision = revision
        return self._fp_digest

    # -- tables --------------------------------------------------------------

    def add_table(self, table: Table, origin: CellAddress | None = None) -> Table:
        """Register a table, optionally re-anchoring it at ``origin``.

        Without an explicit origin the first table sits at A1 and later
        tables are stacked two rows below the previous one.
        """
        key = table.name.strip().lower()
        if key in self._tables:
            raise SheetError(f"duplicate table name {table.name!r}")
        if origin is not None:
            table.origin = origin
        elif self._tables:
            last = max(
                self._tables.values(),
                key=lambda t: t.origin.row + t.n_rows,
            )
            table.origin = CellAddress(0, last.origin.row + last.n_rows + 3)
        self._tables[key] = table
        bump_table_revision()
        return table

    def table(self, name: str) -> Table:
        key = name.strip().lower()
        if key not in self._tables:
            raise UnknownTableError(name)
        return self._tables[key]

    def has_table(self, name: str) -> bool:
        return name.strip().lower() in self._tables

    @property
    def tables(self) -> list[Table]:
        return list(self._tables.values())

    @property
    def default_table(self) -> Table:
        """The primary table — the first one added.

        The paper drops the table argument "whenever there is a single table
        or the context makes it clear"; implicit references resolve here.
        """
        if not self._tables:
            raise SheetError("workbook has no tables")
        return next(iter(self._tables.values()))

    # -- cursor ---------------------------------------------------------------

    @property
    def cursor(self) -> CellAddress:
        if self._cursor is None:
            raise SheetError("no active cursor set")
        return self._cursor

    def set_cursor(self, address: CellAddress | str) -> None:
        if isinstance(address, str):
            address = CellAddress.parse(address)
        self._cursor = address
        bump_revision()

    @property
    def has_cursor(self) -> bool:
        return self._cursor is not None

    # -- cell access ------------------------------------------------------------

    def find_table_cell(self, address: CellAddress) -> tuple[Table, int, int] | None:
        """The (table, row, col) owning a data cell at ``address``, if any."""
        for table in self._tables.values():
            loc = table.locate(address)
            if loc is not None:
                return (table, loc[0], loc[1])
        return None

    def get_cell(self, address: CellAddress | str) -> Cell | None:
        """The cell at an address: a table data cell, a scratch cell, or
        ``None`` when the address is blank."""
        if isinstance(address, str):
            address = CellAddress.parse(address)
        hit = self.find_table_cell(address)
        if hit is not None:
            table, row, col = hit
            return table.cell(row, col)
        return self._scratch.get(address)

    def get_value(self, address: CellAddress | str) -> CellValue:
        cell = self.get_cell(address)
        return cell.value if cell is not None else CellValue.empty()

    def set_value(self, address: CellAddress | str, value: CellValue) -> None:
        if isinstance(address, str):
            address = CellAddress.parse(address)
        hit = self.find_table_cell(address)
        if hit is not None:
            table, row, col = hit
            table.cell(row, col).value = value
            return
        self._scratch.setdefault(address, ScratchCell()).value = value

    @property
    def scratch_addresses(self) -> list[CellAddress]:
        return sorted(self._scratch)

    # -- placement of program results ------------------------------------------

    def place_scalar(self, value: CellValue) -> CellAddress:
        """Write a computed scalar at the cursor; returns where it landed."""
        at = self.cursor
        self.set_value(at, value)
        return at

    def place_vector(self, values: Sequence[CellValue]) -> list[CellAddress]:
        """Write a computed vector downward starting at the cursor."""
        start = self.cursor
        addresses = []
        for i, v in enumerate(values):
            at = CellAddress(start.col, start.row + i)
            self.set_value(at, v)
            addresses.append(at)
        return addresses

    # -- selection (the spatial/temporal context) -------------------------------

    @property
    def selection(self) -> tuple[CellAddress, ...]:
        return self._selection

    def select(self, addresses: Iterable[CellAddress]) -> None:
        self._selection = tuple(sorted(set(addresses)))
        bump_revision()

    def clear_selection(self) -> None:
        self._selection = ()
        bump_revision()

    def selected_row_indices(self, table: Table) -> list[int]:
        """Rows of ``table`` containing at least one actively-selected cell —
        the ``GetActive()`` row source."""
        rows = set()
        for address in self._selection:
            loc = table.locate(address)
            if loc is not None:
                rows.add(loc[0])
        return sorted(rows)

    def select_rows(self, table: Table, rows: Iterable[int]) -> None:
        """Select every cell of the given table rows."""
        addresses = []
        for i in rows:
            for j in range(table.n_cols):
                addresses.append(table.address_of(i, j))
        self.select(addresses)

    def select_cells(self, table: Table, cells: Iterable[tuple[int, int]]) -> None:
        self.select(table.address_of(i, j) for i, j in cells)

    # -- vocabulary for the translator -------------------------------------------

    def all_columns(self) -> list[tuple[Table, str]]:
        return [
            (table, name)
            for table in self._tables.values()
            for name in table.column_names
        ]

    def find_columns(self, name: str) -> list[tuple[Table, str]]:
        """Tables defining a column with this (case-insensitive) name,
        default table first so implicit references prefer it."""
        hits = []
        for table in self._tables.values():
            if table.has_column(name):
                hits.append((table, table.column(name).name))
        return hits

    def columnar_index(self) -> ColumnarIndex:
        """The interned columnar view of this workbook's text content
        (:mod:`repro.sheet.columnar`), memoised against the table revision
        (:func:`repro.sheet.cell.table_revision`), so translators and type
        checkers can fetch it per construction for free.

        The index reads table text only, so it is rebuilt after a
        table-cell value write (through the workbook or directly on a
        cell), ``add_table``, ``restore`` and any table re-anchor or
        row/column change, but survives scratch-cell writes, cursor and
        selection moves, format writes and ``clone()`` — the writes a
        session step makes.  Unlike :meth:`fingerprint`, it may outlive
        changes to the visible state."""
        # Revision captured *before* building: a concurrent mutation during
        # the build leaves the memo conservatively stale, never wrongly
        # fresh (same discipline as ``fingerprint``).
        revision = table_revision()
        if self._columnar is not None and self._columnar_revision == revision:
            return self._columnar
        index = ColumnarIndex(self)
        self._columnar = index
        self._columnar_revision = revision
        return index

    def column_vector(
        self, table: Table, j: int, layout: type[Vector]
    ) -> Vector:
        """Column ``j`` of ``table`` (one of this workbook's) in ``layout``
        (:mod:`repro.sheet.vectors`), built on first use and kept until
        the table revision moves, like :meth:`columnar_index`; only the
        column asked for is read."""
        revision = table_revision()
        if self._vectors_revision != revision:
            self._vectors = {}
            self._vectors_revision = revision
        key = (table.name.strip().lower(), j, layout)
        vector = self._vectors.get(key)
        if vector is None:
            vector = self._vectors[key] = layout(table.cell_rows, j)
        return vector
