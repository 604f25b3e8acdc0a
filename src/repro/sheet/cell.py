"""A spreadsheet cell: a typed value plus formatting state.

Cells are the unit of mutation: DSL programs overwrite values (placing a
computed scalar/vector at the cursor) and change formats (``Format(fe, Q)``).

This module also owns the process-wide **sheet revision counters** that
make workbook-derived state memoisable.  There are two, and every
mutation bumps exactly one of them:

* the **table revision** counts changes to table content — table-cell
  values and the structure of :class:`~repro.sheet.table.Table` objects
  (name, origin, columns, rows) and of a workbook's table set;
* the **other revision** counts every other visible change — cell
  formats, scratch cells outside any table, the cursor, the selection.

The **full revision** (:func:`current_revision`) is their sum, so it moves
on every mutation.  ``Workbook.fingerprint()`` hashes everything visible
and memoises on the full revision; ``Workbook.columnar_index()`` reads
only table text and memoises on the table revision, so a step that
places a value in a scratch cell and moves the cursor keeps its index.

A plain :class:`Cell` cannot know whether it sits in a table, so any
attribute write on it bumps the table revision: a direct
``table.cell(i, j).value = ...`` that bypasses the workbook API is never
served a stale index.  Only :class:`ScratchCell`, which the workbook
creates for its scratch map, bumps the other revision instead, and so
does :meth:`Cell.apply_formats` on any cell, because no table-revision
memo reads formats.  Constructing a cell or table bumps nothing: a fresh
object belongs to no workbook yet, and attaching it to one
(``append_row``, ``add_table``, ``restore``) bumps the table revision.
The counters are deliberately global and coarse: a bump anywhere
invalidates every workbook's memo of that kind, which only ever costs a
recompute, never staleness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from .formatting import CellFormat, FormatFn
from .values import CellValue

_revision_lock = threading.Lock()
_table_revision = 0
_other_revision = 0


def bump_table_revision() -> None:
    """Record that table content changed (moves the full revision too)."""
    global _table_revision
    with _revision_lock:
        _table_revision += 1


def bump_revision() -> None:
    """Record that visible state other than table content changed."""
    global _other_revision
    with _revision_lock:
        _other_revision += 1


def current_revision() -> int:
    """The full revision: compare to detect any intervening change."""
    with _revision_lock:
        return _table_revision + _other_revision


def table_revision() -> int:
    """The table revision: compare to detect a table-content change."""
    with _revision_lock:
        return _table_revision


@dataclass(init=False)
class Cell:
    """One mutable spreadsheet cell."""

    value: CellValue
    format: CellFormat

    def __init__(
        self,
        value: CellValue | None = None,
        format: CellFormat | None = None,
    ) -> None:
        object.__setattr__(
            self, "value", CellValue.empty() if value is None else value
        )
        object.__setattr__(
            self, "format", CellFormat() if format is None else format
        )

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        bump_table_revision()

    def apply_formats(self, fns: Iterable[FormatFn]) -> None:
        """Apply each formatting function in order.  A format is not table
        content, so this moves the full revision but not the table one."""
        fmt = self.format
        for fn in fns:
            fmt = fmt.apply(fn)
        object.__setattr__(self, "format", fmt)
        bump_revision()

    def matches_format(self, fns: Iterable[FormatFn]) -> bool:
        return self.format.matches(fns)

    def copy(self) -> "Cell":
        return type(self)(value=self.value, format=self.format)

    def display(self) -> str:
        return self.value.display()


class ScratchCell(Cell):
    """A cell outside every table (the workbook's scratch map): none of
    its writes changes table content."""

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        bump_revision()
