"""Column vectors: the evaluator's bulk read of one table column.

A compiled filter leaf or a reduction reads one column on many rows.
Through the cells that costs a ``Cell``, a ``CellValue`` and a type test
per row; a vector holds the column as one flat array, built in one pass
over its cells.  :meth:`repro.sheet.workbook.Workbook.column_vector`
builds each the first time it is asked for and keeps it until the table
revision (:mod:`repro.sheet.cell`) moves, so writes outside the tables
keep it.

There are two layouts, one for each read a session step makes:

* :class:`TextIds` — ``Eq`` of a TEXT column with a text constant;
* :class:`Magnitudes` — a reduction, and a comparison of a NUMBER or
  CURRENCY column with a number or currency.

Every other comparison reads the row's cells.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from .cell import Cell
from .values import ValueType

_TEXT, _NUMBER, _CURRENCY, _EMPTY = (
    ValueType.TEXT, ValueType.NUMBER, ValueType.CURRENCY, ValueType.EMPTY
)

# Magnitudes row tags.
BLANK = 0  # an empty cell
HELD = 1  # a number or currency, held exactly in ``nums``
CELL = 2  # any other value: read it from the cell


class TextIds:
    """A column's text cells as ids into a pool of their normalised
    values (stripped and lowered, as ``CellValue.equals`` compares text).
    Every other row, blank or of another type, holds -1: no text equals
    it."""

    __slots__ = ("ids", "_pool")

    def __init__(self, rows: Sequence[Sequence[Cell]], j: int) -> None:
        pool: dict[str, int] = {}
        seen: dict[str, int] = {}  # raw payload -> id; columns repeat values
        ids = self.ids = array("q")
        append = ids.append
        for v in [row[j].value for row in rows]:
            if v.type is not _TEXT:
                append(-1)
                continue
            k = seen.get(v.payload)
            if k is None:
                k = seen[v.payload] = pool.setdefault(
                    v.payload.strip().lower(), len(pool)
                )
            append(k)
        self._pool = pool

    def id_of(self, text: str) -> int:
        """The id the rows equal to ``text`` hold; -2, which no row holds,
        when none does."""
        return self._pool.get(text.strip().lower(), -2)


class Magnitudes:
    """A column's ``float(payload)`` per row, in one ``array('d')``.

    ``tags[i]`` is BLANK for an empty cell, whose ``nums`` entry is NaN
    so that no comparison holds on it; HELD for a NUMBER or CURRENCY
    value; and CELL for any other value — one of another type, which
    ``Workbook.set_value`` does not refuse, or an int beyond the float
    range — which readers take from the cell.  ``odd`` says whether any
    row is CELL."""

    __slots__ = ("nums", "tags", "odd")

    def __init__(self, rows: Sequence[Sequence[Cell]], j: int) -> None:
        n = len(rows)
        nums = self.nums = array("d", [float("nan")]) * n
        tags = self.tags = bytearray(n)
        for i, v in enumerate([row[j].value for row in rows]):
            t = v.type
            if t is _NUMBER or t is _CURRENCY:
                try:
                    # array('d') converts an int or float payload as
                    # float() does, and raises where float() raises.
                    nums[i] = v.payload
                except OverflowError:
                    tags[i] = CELL
                else:
                    tags[i] = HELD
            elif t is not _EMPTY:
                tags[i] = CELL
        self.odd = CELL in tags
