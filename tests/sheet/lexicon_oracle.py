"""The row-walk value lexicon: the reference oracle for the columnar index.

Production answers *which values occur in which columns* from
:class:`repro.sheet.columnar.ColumnarIndex`: each TEXT column interned once
per table revision into a vector of string-pool ids, with per-column
distinct-id sets.  The functions here answer the same question the literal
way, by walking every cell of every TEXT column in row order on every
call.  They share no code with the index and exist only to check it
(``test_columnar.py``).
"""

from __future__ import annotations

from repro.sheet import Table, ValueType, Workbook


def distinct_text_values(table: Table) -> dict[str, list[str]]:
    """Lowercase, stripped text value -> the names of ``table``'s columns
    holding it, in header order."""
    seen: dict[str, list[str]] = {}
    for j, col in enumerate(table.columns):
        if col.dtype is not ValueType.TEXT:
            continue
        for i in range(table.n_rows):
            v = table.cell(i, j).value
            if v.is_empty:
                continue
            key = str(v.payload).strip().lower()
            cols = seen.setdefault(key, [])
            if col.name not in cols:
                cols.append(col.name)
    return seen


def all_text_values(workbook: Workbook) -> dict[str, list[tuple[str, str]]]:
    """Lowercase text value -> every (table name, column name) slot holding
    it: tables in insertion order, columns in header order."""
    merged: dict[str, list[tuple[str, str]]] = {}
    for table in workbook.tables:
        for value, columns in distinct_text_values(table).items():
            slots = merged.setdefault(value, [])
            for col in columns:
                if (table.name, col) not in slots:
                    slots.append((table.name, col))
    return merged


def value_words(workbook: Workbook) -> set[str]:
    """Every word inside some sheet value."""
    return {word for value in all_text_values(workbook) for word in value.split()}


def max_value_words(workbook: Workbook) -> int:
    """The longest value in words (1 on a sheet without text values)."""
    return max(
        (len(value.split()) for value in all_text_values(workbook)), default=1
    )
