"""A miniature Flash Fill: string transformations from examples.

Paper §4 ("Inter-operability with PBE"): the NLyze DSL cannot express "how
many papers have R as the first author", but the user can Flash-Fill a
first-author column from one example and then finish with natural language.
This module provides exactly enough PBE to run that scenario: it learns a
small string-transformation program from input/output example pairs and
applies it to a whole column.

Program space (searched most-specific-first, verified on all examples):

* ``TokenAt`` — split on a delimiter, take the i-th token (negative index
  counts from the end), e.g. first author of "a, b, c";
* ``Substring`` — a fixed-position slice (optionally anchored to the end);
* an optional case transform (upper / lower / title) over either;
* ``Concat`` of a constant prefix/suffix around one extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..errors import PbeError
from ..sheet import CellValue, Column, Table, ValueType

_DELIMITERS = (", ", ",", "; ", ";", " - ", "-", "/", " ")
_CASES = {
    "identity": lambda s: s,
    "upper": str.upper,
    "lower": str.lower,
    "title": str.title,
}


class Extraction(Protocol):
    def apply(self, text: str) -> str | None: ...

    def describe(self) -> str: ...


@dataclass(frozen=True)
class TokenAt:
    """Split on ``delimiter`` and take token ``index`` (may be negative)."""

    delimiter: str
    index: int
    case: str = "identity"

    def apply(self, text: str) -> str | None:
        parts = [p for p in text.split(self.delimiter) if p != ""]
        if not parts or not (-len(parts) <= self.index < len(parts)):
            return None
        return _CASES[self.case](parts[self.index].strip())

    def describe(self) -> str:
        position = (
            f"{self.index + 1}th" if self.index >= 0
            else f"{abs(self.index)}th-from-last"
        )
        suffix = "" if self.case == "identity" else f", {self.case}-cased"
        return f"take the {position} piece split by {self.delimiter!r}{suffix}"


@dataclass(frozen=True)
class Substring:
    """A fixed slice; ``from_end`` anchors the window to the string end."""

    start: int
    length: int
    from_end: bool = False
    case: str = "identity"

    def apply(self, text: str) -> str | None:
        if self.from_end:
            start = len(text) - self.start
        else:
            start = self.start
        if start < 0 or start + self.length > len(text):
            return None
        return _CASES[self.case](text[start:start + self.length])

    def describe(self) -> str:
        anchor = "from the end" if self.from_end else "from the start"
        return f"characters [{self.start}:+{self.length}] {anchor}"


@dataclass(frozen=True)
class Concat:
    """Constant prefix + one extraction + constant suffix."""

    prefix: str
    inner: Extraction
    suffix: str

    def apply(self, text: str) -> str | None:
        middle = self.inner.apply(text)
        if middle is None:
            return None
        return f"{self.prefix}{middle}{self.suffix}"

    def describe(self) -> str:
        return (
            f"{self.prefix!r} + ({self.inner.describe()}) + {self.suffix!r}"
        )


@dataclass(frozen=True)
class FlashFillProgram:
    """A learned transformation."""

    extraction: Extraction

    def apply(self, text: str) -> str:
        result = self.extraction.apply(text)
        if result is None:
            raise PbeError(f"program undefined on input {text!r}")
        return result

    def describe(self) -> str:
        return self.extraction.describe()


def _token_candidates(inp: str, out: str) -> list[Extraction]:
    out = out.strip()
    candidates: list[Extraction] = []
    for delimiter in _DELIMITERS:
        if delimiter not in inp:
            continue
        parts = [p.strip() for p in inp.split(delimiter) if p != ""]
        for case_name, case_fn in _CASES.items():
            for i, part in enumerate(parts):
                if case_fn(part) == out:
                    candidates.append(TokenAt(delimiter, i, case_name))
                    if i == len(parts) - 1:
                        candidates.append(TokenAt(delimiter, -1, case_name))
    return candidates


def _substring_candidates(inp: str, out: str) -> list[Extraction]:
    candidates: list[Extraction] = []
    for case_name, case_fn in _CASES.items():
        transformed = case_fn(inp)
        start = transformed.find(out)
        if start >= 0:
            candidates.append(Substring(start, len(out), case=case_name))
            candidates.append(
                Substring(len(inp) - start, len(out), from_end=True,
                          case=case_name)
            )
    return candidates


def _concat_candidates(inp: str, out: str) -> list[Extraction]:
    candidates: list[Extraction] = []
    # try every split of the output into prefix + extracted + suffix where
    # the middle comes from the input (bounded: prefixes/suffixes <= 8 chars)
    for p in range(0, min(len(out), 8) + 1):
        for s in range(0, min(len(out) - p, 8) + 1):
            prefix, suffix = out[:p], out[len(out) - s:] if s else ""
            middle = out[p:len(out) - s] if s else out[p:]
            if not middle:
                continue
            if not (p or s):
                continue
            for inner in _token_candidates(inp, middle) + _substring_candidates(
                inp, middle
            ):
                candidates.append(Concat(prefix, inner, suffix))
    return candidates


def learn(examples: list[tuple[str, str]]) -> FlashFillProgram:
    """Learn a program consistent with every example.

    Candidates are proposed from the first example and verified against the
    rest, token extractions first (they generalize best, like Flash Fill's
    ranking preferring token-based programs).
    """
    if not examples:
        raise PbeError("at least one example is required")
    first_in, first_out = examples[0]
    proposals: list[Extraction] = []
    proposals += _token_candidates(first_in, first_out)
    proposals += _substring_candidates(first_in, first_out)
    proposals += _concat_candidates(first_in, first_out)
    for candidate in proposals:
        if all(candidate.apply(i) == o for i, o in examples):
            return FlashFillProgram(candidate)
    raise PbeError("no consistent transformation found")


def fill_column(
    table: Table,
    source_column: str,
    new_column: str,
    examples: list[tuple[str, str]],
) -> FlashFillProgram:
    """Learn from examples and append a derived text column to ``table`` —
    the Flash Fill gesture of giving one or two examples and letting the
    system complete the column."""
    program = learn(examples)
    source = table.column_values(source_column)
    values = [
        CellValue.text(program.apply(str(v.payload))) if not v.is_empty
        else CellValue.empty()
        for v in source
    ]
    _append_column(table, Column(new_column, ValueType.TEXT), values)
    return program


def _append_column(table: Table, column: Column, values) -> None:
    """Widen a table by one column (support code for PBE interop)."""
    if table.has_column(column.name):
        raise PbeError(f"column {column.name!r} already exists")
    if len(values) != table.n_rows:
        raise PbeError("value count must match the row count")
    from ..sheet.cell import Cell

    for row, value in zip(table._rows, values):
        row.append(Cell(value=value))
    # Assign, never mutate in place: the assignments go through Table's
    # revision hook, so memos keyed on table content see the new column
    # even on a zero-row table, where no cell is written.
    table._index = {**table._index, column.key: len(table._columns)}
    table._columns = [*table._columns, column]
