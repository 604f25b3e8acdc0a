"""The columnar index must answer as the row walk does.

Property tests (hypothesis) build arbitrary workbooks — unicode values,
whitespace, empties, plural-trap strings, values deliberately duplicated
across columns and tables — and assert that every index lookup equals the
row-walk oracle (``lexicon_oracle.py``):

* the merged value lexicon (``ColumnarIndex.all_text_values``) and
  ``slots``, including the slot *order* per value (it feeds seed and
  ranking order),
* ``SheetContext.match_value`` / ``match_column`` over arbitrary spans,
* the type checker's value-in-column content probe (``occurs_in``),
* the derived vocabulary artefacts (value words, max span width).

A deterministic test checks the same on a 2,000-row stress sheet, and
unit tests cover the revision-memo behaviour: which writes keep the index
and which rebuild it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import build_sheet, stress_sentences, stress_workbook
from repro.pbe import fill_column
from repro.session import NLyzeSession
from repro.sheet import (
    CellValue,
    Column,
    FormatFn,
    Table,
    ValueType,
    Workbook,
)
from repro.translate.context import (
    MAX_SPAN_WORDS,
    ColumnMatch,
    SheetContext,
    ValueMatch,
)

from . import lexicon_oracle as oracle

# A pool with deliberate traps: empties-after-strip, plurals, multi-word
# values, case/space variants that normalise together, unicode.
_TRICKY = [
    "", " ", "  chef  ", "chef", "chefs", "capitol hill",
    "CAPITOL HILL", "a b c d e", "s", "ß", "Ünïcode véry", "0", "column",
]
_VALUES = st.one_of(st.sampled_from(_TRICKY), st.text(max_size=8))


@st.composite
def workbooks(draw):
    shared = draw(st.lists(_VALUES, min_size=1, max_size=5))
    wb = Workbook()
    for t in range(draw(st.integers(1, 3))):
        n_cols = draw(st.integers(1, 4))
        n_rows = draw(st.integers(0, 8))
        dtypes = [
            draw(st.sampled_from(
                [ValueType.TEXT, ValueType.TEXT, ValueType.NUMBER]
            ))
            for _ in range(n_cols)
        ]
        columns = [
            Column(f"col{t}{j}", dtypes[j]) for j in range(n_cols)
        ]
        rows = []
        for _ in range(n_rows):
            row = []
            for j in range(n_cols):
                if dtypes[j] is ValueType.TEXT:
                    choice = draw(st.one_of(
                        st.none(), st.sampled_from(shared), _VALUES
                    ))
                    row.append(
                        CellValue.empty() if choice is None
                        else CellValue.text(choice)
                    )
                else:
                    row.append(CellValue.number(draw(st.integers(0, 5))))
            rows.append(row)
        wb.add_table(Table(f"T{t}", columns, rows))
    return wb


def _spans(lexicon) -> list[tuple[str, ...]]:
    """Probe spans: every value in the lexicon, its plural, its words, and
    some junk — enough to hit every match branch."""
    spans: list[tuple[str, ...]] = [("nosuchvalue",), ("chef", "hill")]
    for value in list(lexicon)[:40]:
        words = tuple(value.split())
        if words:
            spans.append(words)
            spans.append(words[:-1] + (words[-1] + "s",))
            spans.append((words[0],))
    return spans


def _expected_values(lexicon, max_words, words) -> list[ValueMatch]:
    """``match_value``'s answer read off the row-walk lexicon: the span,
    or else the span less a plural "s", with every slot holding it."""
    if not words or len(words) > max_words + 1:
        return []
    joined = " ".join(words)
    for candidate in (joined, joined[:-1] if joined.endswith("s") else None):
        if candidate is not None and lexicon.get(candidate):
            return [ValueMatch(candidate, t, c) for t, c in lexicon[candidate]]
    return []


def _check_lexicon(wb) -> dict[str, list[tuple[str, str]]]:
    """The index's lexicon and ``slots`` against the row walk: same keys,
    same slots, same slot order.  Returns the oracle lexicon."""
    index = wb.columnar_index()
    lexicon = oracle.all_text_values(wb)
    assert {k: list(v) for k, v in index.all_text_values().items()} == lexicon
    for value, slots in lexicon.items():
        assert index.slots(value) == tuple(slots), value
    return lexicon


def _check_occurs(wb, needles) -> None:
    """``occurs_in`` against the row walk for every (table, column) and
    needle."""
    index = wb.columnar_index()
    for table in wb.tables:
        key = table.name.strip().lower()
        occurs = oracle.distinct_text_values(table)
        for column in table.column_names:
            for needle in needles:
                assert index.occurs_in(key, needle, column) == (
                    column in occurs.get(needle, ())
                ), (key, column, needle)


@settings(max_examples=60, deadline=None)
@given(workbooks())
def test_lexicon_identical(wb):
    _check_lexicon(wb)


@settings(max_examples=60, deadline=None)
@given(workbooks())
def test_context_matches_identical(wb):
    """match_value/match_column agree with the row walk span-for-span,
    order included, and so do the value-word artefacts."""
    lexicon = oracle.all_text_values(wb)
    max_words = oracle.max_value_words(wb)
    ctx = SheetContext(wb)
    assert ctx._max_value_words == max_words
    assert set(ctx._value_words) == oracle.value_words(wb)
    for span in _spans(lexicon):
        values = _expected_values(lexicon, max_words, span)
        assert ctx.match_value(span) == values, span
        if len(span) > MAX_SPAN_WORDS:
            assert ctx.match_column(span) == [], span
        else:
            assert ctx.match_column(span) == (
                ctx._direct_column(span) or [
                    ColumnMatch(m.table, m.column, via_value=True)
                    for m in values
                ]
            ), span


@settings(max_examples=60, deadline=None)
@given(workbooks(), _VALUES)
def test_occurs_probe_identical(wb, raw):
    """The content-check probe, for in-lexicon and arbitrary needles."""
    needles = {raw.strip().lower()}
    needles.update(list(oracle.all_text_values(wb))[:20])
    _check_occurs(wb, needles)


def test_index_matches_oracle_on_stress_sheet():
    """Every lookup on a 2,000-row stress sheet, whose region values sit
    in three columns of two tables: lexicon with slot order, ``slots``
    and ``occurs_in`` for every value and column, and the word
    artefacts."""
    wb = stress_workbook(2000)
    lexicon = _check_lexicon(wb)
    assert any(len(slots) >= 3 for slots in lexicon.values())
    _check_occurs(wb, lexicon)
    index = wb.columnar_index()
    assert set(index.value_words) == oracle.value_words(wb)
    assert index.max_value_words == oracle.max_value_words(wb)


def test_index_memoised_per_revision():
    wb = build_sheet("payroll")
    first = wb.columnar_index()
    assert wb.columnar_index() is first  # same revision -> same object
    wb.table("Employees").cell(0, 0).value = CellValue.text("zoe")
    second = wb.columnar_index()
    assert second is not first
    assert second.slots("zoe") == (("Employees", "name"),)
    assert second.slots("alice") == ()


def test_lexicon_memo_tracks_mutations():
    wb = build_sheet("payroll")
    assert "alice" in wb.columnar_index().all_text_values()
    wb.table("Employees").cell(0, 0).value = CellValue.text("zoe")
    fresh = wb.columnar_index().all_text_values()
    assert "zoe" in fresh and "alice" not in fresh


def test_escape_hatch_switch():
    wb = build_sheet("payroll")
    assert wb.columnar_index().slots("chef") == (
        ("Employees", "title"), ("PayRates", "title")
    )


def test_occurs_in_unknown_table_and_column():
    wb = build_sheet("payroll")
    index = wb.columnar_index()
    assert not index.occurs_in("nope", "chef", "title")
    assert not index.occurs_in("employees", "chef", "nope")
    assert not index.occurs_in("employees", "nope", "title")
    assert index.occurs_in("employees", "chef", "title")


# -- memo scope: the index reads table text only ---------------------------


def _select(wb, rows=(0, 2)):
    wb.select_rows(wb.table("Employees"), rows)


def _format(wb):
    wb.table("Employees").cell(1, 2).apply_formats([FormatFn("bold", True)])


def _table_cell(wb):
    wb.table("Employees").cell(0, 0).value = CellValue.text("zoe")


def _add_table(wb):
    wb.add_table(Table.from_data("Extra", ["tag"], [["zoe"]]))


def _flash_fill(wb):
    fill_column(wb.table("Employees"), "name", "initial", [("alice", "a")])


@pytest.mark.parametrize("mutate", [
    lambda wb: wb.set_value("Z9", CellValue.number(7)),
    lambda wb: wb.set_cursor("Z10"),
    lambda wb: _select(wb, (1,)),
    lambda wb: wb.clear_selection(),
    _format,
], ids=["scratch", "cursor", "select", "clear_selection", "format"])
def test_index_survives_writes_outside_table_text(mutate):
    """A session step writes a scratch cell and moves the cursor; neither,
    nor a selection or a format, is read by the index."""
    wb = build_sheet("payroll")
    _select(wb)
    index = wb.columnar_index()
    lexicon = index.all_text_values()
    before = wb.fingerprint()
    mutate(wb)
    assert wb.columnar_index() is index
    assert index.all_text_values() is lexicon
    assert wb.fingerprint() != before


def test_index_survives_clone():
    wb = build_sheet("payroll")
    index = wb.columnar_index()
    before = wb.fingerprint()
    twin = wb.clone()
    assert wb.columnar_index() is index
    assert wb.fingerprint() == before == twin.fingerprint()
    assert twin.columnar_index() is not index
    # The twin's scratch cells stay outside the table revision too.
    twin.set_value("Z9", CellValue.number(7))
    assert wb.columnar_index() is index


@pytest.mark.parametrize("mutate", [
    _table_cell, _add_table, _flash_fill,
], ids=["table_cell", "add_table", "flash_fill"])
def test_index_rebuilt_after_table_text_changes(mutate):
    wb = build_sheet("payroll")
    index = wb.columnar_index()
    before = wb.fingerprint()
    mutate(wb)
    assert wb.columnar_index() is not index
    assert wb.fingerprint() != before


def test_index_rebuilt_after_restore():
    """Undo restores a snapshot: the index must drop the undone write."""
    wb = build_sheet("payroll")
    snapshot = wb.clone()
    _table_cell(wb)
    index = wb.columnar_index()
    before = wb.fingerprint()
    assert index.slots("zoe") == (("Employees", "name"),)
    wb.restore(snapshot)
    fresh = wb.columnar_index()
    assert fresh is not index
    assert fresh.slots("zoe") == ()
    assert wb.fingerprint() != before
    assert wb.fingerprint() == snapshot.fingerprint()


def test_flash_fill_on_zero_row_table_invalidates_memos():
    """Appending a column to an empty table writes no cell; the memos must
    still see the new column."""
    wb = Workbook()
    wb.add_table(Table.from_data("Papers", ["authors"], []))
    index = wb.columnar_index()
    before = wb.fingerprint()
    fill_column(wb.table("Papers"), "authors", "firstauthor",
                [("harris, gulwani", "harris")])
    assert wb.fingerprint() != before
    fresh = wb.columnar_index()
    assert fresh is not index
    assert fresh.slots("harris") == ()
    assert [name for name, _ in fresh._tables] == ["Papers"]
    assert [v.name for v in fresh._tables[0][1]] == [
        "authors", "firstauthor"
    ]


def test_session_steps_keep_one_index():
    """Ask+accept steps place values outside the table, so a session on
    a 2,000-row sheet builds its index once."""
    wb = stress_workbook(2000)
    session = NLyzeSession(wb)
    index = wb.columnar_index()
    for sentence in stress_sentences(wb, 6):
        before = wb.fingerprint()
        session.run(sentence)
        assert wb.fingerprint() != before
        assert wb.columnar_index() is index


def test_no_numpy_import():
    """The package and its session and service layers load no numpy."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys, repro, repro.session, repro.runtime.service; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, check=True,
    )
    assert out.stdout.strip() == "False"
