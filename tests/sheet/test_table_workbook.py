"""Unit tests for tables, formatting, and the workbook."""

import pytest

from repro.errors import SheetError, UnknownColumnError, UnknownTableError
from repro.sheet import (
    CellAddress,
    CellValue,
    Color,
    Column,
    FormatFn,
    Table,
    ValueType,
    Workbook,
)
from repro.sheet.vectors import CELL, HELD, Magnitudes


class TestTableConstruction:
    def test_from_data_infers_types(self, employees):
        assert employees.column("hours").dtype is ValueType.NUMBER
        assert employees.column("totalpay").dtype is ValueType.CURRENCY
        assert employees.column("name").dtype is ValueType.TEXT

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SheetError):
            Table("T", [Column("a", ValueType.TEXT), Column("A", ValueType.TEXT)])

    def test_row_width_checked(self, employees):
        with pytest.raises(SheetError):
            employees.append_row([CellValue.text("x")])

    def test_column_type_enforced_on_append(self):
        t = Table("T", [Column("n", ValueType.NUMBER)])
        with pytest.raises(SheetError):
            t.append_row([CellValue.text("not a number")])

    def test_empty_cells_accepted_anywhere(self):
        t = Table("T", [Column("n", ValueType.NUMBER)])
        t.append_row([CellValue.empty()])
        assert t.n_rows == 1

    def test_mixed_inferred_types_rejected(self):
        with pytest.raises(ValueError):
            Table.from_data("T", ["a"], [[1], ["text"]])

    def test_retype_number_to_currency(self):
        t = Table.from_data("T", ["p"], [[10]], types=[ValueType.CURRENCY])
        assert t.column_values("p")[0].type is ValueType.CURRENCY


class TestTableAccess:
    def test_column_lookup_case_insensitive(self, employees):
        assert employees.column("TotalPay").name == "totalpay"

    def test_unknown_column(self, employees):
        with pytest.raises(UnknownColumnError):
            employees.column_index("salary")

    def test_column_values_with_row_filter(self, employees):
        values = employees.column_values("hours", rows=[0, 2])
        assert [v.payload for v in values] == [30, 25]

    def test_cell_out_of_range(self, employees):
        with pytest.raises(SheetError):
            employees.cell(99, 0)

    def test_distinct_text_values(self, payroll):
        index = payroll.columnar_index()
        assert index.occurs_in("employees", "barista", "title")
        assert not index.occurs_in("employees", "barista", "location")
        assert index.slots("capitol hill") == (("Employees", "location"),)

    def test_render_contains_header_and_data(self, employees):
        text = employees.render()
        assert "totalpay" in text
        assert "capitol hill" in text


class TestAddressing:
    def test_data_cell_addresses_skip_header(self, employees):
        # Header at row 1 (A1..), first data row at row 2.
        assert employees.address_of(0, 0).to_a1() == "A2"
        assert employees.address_of(1, 7).to_a1() == "H3"

    def test_locate_roundtrip(self, employees):
        a = employees.address_of(3, 2)
        assert employees.locate(a) == (3, 2)

    def test_locate_outside_returns_none(self, employees):
        assert employees.locate(CellAddress.parse("Z99")) is None
        # The header row itself is not a data cell.
        assert employees.locate(CellAddress.parse("A1")) is None

    def test_column_at_letter_index(self, employees):
        assert employees.column_at_letter_index(7).name == "totalpay"
        assert employees.column_at_letter_index(99) is None


class TestFormatting:
    def test_apply_and_match(self, employees):
        cell = employees.cell(0, 7)
        cell.apply_formats([FormatFn.color(Color.RED), FormatFn.bold()])
        assert cell.matches_format([FormatFn.color(Color.RED)])
        assert cell.matches_format([FormatFn.bold()])
        assert not cell.matches_format([FormatFn.color(Color.BLUE)])

    def test_rows_matching_format(self, employees):
        employees.cell(1, 0).apply_formats([FormatFn.color(Color.RED)])
        employees.cell(4, 3).apply_formats([FormatFn.color(Color.RED)])
        assert employees.rows_matching_format([FormatFn.color(Color.RED)]) == [1, 4]

    def test_format_fn_validation(self):
        with pytest.raises(ValueError):
            FormatFn("blink", True)
        with pytest.raises(TypeError):
            FormatFn("bold", "yes")

    def test_color_from_name(self):
        assert Color.from_name("Red") is Color.RED
        with pytest.raises(ValueError):
            Color.from_name("mauve")


class TestWorkbook:
    def test_default_table_is_first(self, payroll):
        assert payroll.default_table.name == "Employees"

    def test_tables_do_not_overlap(self, payroll):
        emp = payroll.table("Employees")
        rates = payroll.table("PayRates")
        assert rates.origin.row > emp.origin.row + emp.n_rows

    def test_unknown_table(self, payroll):
        with pytest.raises(UnknownTableError):
            payroll.table("Nope")

    def test_duplicate_table_rejected(self, payroll):
        with pytest.raises(SheetError):
            payroll.add_table(Table("employees", [Column("x", ValueType.TEXT)]))

    def test_get_value_table_cell(self, payroll):
        # B2 = first data row, location column.
        assert payroll.get_value("B2").payload == "capitol hill"

    def test_scratch_cells(self, payroll):
        payroll.set_value("J2", CellValue.number(7))
        assert payroll.get_value("J2").payload == 7
        assert CellAddress.parse("J2") in payroll.scratch_addresses

    def test_set_value_into_table(self, payroll):
        payroll.set_value("D2", CellValue.number(99))
        assert payroll.table("Employees").cell(0, 3).value.payload == 99

    def test_place_scalar_at_cursor(self, payroll):
        payroll.set_cursor("J5")
        at = payroll.place_scalar(CellValue.number(1))
        assert at.to_a1() == "J5"
        assert payroll.get_value("J5").payload == 1

    def test_place_vector_descends(self, payroll):
        payroll.set_cursor("K1")
        addresses = payroll.place_vector(
            [CellValue.number(1), CellValue.number(2)]
        )
        assert [a.to_a1() for a in addresses] == ["K1", "K2"]

    def test_selection_and_selected_rows(self, payroll):
        emp = payroll.table("Employees")
        payroll.select_rows(emp, [1, 3])
        assert payroll.selected_row_indices(emp) == [1, 3]
        payroll.clear_selection()
        assert payroll.selected_row_indices(emp) == []

    def test_select_cells(self, payroll):
        emp = payroll.table("Employees")
        payroll.select_cells(emp, [(0, 7)])
        assert payroll.selected_row_indices(emp) == [0]

    def test_find_columns_prefers_default_table(self, payroll):
        hits = payroll.find_columns("payrate")
        assert hits[0][0].name == "Employees"
        assert len(hits) == 2  # Employees and PayRates both have payrate

    def test_all_text_values_merges_tables(self, payroll):
        values = payroll.columnar_index().all_text_values()
        assert ("Employees", "title") in values["chef"]
        assert ("PayRates", "title") in values["chef"]

    def test_column_vectors_follow_the_table_revision(self, payroll):
        """Built once per column: a scratch write keeps a vector, a
        table-cell write rebuilds it from the cells."""
        emp = payroll.table("Employees")
        j = emp.column_index("hours")
        hours = payroll.column_vector(emp, j, Magnitudes)
        assert payroll.column_vector(emp, j, Magnitudes) is hours
        payroll.set_value("Z9", CellValue.number(7))
        assert payroll.column_vector(emp, j, Magnitudes) is hours
        payroll.set_value(emp.address_of(0, j), CellValue.text("x"))
        fresh = payroll.column_vector(emp, j, Magnitudes)
        assert fresh is not hours
        assert (fresh.tags[0], hours.tags[0]) == (CELL, HELD)
        assert fresh.nums[1:] == hours.nums[1:]

    def test_cursor_required(self):
        wb = Workbook()
        with pytest.raises(SheetError):
            _ = wb.cursor
