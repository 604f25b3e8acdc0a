"""Tests for the Excel formula emitter and the English paraphraser."""

import pytest

from repro.dsl import ExcelEmitter, ast, paraphrase
from repro.sheet import CellValue, FormatFn


@pytest.fixture
def emitter(payroll):
    return ExcelEmitter(payroll)


def col(name, table=None):
    return ast.ColumnRef(name, table)


def num(x):
    return ast.Lit(CellValue.number(x))


def text(s):
    return ast.Lit(CellValue.text(s))


def eq(c, v):
    return ast.Compare(ast.RelOp.EQ, col(c), text(v))


def running_example():
    return ast.Reduce(
        ast.ReduceOp.SUM,
        col("totalpay"),
        ast.GetTable(),
        ast.And(eq("location", "capitol hill"), eq("title", "barista")),
    )


class TestExcel:
    def test_sumifs_for_conjunctions(self, emitter):
        f = emitter.emit(running_example())
        assert f == '=SUMIFS(H2:H7, B2:B7, "capitol hill", C2:C7, "barista")'

    def test_plain_sum(self, emitter):
        p = ast.Reduce(ast.ReduceOp.SUM, col("hours"), ast.GetTable(), ast.TrueF())
        assert emitter.emit(p) == "=SUM(D2:D7)"

    def test_numeric_criterion(self, emitter):
        p = ast.Reduce(
            ast.ReduceOp.SUM,
            col("totalpay"),
            ast.GetTable(),
            ast.Compare(ast.RelOp.LT, col("hours"), num(20)),
        )
        assert emitter.emit(p) == '=SUMIFS(H2:H7, D2:D7, "<20")'

    def test_flipped_comparison_criterion(self, emitter):
        p = ast.Count(
            ast.GetTable(),
            ast.Compare(ast.RelOp.LT, num(20), col("hours")),
        )
        assert emitter.emit(p) == '=COUNTIFS(D2:D7, ">20")'

    def test_disjunction_falls_back_to_sumproduct(self, emitter):
        p = ast.Reduce(
            ast.ReduceOp.SUM,
            col("totalpay"),
            ast.GetTable(),
            ast.Or(eq("title", "chef"), eq("title", "barista")),
        )
        f = emitter.emit(p)
        assert f.startswith("=SUMPRODUCT(")
        assert '(C2:C7="chef")' in f

    def test_negation_in_count(self, emitter):
        p = ast.Count(ast.GetTable(), ast.Not(eq("title", "chef")))
        f = emitter.emit(p)
        assert "1-" in f and f.startswith("=SUMPRODUCT")

    def test_column_vs_column_condition(self, emitter):
        p = ast.Count(
            ast.GetTable(),
            ast.Compare(ast.RelOp.GT, col("othours"), col("hours")),
        )
        assert "E2:E7>D2:D7" in emitter.emit(p)

    def test_count_all_uses_counta(self, emitter):
        p = ast.Count(ast.GetTable(), ast.TrueF())
        assert emitter.emit(p) == "=COUNTA(A2:A7)"

    def test_avg_and_min_max(self, emitter):
        p = ast.Reduce(ast.ReduceOp.AVG, col("hours"), ast.GetTable(), eq("title", "chef"))
        assert emitter.emit(p).startswith("=AVERAGEIFS(")
        p = ast.Reduce(ast.ReduceOp.MAX, col("hours"), ast.GetTable(), eq("title", "chef"))
        assert emitter.emit(p).startswith("=MAXIFS(")

    def test_lookup_index_match(self, emitter):
        p = ast.Lookup(
            text("chef"), ast.GetTable("PayRates"), col("title"), col("payrate")
        )
        f = emitter.emit(p)
        assert f.startswith("=INDEX(")
        assert 'MATCH("chef"' in f

    def test_vector_join(self, emitter):
        p = ast.Lookup(
            col("title"), ast.GetTable("PayRates"), col("title"), col("payrate")
        )
        f = emitter.emit(p)
        assert "MATCH(C2:C7" in f

    def test_arithmetic_with_cell_refs(self, emitter):
        p = ast.BinOp(ast.BinaryOp.DIV, ast.CellRef("I2"), ast.CellRef("I3"))
        assert emitter.emit(p) == "=(I2/I3)"

    def test_computed_criterion(self, emitter):
        avg = ast.Reduce(ast.ReduceOp.AVG, col("hours"), ast.GetTable(), ast.TrueF())
        p = ast.Count(ast.GetTable(), ast.Compare(ast.RelOp.GT, col("hours"), avg))
        f = emitter.emit(p)
        assert '">"&(AVERAGE(D2:D7))' in f

    # A text value must match only itself: quotes doubled, wildcards
    # escaped in criteria and MATCH needles, a leading operator character
    # guarded by an explicit "=".  The array form compares with "=",
    # which reads no wildcards, so it only doubles quotes.
    TEXT_VALUES = [
        # value, criterion, MATCH needle, array-form literal
        ('say "hi"', '"say ""hi"""', '"say ""hi"""', '"say ""hi"""'),
        ("a*b", '"a~*b"', '"a~*b"', '"a*b"'),
        ("x?", '"x~?"', '"x~?"', '"x?"'),
        ("<20", '"=<20"', '"<20"', '"<20"'),
    ]

    @pytest.mark.parametrize("value,criterion,needle,literal", TEXT_VALUES)
    def test_text_value_matches_itself(
        self, emitter, value, criterion, needle, literal
    ):
        total = ast.Reduce(
            ast.ReduceOp.SUM, col("totalpay"), ast.GetTable(), eq("name", value)
        )
        assert emitter.emit(total) == f"=SUMIFS(H2:H7, A2:A7, {criterion})"
        count = ast.Count(ast.GetTable(), eq("name", value))
        assert emitter.emit(count) == f"=COUNTIFS(A2:A7, {criterion})"
        lookup = ast.Lookup(
            text(value), ast.GetTable(), col("name"), col("totalpay")
        )
        assert emitter.emit(lookup) == (
            f"=INDEX(H2:H7, MATCH({needle}, A2:A7, 0))"
        )
        either = ast.Count(
            ast.GetTable(), ast.Or(eq("name", value), eq("title", "chef"))
        )
        assert emitter.emit(either) == (
            f'=SUMPRODUCT(1*(((A2:A7={literal})+(C2:C7="chef"))>0))'
        )

    def test_date_criterion_is_one_string(self):
        from repro.sheet import Table, ValueType, Workbook

        wb = Workbook()
        wb.add_table(Table.from_data(
            "Days", ["day"], [["2014-01-01"], ["2014-02-01"]],
            types=[ValueType.DATE],
        ))
        before = ast.Count(ast.GetTable(), ast.Compare(
            ast.RelOp.LT, col("day"), ast.Lit(CellValue.date("2014-01-15"))
        ))
        assert ExcelEmitter(wb).emit(before) == '=COUNTIFS(A2:A3, "<2014-01-15")'

    def test_select_renders_action(self, emitter):
        p = ast.MakeActive(ast.SelectRows(ast.GetTable(), eq("title", "chef")))
        assert emitter.emit(p).startswith("[select rows of Employees")

    def test_format_renders_action(self, emitter):
        p = ast.FormatCells(
            ast.FormatSpec((FormatFn.color("red"),)),
            ast.SelectCells((col("totalpay"),), ast.GetTable(), eq("title", "chef")),
        )
        out = emitter.emit(p)
        assert out.startswith("[apply color red")
        assert "totalpay" in out


class TestParaphrase:
    def test_running_example(self):
        text_out = paraphrase(running_example())
        assert text_out == (
            "sum up the totalpay where location = capitol hill"
            " and title = barista"
        )

    def test_count(self):
        p = ast.Count(ast.GetTable(), ast.Not(eq("location", "europe")))
        assert paraphrase(p) == "count the rows where location is not europe"

    def test_lookup(self):
        p = ast.Lookup(
            text("chef"), ast.GetTable("PayRates"), col("title"), col("payrate")
        )
        assert paraphrase(p) == (
            "look up chef in title of PayRates and take payrate"
        )

    def test_arithmetic(self):
        p = ast.BinOp(ast.BinaryOp.MULT, col("basepay"), num(1.1))
        assert paraphrase(p) == "basepay times 1.1"

    @pytest.mark.parametrize("outer, inner, grouped, flat", [
        (ast.BinaryOp.MULT, ast.BinaryOp.ADD,
         "multiply basepay plus otpay by 1.1",
         "basepay plus otpay times 1.1"),
        (ast.BinaryOp.DIV, ast.BinaryOp.SUB,
         "divide basepay minus otpay by 1.1",
         "basepay minus otpay divided by 1.1"),
    ])
    def test_grouped_arithmetic(self, outer, inner, grouped, flat):
        """A sum or difference on the left of a product or quotient is
        grouped by a leading verb, so the two readings of "a plus b times
        c" render differently."""
        a, b, c = col("basepay"), col("otpay"), num(1.1)
        left_grouped = ast.BinOp(outer, ast.BinOp(inner, a, b), c)
        right_grouped = ast.BinOp(inner, a, ast.BinOp(outer, b, c))
        assert paraphrase(left_grouped) == grouped
        assert paraphrase(right_grouped) == flat

    @pytest.mark.parametrize("program, text", [
        (ast.BinOp(ast.BinaryOp.SUB, col("totalpay"),
                   ast.BinOp(ast.BinaryOp.ADD, col("basepay"), col("otpay"))),
         "subtract basepay plus otpay from totalpay"),
        (ast.BinOp(ast.BinaryOp.SUB, col("totalpay"),
                   ast.BinOp(ast.BinaryOp.SUB, col("basepay"), col("otpay"))),
         "subtract basepay minus otpay from totalpay"),
        (ast.BinOp(ast.BinaryOp.MULT, num(1.1),
                   ast.BinOp(ast.BinaryOp.ADD, col("basepay"), col("otpay"))),
         "multiply basepay plus otpay by 1.1"),
        (ast.BinOp(ast.BinaryOp.ADD,
                   ast.BinOp(ast.BinaryOp.SUB, col("totalpay"), col("basepay")),
                   col("otpay")),
         "totalpay minus basepay plus otpay"),
        (ast.BinOp(ast.BinaryOp.ADD,
                   ast.BinOp(ast.BinaryOp.MULT, num(1.1), col("basepay")),
                   col("otpay")),
         "1.1 times basepay plus otpay"),
        (ast.BinOp(ast.BinaryOp.ADD, col("totalpay"),
                   ast.BinOp(ast.BinaryOp.SUB, col("basepay"), col("otpay"))),
         "totalpay plus basepay minus otpay"),
    ])
    def test_grouped_right_operand(self, program, text):
        """A sum or difference on the right of a difference or product
        leads with a verb, so it no longer reads like the left-grouped
        program; a sum keeps the flat reading, whose value is the same
        either way."""
        assert paraphrase(program) == text

    def test_select(self):
        p = ast.MakeActive(ast.SelectRows(ast.GetTable(), eq("title", "chef")))
        assert paraphrase(p) == "select the rows where title = chef"

    def test_format(self):
        p = ast.FormatCells(
            ast.FormatSpec((FormatFn.color("red"),)),
            ast.SelectRows(ast.GetTable(), ast.Compare(ast.RelOp.GT, col("othours"), num(0))),
        )
        assert paraphrase(p) == (
            "apply color red to the rows where othours > 0"
        )

    def test_get_format_source(self):
        spec = ast.FormatSpec((FormatFn.color("red"),))
        p = ast.Reduce(ast.ReduceOp.SUM, col("totalpay"), ast.GetFormat(spec), ast.TrueF())
        assert "with color red" in paraphrase(p)

    def test_get_active_source(self):
        p = ast.Reduce(ast.ReduceOp.SUM, col("totalpay"), ast.GetActive(), ast.TrueF())
        assert "current selection" in paraphrase(p)

    def test_partial_expression_paraphrases(self):
        p = ast.Reduce(ast.ReduceOp.SUM, col("totalpay"), ast.GetTable(), ast.Hole(2))
        assert "□G2" in paraphrase(p)


@pytest.fixture(scope="module")
def table2_payroll_translator():
    from repro.dataset import build_sheet
    from repro.translate import Translator

    return Translator(build_sheet("payroll"))


@pytest.mark.parametrize("program", [
    ast.BinOp(ast.BinaryOp.SUB, col("totalpay"),
              ast.BinOp(ast.BinaryOp.ADD, col("basepay"), col("otpay"))),
    ast.BinOp(ast.BinaryOp.SUB, col("totalpay"),
              ast.BinOp(ast.BinaryOp.SUB, col("basepay"), col("otpay"))),
    ast.BinOp(ast.BinaryOp.MULT, num(1.1),
              ast.BinOp(ast.BinaryOp.ADD, col("basepay"), col("otpay"))),
    ast.BinOp(ast.BinaryOp.ADD,
              ast.BinOp(ast.BinaryOp.SUB, col("totalpay"), col("basepay")),
              col("otpay")),
    ast.BinOp(ast.BinaryOp.ADD,
              ast.BinOp(ast.BinaryOp.MULT, num(1.1), col("basepay")),
              col("otpay")),
    ast.BinOp(ast.BinaryOp.MULT,
              ast.BinOp(ast.BinaryOp.ADD, col("basepay"), col("otpay")),
              num(1.1)),
])
def test_paraphrase_translates_back(program, table2_payroll_translator):
    """The paraphrase of each grouping, translated on the Table 2 payroll
    sheet, ranks a program equivalent to the paraphrased one first."""
    from repro.evalkit.canonical import equivalent

    translator = table2_payroll_translator
    top = translator.translate(paraphrase(program))[0].program
    assert equivalent(top, program, translator.workbook), (
        f"{paraphrase(program)!r} translated to {top}"
    )
