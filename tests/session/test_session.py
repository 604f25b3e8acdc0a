"""Integration tests for the interactive programming model (§4)."""

import pytest

from repro.dataset import build_sheet
from repro.errors import TranslationError
from repro.session import (
    CONFIDENCE_THRESHOLD,
    MAX_SHOWN,
    NLyzeSession,
    WordRole,
    annotate,
)
from repro.sheet import CellValue, Color


@pytest.fixture
def session():
    return NLyzeSession(build_sheet("payroll"))


class TestAsk:
    def test_at_most_three_candidates_shown(self, session):
        step = session.ask("sum the totalpay for the capitol hill baristas")
        assert 1 <= len(step.views) <= MAX_SHOWN

    def test_views_carry_excel_and_english(self, session):
        step = session.ask("sum the hours")
        view = step.views[0]
        assert view.excel.startswith("=SUM(")
        assert "sum up" in view.english

    def test_confidence_threshold_filters(self, session):
        step = session.ask("sum the totalpay for the capitol hill baristas")
        for view in step.views[1:]:
            assert view.candidate.score >= CONFIDENCE_THRESHOLD

    def test_render_contains_candidates(self, session):
        step = session.ask("sum the hours")
        text = step.render()
        assert text.startswith("> sum the hours")
        assert "1." in text


class TestAnnotations:
    def test_running_example_annotations(self, session):
        step = session.ask("sum the totalpay for the capitol hill baristas")
        top = step.views[0]
        rendered = top.render()
        assert "[totalpay]" in rendered
        assert "{capitol}" in rendered and "{hill}" in rendered

    def test_ignored_words_struck_through(self, session):
        step = session.ask("sum the totalpay for the capitol hill baristas")
        # lower-ranked candidates ignore either the barista or location part
        lower = "\n".join(v.render() for v in step.views[1:])
        assert "~" in lower

    def test_misspelled_word_marked(self, session):
        step = session.ask("sum the huors")
        assert "(?sp)" in step.views[0].render()

    def test_roles(self, session):
        step = session.ask("count employees where othours is greater than 1")
        top = step.views[0].candidate
        roles = {
            a.token.text: a.role
            for a in annotate(top, session._service.context)
        }
        assert roles["othours"] is WordRole.COLUMN
        assert roles["1"] is WordRole.LITERAL


class TestAcceptAndSteps:
    def test_accept_places_result(self, session):
        step = session.ask("sum the hours")
        result = session.accept(step)
        assert result.kind == "scalar"
        at = result.addresses[0]
        assert session.workbook.get_value(at).payload == 342

    def test_cursor_advances_between_steps(self, session):
        first = session.run("sum the hours")
        second = session.run("sum the othours")
        assert first.addresses[0] != second.addresses[0]
        assert second.addresses[0].row == first.addresses[0].row + 1

    def test_choice_selects_other_candidate(self, session):
        step = session.ask("sum the totalpay for the capitol hill baristas")
        result = session.accept(step, choice=1)
        assert step.accepted is step.views[1].candidate
        assert result.value is not None

    def test_accept_empty_step_raises(self, session):
        step = session.ask("sum the hours")
        step.views = []
        with pytest.raises(TranslationError):
            session.accept(step)

    def test_selection_feeds_next_step(self, session):
        session.run("select the rows for the capitol hill baristas")
        result = session.run("sum the totalpay from the selected rows")
        assert result.value == CellValue.currency(396 + 492 + 432)

    def test_format_view_extended_across_steps(self, session):
        session.run("color the chef totalpay red")
        session.run("color the totalpay for the baristas red")
        result = session.run("add up the red totalpay cells")
        chefs = 800 + 984 + 832
        baristas = 396 + 390 + 492 + 252 + 432 + 192
        assert result.value == CellValue.currency(chefs + baristas)

    def test_format_actually_colors_cells(self, session):
        session.run("color the chef totalpay red")
        employees = session.workbook.table("Employees")
        chef_rows = [
            i for i in range(employees.n_rows)
            if employees.cell(i, 2).value.payload == "chef"
        ]
        for i in chef_rows:
            assert employees.cell(i, 7).format.color is Color.RED


class TestReplay:
    def test_replay_reflects_edited_inputs(self, session):
        session.run("sum the totalpay for the baristas")
        employees = session.workbook.table("Employees")
        employees.cell(0, 7).value = CellValue.currency(1000)  # alice raise
        results = session.replay()
        assert results[-1].value == CellValue.currency(
            1000 + 390 + 492 + 252 + 432 + 192
        )

    def test_program_records_accepted_only(self, session):
        session.ask("sum the hours")  # never accepted
        session.run("sum the othours")
        assert len(session.program) == 1

    def test_transcript_contains_all_steps(self, session):
        session.run("sum the hours")
        session.ask("count the employees")
        text = session.transcript()
        assert "sum the hours" in text
        assert "count the employees" in text
