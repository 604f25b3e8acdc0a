"""Tests for ambiguity clarification."""

import pytest

from repro.dataset import build_sheet
from repro.dsl import paraphrase
from repro.session import Clarification, clarify, needs_clarification
from repro.translate import Translator


@pytest.fixture(scope="module")
def translator():
    return Translator(build_sheet("payroll"))


class TestNeedsClarification:
    def test_decisive_ranking_needs_none(self, translator):
        candidates = translator.translate(
            "sum the totalpay for the capitol hill baristas"
        )
        assert not needs_clarification(candidates)
        assert clarify(candidates) is None

    def test_ambiguous_arithmetic_triggers(self, translator):
        # the genuinely ambiguous precedence case: a + b * c
        candidates = translator.translate("basepay plus otpay times 1.10")
        assert needs_clarification(candidates)

    def test_single_candidate_never_triggers(self, translator):
        candidates = translator.translate("sum the hours")[:1]
        assert not needs_clarification(candidates)

    def test_empty_list(self):
        assert not needs_clarification([])


class TestClarification:
    def test_structural_ambiguity_question(self, translator):
        candidates = translator.translate("basepay plus otpay times 1.10")
        clarification = clarify(candidates)
        assert isinstance(clarification, Clarification)
        text = clarification.render()
        assert "which did you mean" in text
        assert "1." in text and "2." in text

    def test_render_shows_both_paraphrases(self, translator):
        candidates = translator.translate("basepay plus otpay times 1.10")
        text = clarify(candidates).render()
        assert "plus" in text and "times" in text

    def test_options_read_differently(self, translator):
        """The two groupings of "a plus b times c" get two different
        lines, so the question can be answered."""
        candidates = translator.translate("basepay plus otpay times 1.10")
        clarification = clarify(candidates)
        first = paraphrase(clarification.first.program)
        second = paraphrase(clarification.second.program)
        assert first != second
        assert {first, second} == {
            "basepay plus otpay times 1.1",
            "multiply basepay plus otpay by 1.1",
        }
