"""Whole-suite integration: every one of the 40 tasks, end to end.

For each task: the gold program must evaluate, emit an Excel formula,
paraphrase into English, survive the canonical round trip, and — the
headline integration property — at least one generated description of the
task must translate to the gold program within the top 3 candidates.
"""

from __future__ import annotations

import pytest

from repro.dataset import all_tasks, build_sheet, generate_descriptions
from repro.dsl import Evaluator, ExcelEmitter, ast, paraphrase
from repro.dsl.parser import DslParseError, parse_expr, print_expr
from repro.evalkit import TaskOracle, canonicalize, evaluate_description
from repro.evalkit.canonical import equivalent
from repro.translate import Translator

_TASKS = list(all_tasks())


@pytest.fixture(scope="module")
def oracle():
    return TaskOracle()


@pytest.fixture(scope="module")
def translators(oracle):
    return {s: Translator(oracle.workbook(s)) for s in oracle.workbooks}


@pytest.mark.parametrize("task", _TASKS, ids=lambda t: t.task_id)
class TestEveryTask:
    def test_gold_evaluates(self, task):
        workbook = build_sheet(task.sheet_id)
        result = Evaluator(workbook).run(task.gold(workbook), place=False)
        assert result.kind in ("scalar", "vector", "selection", "format")

    def test_gold_emits_excel(self, task):
        workbook = build_sheet(task.sheet_id)
        rendered = ExcelEmitter(workbook).emit(task.gold(workbook))
        assert rendered.startswith(("=", "["))

    def test_gold_paraphrases(self, task):
        workbook = build_sheet(task.sheet_id)
        english = paraphrase(task.gold(workbook))
        assert english and "Error" not in english

    def test_gold_canonicalization_stable(self, task):
        workbook = build_sheet(task.sheet_id)
        gold = task.gold(workbook)
        once = canonicalize(gold, workbook)
        assert canonicalize(once, workbook) == once

    def test_gold_round_trips_through_parser(self, task):
        workbook = build_sheet(task.sheet_id)
        gold = task.gold(workbook)
        assert parse_expr(print_expr(gold)) == gold

    def test_some_description_translates_to_gold(
        self, task, oracle, translators
    ):
        descriptions = generate_descriptions(task, 6)
        translator = translators[task.sheet_id]
        best = None
        for description in descriptions:
            outcome = evaluate_description(translator, oracle, description)
            if outcome.rank is not None:
                best = outcome.rank if best is None else min(best, outcome.rank)
                if best == 0:
                    break
        assert best is not None and best < 3, (
            f"no description of {task.task_id} reached the top 3"
        )


@pytest.mark.parametrize("task", _TASKS, ids=lambda t: t.task_id)
def test_gold_paraphrase_translates_back_to_gold(task, oracle, translators):
    """The structured English shown for a program names a program the
    translator reads back: its top-1 is equivalent to the gold."""
    workbook = oracle.workbook(task.sheet_id)
    gold = task.gold(workbook)
    candidates = translators[task.sheet_id].translate(paraphrase(gold))
    assert candidates, paraphrase(gold)
    assert equivalent(candidates[0].program, gold, workbook), (
        paraphrase(gold), str(candidates[0].program)
    )
