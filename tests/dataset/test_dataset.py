"""Tests for the evaluation dataset: sheets, tasks, generator, corpus."""

import collections

import pytest

from repro.dataset import (
    CORPUS_SIZE,
    Corpus,
    all_tasks,
    build_sheet,
    generate_descriptions,
    user_study_descriptions,
    validate_tasks,
)
from repro.dataset.intents import Filter, Intent
from repro.dsl import Evaluator
from repro.sheet import ValueType


class TestSheets:
    def test_four_sheets_build(self):
        for sheet_id in ("payroll", "inventory", "countries", "invoices"):
            wb = build_sheet(sheet_id)
            assert wb.default_table.n_rows >= 10
            assert wb.has_cursor

    def test_unknown_sheet(self):
        with pytest.raises(KeyError):
            build_sheet("budget")

    def test_payroll_has_lookup_side_table(self):
        wb = build_sheet("payroll")
        assert wb.has_table("PayRates")
        assert wb.table("PayRates").column("payrate").dtype is ValueType.CURRENCY

    def test_each_sheet_is_fresh(self):
        a = build_sheet("payroll")
        b = build_sheet("payroll")
        assert a is not b
        a.default_table.cell(0, 0).value = a.get_value("B2")
        assert b.default_table.cell(0, 0).value.payload == "alice"

    def test_domains_have_distinct_vocabulary(self):
        vocabularies = [
            set(build_sheet(s).columnar_index().all_text_values()) for s in
            ("payroll", "inventory", "countries", "invoices")
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (vocabularies[i] & vocabularies[j])


class TestTasks:
    def test_forty_tasks_ten_per_sheet(self):
        tasks = all_tasks()
        assert len(tasks) == 40
        by_sheet = collections.Counter(t.sheet_id for t in tasks)
        assert set(by_sheet.values()) == {10}

    def test_gold_programs_all_execute(self):
        validate_tasks()

    def test_task_ids_unique(self):
        ids = [t.task_id for t in all_tasks()]
        assert len(set(ids)) == 40

    def test_category_mix(self):
        cats = collections.Counter(t.category for t in all_tasks())
        # conditional reduce, count, select, format, lookup, map, argmax all present
        for cat in ("reduce", "count", "select", "format", "lookup",
                    "join_map", "map2", "argmax"):
            assert cats[cat] >= 1, cat

    def test_gold_conditional_sum_value(self):
        wb = build_sheet("payroll")
        task = next(t for t in all_tasks() if t.task_id == "payroll-01")
        result = Evaluator(wb).run(task.gold(wb), place=False)
        # capitol hill baristas: alice 396 + erin 492 + karen 432
        assert result.value.payload == 396 + 492 + 432

    def test_intent_validation(self):
        with pytest.raises(ValueError):
            Filter("hours", "approximately", 20)
        with pytest.raises(ValueError):
            Filter("hours", "lt_col")


class TestGenerator:
    def test_deterministic(self):
        task = all_tasks()[0]
        a = generate_descriptions(task, 20)
        b = generate_descriptions(task, 20)
        assert [d.text for d in a] == [d.text for d in b]

    def test_distinct_descriptions(self):
        task = all_tasks()[0]
        texts = [d.text for d in generate_descriptions(task, 80)]
        assert len(set(texts)) == len(texts)

    def test_descriptions_are_lowercase_single_spaced(self):
        for task in all_tasks()[:5]:
            for d in generate_descriptions(task, 30):
                assert d.text == " ".join(d.text.lower().split())

    def test_every_task_generates(self):
        for task in all_tasks():
            assert len(generate_descriptions(task, 10)) == 10

    def test_hard_mode_differs(self):
        task = all_tasks()[0]
        easy = {d.text for d in generate_descriptions(task, 60)}
        hard = {d.text for d in generate_descriptions(task, 60, hard=True)}
        assert easy != hard

    def test_keyword_and_verbose_styles_both_occur(self):
        task = next(t for t in all_tasks() if t.task_id == "payroll-01")
        texts = [d.text for d in generate_descriptions(task, 89)]
        assert any(len(t.split()) <= 6 for t in texts), "no keyword style"
        assert any(len(t.split()) >= 10 for t in texts), "no verbose style"


class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return Corpus.default()

    def test_size(self, corpus):
        assert len(corpus) == CORPUS_SIZE == 3570

    def test_split_fractions(self, corpus):
        assert len(corpus.train) == int(3570 * 0.7)
        assert len(corpus.train) + len(corpus.test) == 3570

    def test_split_disjoint(self, corpus):
        train_keys = {(d.task_id, d.text) for d in corpus.train}
        test_keys = {(d.task_id, d.text) for d in corpus.test}
        assert not (train_keys & test_keys)

    def test_every_task_in_both_splits(self, corpus):
        train_tasks = {d.task_id for d in corpus.train}
        test_tasks = {d.task_id for d in corpus.test}
        assert len(train_tasks) == 40
        assert len(test_tasks) == 40

    def test_by_sheet_filters(self, corpus):
        payroll = corpus.by_sheet("payroll")
        assert payroll
        assert all(d.sheet_id == "payroll" for d in payroll)

    def test_task_of(self, corpus):
        d = corpus.descriptions[0]
        assert corpus.task_of(d).task_id == d.task_id


class TestUserStudy:
    def test_sixty_two_descriptions(self):
        assert len(user_study_descriptions()) == 62

    def test_all_hard(self):
        assert all(d.hard for d in user_study_descriptions())

    def test_deterministic(self):
        a = [d.text for d in user_study_descriptions()]
        b = [d.text for d in user_study_descriptions()]
        assert a == b
