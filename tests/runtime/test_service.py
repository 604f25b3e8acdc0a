"""TranslationService: degradation ladder, never-crash contract,
structured diagnostics."""

from __future__ import annotations

import pytest

from repro.dsl import ast
from repro.runtime import (
    Budget,
    FaultPlan,
    FaultSpec,
    TranslationService,
    degradation_ladder,
)
from repro.runtime.faults import clear
from repro.sheet import CellValue, ValueType
from repro.translate import Translator, TranslatorConfig

from ..conftest import make_payroll

RUNNING_EXAMPLE = "sum the totalpay for the capitol hill baristas"
RUNNING_ANSWER = '=SUMIFS(H2:H7, B2:B7, "capitol hill", C2:C7, "barista")'


@pytest.fixture(autouse=True)
def disarm():
    yield
    clear()


class TestLadder:
    def test_three_tiers_cheapening(self):
        tiers = degradation_ladder()
        assert [t.name for t in tiers] == ["full", "reduced", "rules_only"]
        full, reduced, rules_only = (t.config for t in tiers)
        assert reduced.beam_size < full.beam_size
        assert reduced.synth_max_new < full.synth_max_new
        assert rules_only.use_synthesis is False
        assert rules_only.use_rules is True

    def test_ladder_respects_caller_config(self):
        config = TranslatorConfig(beam_size=300, fuzzy_columns=True)
        tiers = degradation_ladder(config)
        assert tiers[0].config.beam_size == 300
        assert all(t.config.fuzzy_columns for t in tiers)


class TestDefaultPath:
    def test_no_deadline_matches_bare_translator_exactly(self):
        workbook = make_payroll()
        service = TranslationService(workbook)
        translator = Translator(workbook)
        result = service.translate(RUNNING_EXAMPLE)
        plain = translator.translate(RUNNING_EXAMPLE)
        assert result.ok and not result.degraded and not result.anytime
        assert result.tier == "full"
        assert [(str(c.program), c.score) for c in result.candidates] == [
            (str(c.program), c.score) for c in plain
        ]

    def test_diagnostics_populated(self):
        service = TranslationService(make_payroll())
        result = service.translate(RUNNING_EXAMPLE)
        assert result.elapsed > 0
        assert result.budget_spent > 0
        assert len(result.attempts) == 1
        attempt = result.attempts[0]
        assert attempt.tier == "full"
        assert attempt.candidates == len(result.candidates)
        assert attempt.error_code is None

    def test_input_error_is_structured_not_raised(self):
        service = TranslationService(make_payroll())
        result = service.translate("   ")
        assert not result.ok
        assert result.error_code == "empty_description"
        assert result.candidates == []
        # deterministic input error: no pointless retries at cheaper tiers
        assert len(result.attempts) == 1


class TestDegradationLadder:
    def test_synthesis_fault_falls_back_to_rules_only(self):
        service = TranslationService(
            make_payroll(),
            faults=FaultPlan([FaultSpec("synthesis", "raise")]),
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert result.ok
        assert result.degraded
        assert result.tier == "rules_only"
        assert [a.tier for a in result.attempts] == [
            "full", "reduced", "rules_only"
        ]
        assert [a.error_code for a in result.attempts] == [
            "fault_injected", "fault_injected", None
        ]
        assert result.candidates

    def test_transient_fault_recovers_at_second_tier(self):
        service = TranslationService(
            make_payroll(),
            faults=FaultPlan([FaultSpec("rules", "raise", times=1)]),
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert result.ok and result.degraded
        assert result.tier == "reduced"
        assert [a.tier for a in result.attempts] == ["full", "reduced"]

    @pytest.mark.parametrize(
        "stage", ["tokenize", "seeds", "rules", "synthesis", "ranking"]
    )
    def test_any_single_stage_fault_never_raises(self, stage):
        """The acceptance contract: a persistent fault in any one pipeline
        stage yields candidates or a structured error — never an
        exception."""
        service = TranslationService(
            make_payroll(), faults=FaultPlan([FaultSpec(stage, "raise")])
        )
        result = service.translate(RUNNING_EXAMPLE)
        if result.ok:
            assert result.candidates and result.degraded
        else:
            assert result.error_code == "fault_injected"
            assert result.candidates == []

    @pytest.mark.parametrize(
        "stage", ["tokenize", "seeds", "rules", "synthesis", "ranking"]
    )
    def test_runtime_bug_in_any_stage_becomes_internal_error(self, stage):
        service = TranslationService(
            make_payroll(),
            faults=FaultPlan([FaultSpec(stage, "raise", error="runtime")]),
        )
        result = service.translate(RUNNING_EXAMPLE)
        if not result.ok:
            assert result.error_code == "internal_error"

    def test_all_tiers_fault_gives_structured_error(self):
        service = TranslationService(
            make_payroll(), faults=FaultPlan([FaultSpec("seeds", "raise")])
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert not result.ok
        assert result.error_code == "fault_injected"
        assert result.tier is None
        assert len(result.attempts) == 3


class TestDeadlines:
    def test_generous_deadline_not_degraded(self):
        service = TranslationService(make_payroll(), deadline=30.0)
        result = service.translate(RUNNING_EXAMPLE)
        assert result.ok and not result.degraded
        assert result.top.excel(service.workbook) == RUNNING_ANSWER

    def test_slow_stage_degrades_but_answers(self):
        """A 20 ms injected delay per synthesis call blows a 100 ms
        deadline at the full tier; the service must still answer (anytime
        candidates or a cheaper tier), never raise."""
        service = TranslationService(
            make_payroll(),
            deadline=0.1,
            faults=FaultPlan([FaultSpec("synthesis", "delay", delay=0.02)]),
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert result.ok
        assert result.degraded
        assert result.candidates

    def test_impossible_deadline_structured_error_or_candidates(self):
        service = TranslationService(make_payroll(), deadline=0.0)
        result = service.translate(RUNNING_EXAMPLE)
        assert isinstance(result.elapsed, float)
        if not result.ok:
            assert result.error_code == "deadline_exhausted"
        assert len(result.attempts) == 3

    def test_derivation_cap_triggers_anytime(self):
        workbook = make_payroll()
        probe = Budget()
        Translator(workbook).translate(RUNNING_EXAMPLE, budget=probe)
        service = TranslationService(
            workbook, max_derivations=probe.spent_derivations - 5
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert result.ok
        assert result.degraded and result.anytime
        assert result.tier == "full"
        assert result.top.excel(workbook) == RUNNING_ANSWER
        assert result.attempts[0].exhausted


class TestSheetChanges:
    """One service answers for the sheet as it is now, not as it was when
    the service first translated against it."""

    def test_table_write_reaches_the_same_service(self):
        """Fig. 1: once every barista is a chef, "the baristas" names no
        value, and the filter goes as it does for a fresh service."""
        workbook = make_payroll()
        service = TranslationService(workbook)
        sentence = "sum the totalpay for the baristas"
        before = service.translate(sentence).top.program
        assert str(before) == "Sum(totalpay, GetTable(), Eq(title, barista))"
        table = workbook.default_table
        j = table.column_index("title")
        for i in range(table.n_rows):
            if table.cell(i, j).value.payload.strip().lower() == "barista":
                workbook.set_value(
                    table.address_of(i, j), CellValue.text("chef")
                )
        after = service.translate(sentence).top.program
        assert str(after) == "Sum(totalpay, GetTable(), True)"
        assert after == TranslationService(workbook).translate(sentence).top.program

    def test_scratch_write_retypes_a_cell_reference(self):
        """K2 is blank, so it types as a NUMBER and cannot be ordered
        against the currency column; once K2 holds a currency the same
        service must see the comparison a fresh service sees."""
        workbook = make_payroll()
        service = TranslationService(workbook)
        sentence = "sum the totalpay where the totalpay is more than K2"
        checker = service.translator_for(service.tiers[0]).checker
        before = service.translate(sentence).top.program
        assert checker.type_of(ast.CellRef("K2")).elem is ValueType.NUMBER
        assert "K2" not in str(before)
        workbook.set_value("K2", CellValue.currency(300))
        after = service.translate(sentence).top.program
        assert service.translator_for(service.tiers[0]).checker is checker
        assert checker.type_of(ast.CellRef("K2")).elem is ValueType.CURRENCY
        assert str(after) == "Sum(totalpay, GetTable(), Gt(totalpay, K2))"
        assert after == TranslationService(workbook).translate(sentence).top.program


class TestSessionAndEvalkitWiring:
    def test_session_reports_diagnostics(self):
        from repro.session import NLyzeSession

        session = NLyzeSession(make_payroll())
        step = session.ask(RUNNING_EXAMPLE)
        assert step.diagnostics is not None
        assert step.diagnostics.ok and not step.diagnostics.degraded
        assert step.views[0].excel == RUNNING_ANSWER

    def test_session_survives_faulty_synthesis(self):
        from repro.session import NLyzeSession

        session = NLyzeSession(make_payroll())
        # The session keeps its service for life, so arming it arms asks.
        session._service.faults = FaultPlan([FaultSpec("synthesis", "raise")])
        step = session.ask(RUNNING_EXAMPLE)
        assert step.diagnostics.degraded
        assert step.diagnostics.tier == "rules_only"

    def test_evaluate_batch_under_deadline_records_degradation(self):
        from repro.dataset import Corpus
        from repro.evalkit import TaskOracle, evaluate_batch

        corpus = Corpus.default()
        oracle = TaskOracle()
        board = evaluate_batch(
            corpus.test[:6], oracle=oracle, deadline=30.0
        )
        assert board.n == 6
        assert board.error_rate == 0.0
        assert 0.0 <= board.degraded_rate <= 1.0
        assert board.percentile_seconds(0.5) <= board.percentile_seconds(0.95)


class ManualClock:
    """A clock advanced explicitly by the test."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TickingClock:
    """A clock where *every* read costs ``step`` seconds — any deadline
    is blown before real work happens, deterministically."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestLadderDedupe:
    def test_synthesis_free_base_drops_redundant_rules_only(self):
        # reduced already equals rules_only when synthesis is off at the
        # base: re-running the identical config would only burn deadline
        tiers = degradation_ladder(TranslatorConfig(use_synthesis=False))
        assert [t.name for t in tiers] == ["full", "reduced"]

    def test_no_rules_means_no_rules_only_rung(self):
        tiers = degradation_ladder(TranslatorConfig(use_rules=False))
        assert [t.name for t in tiers] == ["full", "reduced"]
        assert all(t.config.use_rules is False for t in tiers)

    def test_floor_knobs_collapse_reduced_into_full(self):
        config = TranslatorConfig(
            beam_size=24, synth_max_new=16, max_alignments=4
        )
        tiers = degradation_ladder(config)
        assert [t.name for t in tiers] == ["full", "rules_only"]

    def test_floor_knobs_without_synthesis_collapse_to_one_tier(self):
        config = TranslatorConfig(
            beam_size=24, synth_max_new=16, max_alignments=4,
            use_synthesis=False,
        )
        tiers = degradation_ladder(config)
        assert [t.name for t in tiers] == ["full"]

    def test_deduped_ladder_still_translates(self):
        service = TranslationService(
            make_payroll(), config=TranslatorConfig(use_synthesis=False)
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert result.ok and not result.degraded
        assert result.tier == "full"
        # rules alone cannot stack both conditions, but still answer
        assert result.top.excel(service.workbook).startswith("=SUM")


class TestThreadSafety:
    def test_translator_for_builds_one_instance_under_contention(self):
        import threading

        service = TranslationService(make_payroll())
        tier = service.tiers[0]
        n = 8
        barrier = threading.Barrier(n)
        seen: list[object] = []

        def hit():
            barrier.wait()
            seen.append(service.translator_for(tier))

        threads = [threading.Thread(target=hit) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(seen) == n
        assert all(translator is seen[0] for translator in seen)
        assert len(service._translators) == 1

    def test_concurrent_translate_is_consistent(self):
        import threading

        service = TranslationService(make_payroll())
        errors: list[BaseException] = []
        answers: list[str] = []
        lock = threading.Lock()

        def work():
            try:
                for _ in range(3):
                    result = service.translate(RUNNING_EXAMPLE)
                    assert result.ok
                    formula = result.top.excel(service.workbook)
                    with lock:
                        answers.append(formula)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert errors == []
        assert len(answers) == 18
        assert set(answers) == {RUNNING_ANSWER}

    def test_concurrent_sentences_of_different_lengths(self):
        # Alignment charts are per translation: a chart leaked between
        # threads would answer one sentence with another's alignments.
        # The 18-token sentence also grows its chart's horizon.
        import sys
        import threading

        sentences = [
            "sum the hours",
            "count the chefs in downtown",
            "hours plus othours for the cashier",
            RUNNING_EXAMPLE,
            "the maximum totalpay of the employees whose title is chef"
            " and whose location is downtown",
            "what is the total of the hours and the othours for the"
            " baristas who work in capitol hill",
        ]
        service = TranslationService(make_payroll())

        def ranking(sentence):
            result = service.translate(sentence)
            assert result.ok
            return [(str(c.program), repr(c.score)) for c in result.candidates]

        sequential = {s: ranking(s) for s in sentences}
        errors: list[BaseException] = []
        answers: list[tuple[str, list]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(len(sentences))

        def work(sentence):
            try:
                barrier.wait()
                for _ in range(3):
                    got = ranking(sentence)
                    with lock:
                        answers.append((sentence, got))
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(s,)) for s in sentences
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-translation
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(answers) == 3 * len(sentences)
        for sentence, got in answers:
            assert got == sequential[sentence], sentence


class TestDeadlineExhaustedDeterministic:
    def test_ticking_clock_exhausts_every_tier(self):
        service = TranslationService(
            make_payroll(), deadline=0.5, clock=TickingClock(step=1.0)
        )
        result = service.translate(RUNNING_EXAMPLE)
        assert not result.ok
        assert result.error_code == "deadline_exhausted"
        assert result.tier is None
        assert result.degraded and not result.anytime
        assert result.candidates == []
        assert len(result.attempts) == len(service.tiers)
        assert all(a.exhausted for a in result.attempts)
        assert all(a.candidates == 0 for a in result.attempts)
        assert "500 ms" in result.error


class TestBudgetSlicing:
    def test_even_split_and_last_tier_inherits_remainder(self):
        clock = ManualClock()
        service = TranslationService(make_payroll(), deadline=3.0, clock=clock)
        assert len(service.tiers) == 3

        first = service._budget_for(0, start=0.0)
        assert first.deadline == pytest.approx(1.0)  # 3.0 remaining / 3 tiers

        clock.advance(1.0)
        second = service._budget_for(1, start=0.0)
        assert second.deadline == pytest.approx(1.0)  # 2.0 remaining / 2 tiers

        clock.advance(1.5)  # second tier overran its slice
        last = service._budget_for(2, start=0.0)
        assert last.deadline == pytest.approx(0.5)  # full remainder, no split

    def test_zero_remaining_is_exhausted_not_negative(self):
        clock = ManualClock()
        service = TranslationService(make_payroll(), deadline=1.0, clock=clock)
        clock.advance(5.0)  # way past the deadline before the last tier
        budget = service._budget_for(len(service.tiers) - 1, start=0.0)
        assert budget.deadline == 0.0  # clamped, never negative
        clock.advance(0.001)
        assert budget.exceeded("test")
        assert budget.exhausted

    def test_no_deadline_gives_unlimited_budget(self):
        service = TranslationService(make_payroll())
        assert service._budget_for(0, start=0.0).unlimited
