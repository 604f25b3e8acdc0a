"""The interactive programming model (paper §4).

A :class:`NLyzeSession` wraps a workbook with the add-in's behaviour:

* ``ask`` translates a description into an annotated candidate list (up to
  three candidates above a confidence threshold, like the UI);
* ``accept`` executes the chosen candidate, mutating the workbook — the
  live-programming step model;
* ``run`` is ask-then-accept-top for scripted use;
* the session records every accepted step, and ``replay`` re-executes the
  program sequence (e.g. after editing input values), which is what makes
  a sequence of steps behave like a persistent script.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl import ProgramResult, paraphrase
from ..dsl.evaluator import Evaluator
from ..dsl.excel import ExcelEmitter
from ..errors import TranslationError
from ..runtime.service import ServiceResult, TranslationService
from ..sheet import Workbook
from ..translate import Candidate, TranslatorConfig
from .annotate import WordAnnotation, annotate, render_annotations

MAX_SHOWN = 3
CONFIDENCE_THRESHOLD = 0.02


@dataclass
class CandidateView:
    """One row of the candidate list: annotations + formula + paraphrase."""

    candidate: Candidate
    annotations: list[WordAnnotation]
    excel: str
    english: str

    def render(self) -> str:
        annotated = render_annotations(self.annotations)
        return (
            f"{annotated}\n"
            f"    {self.excel}\n"
            f"    “{self.english}”  (score {self.candidate.score:.3f})"
        )


@dataclass
class Step:
    """One ask: the description and the candidates offered."""

    description: str
    views: list[CandidateView]
    accepted: Candidate | None = None
    result: ProgramResult | None = None
    diagnostics: ServiceResult | None = None

    def render(self) -> str:
        lines = [f"> {self.description}"]
        for i, view in enumerate(self.views, start=1):
            body = view.render().replace("\n", "\n   ")
            lines.append(f"{i}. {body}")
        if not self.views:
            lines.append("   (no interpretation found)")
        if self.diagnostics is not None and self.diagnostics.degraded:
            lines.append(
                f"   [degraded: tier {self.diagnostics.tier}, "
                f"{self.diagnostics.elapsed * 1000:.0f} ms]"
            )
        return "\n".join(lines)


@dataclass
class NLyzeSession:
    """Interactive NL programming over one workbook.

    Every ask is routed through the runtime
    :class:`~repro.runtime.service.TranslationService`, so sessions inherit
    the never-crash/degradation guarantees; ``deadline`` (seconds, optional)
    bounds each translation's wall clock.  Without a deadline the service
    is behaviour-identical to calling the translator directly.
    """

    workbook: Workbook
    config: TranslatorConfig | None = None
    deadline: float | None = None
    tracer: object | None = None  # a repro.obs Tracer, threaded into asks
    steps: list[Step] = field(default_factory=list)
    _service: TranslationService | None = field(default=None, repr=False)

    _initial: Workbook | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._initial = self.workbook.clone()
        # One service for the session's life: it rebuilds its translators
        # when table content changes, and their type checkers drop what
        # they read from cells outside the tables when those change.
        self._service = TranslationService(self.workbook, config=self.config)

    # -- asking ----------------------------------------------------------------

    def ask(self, description: str) -> Step:
        """Translate a description into a candidate list (no execution)."""
        outcome = self._service.translate(
            description, tracer=self.tracer, deadline=self.deadline
        )
        if not outcome.ok and not outcome.candidates:
            raise TranslationError(
                outcome.error or "translation failed",
                code=outcome.error_code,
            )
        candidates = outcome.candidates
        shown = [
            c for c in candidates[:MAX_SHOWN]
            if c.score >= CONFIDENCE_THRESHOLD
        ] or candidates[:1]
        emitter = ExcelEmitter(self.workbook)
        ctx = self._service.context
        views = [
            CandidateView(
                candidate=c,
                annotations=annotate(c, ctx),
                excel=emitter.emit(c.program),
                english=paraphrase(c.program),
            )
            for c in shown
        ]
        step = Step(
            description=description, views=views, diagnostics=outcome
        )
        self.steps.append(step)
        return step

    # -- executing ----------------------------------------------------------------

    def accept(self, step: Step, choice: int = 0) -> ProgramResult:
        """Execute the chosen candidate of a step (default: top ranked)."""
        if not step.views:
            raise TranslationError(
                f"no candidates for {step.description!r}"
            )
        candidate = step.views[choice].candidate
        result = Evaluator(self.workbook).run(candidate.program)
        step.accepted = candidate
        step.result = result
        self._advance_cursor(result)
        return result

    def _advance_cursor(self, result: ProgramResult) -> None:
        """After a value lands, move the cursor below it (the Excel enter
        gesture), so consecutive steps fill consecutive cells."""
        if result.kind in ("scalar", "vector") and result.addresses:
            last = max(result.addresses)
            from ..sheet import CellAddress

            self.workbook.set_cursor(CellAddress(last.col, last.row + 1))

    def run(self, description: str, choice: int = 0) -> ProgramResult:
        """Ask and accept in one call."""
        return self.accept(self.ask(description), choice)

    def undo(self) -> None:
        """Retract the most recent accepted step.

        The workbook rolls back to its pre-session snapshot and the
        remaining accepted steps replay in order, so every side effect of
        the undone step (placed values, formats, selections, cursor moves)
        disappears while later state stays consistent.
        """
        last = None
        for step in reversed(self.steps):
            if step.accepted is not None:
                last = step
                break
        if last is None:
            raise TranslationError("nothing to undo")
        last.accepted = None
        last.result = None
        self.workbook.restore(self._initial)
        evaluator = Evaluator(self.workbook)
        for step in self.steps:
            if step.accepted is not None:
                step.result = evaluator.run(step.accepted.program)
                self._advance_cursor(step.result)

    # -- the step program ------------------------------------------------------------

    @property
    def program(self) -> list:
        """The accepted DSL programs, in order."""
        return [s.accepted.program for s in self.steps if s.accepted]

    def replay(self) -> list[ProgramResult]:
        """Re-execute the accepted program sequence against the current
        workbook state ("the sequence of programs produced can be
        automatically executed to update the output values if the user
        changes any input")."""
        evaluator = Evaluator(self.workbook)
        return [evaluator.run(p) for p in self.program]

    def transcript(self) -> str:
        return "\n\n".join(step.render() for step in self.steps)
