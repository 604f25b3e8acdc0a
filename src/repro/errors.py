"""Exception hierarchy for the NLyze reproduction.

Every package raises exceptions derived from :class:`ReproError` so that
callers embedding the library can catch a single base class.  More specific
subclasses communicate *which* layer rejected an operation: the spreadsheet
substrate, the DSL type system, the evaluator, or the translator.

Every error also carries a machine-readable ``code`` (a stable snake_case
identifier) so services and UIs can branch on the failure kind without
parsing English messages.  Each class declares a default; raisers can
override per-instance with the ``code=`` keyword::

    raise TranslationError("description too long", code="description_too_long")
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""

    code: str = "repro_error"

    def __init__(self, *args, code: str | None = None) -> None:
        super().__init__(*args)
        if code is not None:
            self.code = code


class SheetError(ReproError):
    """Raised by the spreadsheet substrate (bad address, unknown table...)."""

    code = "sheet_error"


class UnknownTableError(SheetError):
    """A referenced table does not exist in the workbook."""

    code = "unknown_table"

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(SheetError):
    """A referenced column does not exist in the table."""

    code = "unknown_column"

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"table {table!r} has no column {column!r}")
        self.table = table
        self.column = column


class AddressError(SheetError):
    """An A1-style cell address could not be parsed or is out of range."""

    code = "bad_address"


class DslTypeError(ReproError):
    """An expression failed the DSL ``Valid`` type check."""

    code = "type_error"


class EvaluationError(ReproError):
    """A well-typed program still failed at run time (e.g. lookup miss)."""

    code = "evaluation_error"


class HoleError(ReproError):
    """An operation on partial expressions was illegal (e.g. evaluating a
    program that still contains holes, or substituting an expression that is
    inconsistent with a hole's restriction)."""

    code = "hole_error"


class TranslationError(ReproError):
    """The translation pipeline was invoked with invalid inputs."""

    code = "translation_error"


class RuleParseError(TranslationError):
    """A rule template written in the concrete rule syntax failed to parse."""

    code = "rule_parse_error"


class LearningError(ReproError):
    """The rule-learning pipeline received inconsistent training data."""

    code = "learning_error"


class PbeError(ReproError):
    """The mini Flash Fill learner could not handle its examples."""

    code = "pbe_error"


class BudgetExceededError(ReproError):
    """A cooperative translation budget (wall-clock deadline or work
    counter) ran out mid-pipeline.

    Raised only at budget checkpoints, never from arbitrary points, so the
    translator's data structures stay consistent and the anytime path can
    rank whatever complete programs exist so far.  ``stage`` names the
    pipeline stage that hit the limit.
    """

    code = "budget_exceeded"

    def __init__(self, message: str, stage: str = "") -> None:
        super().__init__(message)
        self.stage = stage


class InjectedFaultError(ReproError):
    """Deterministic failure raised by the fault-injection harness
    (:mod:`repro.runtime.faults`) to prove the service degrades instead of
    crashing.  Never raised in production configurations."""

    code = "fault_injected"

    def __init__(self, stage: str) -> None:
        super().__init__(f"injected fault at stage {stage!r}")
        self.stage = stage
