"""The type-directed closure changes no answer.

Rule instantiation and synthesis skip a binding whose filler class its
hole does not admit (``repro.dsl.types.admission``) before substituting
it.  Each skip must be one ``substitute`` would reject.  These check
production against the unfiltered loops over the whole Table 2 test split:

* ``RuleTranslator._apply`` equals the unfiltered product loop
  (``rule_oracle.py``) on every call the DP makes, and on a synthetic
  three-hole rule with 16 options per hole, where ``_MAX_ATTEMPTS`` binds;
* every (expression, bindings) pair the unfiltered loops substitute and
  admission rejects is one ``substitute`` rejects too, and every closed
  pair that is not two filters is one ``and_merge`` rejects.

``synthesize`` is checked against the unfiltered closure of
``synthesis_oracle.py`` in ``test_substitution_memo.py``.  Synthesis pairs
are recorded here where production considers them: the closure is the
same, so the parent's CombAll substituted the closed side into every hole
of the open side of each of them.

One soundness finding that admission reproduces rather than fixes is
pinned as a strict xfail: rule instantiation captures hole idents.
"""

from __future__ import annotations

import functools

import pytest

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.dsl import TypeChecker, ast
from repro.dsl.holes import holes_of
from repro.sheet import CellValue
from repro.translate import synthesis
from repro.translate.context import SheetContext
from repro.translate.derivation import Derivation
from repro.translate.rule_translator import _MAX_ATTEMPTS, RuleTranslator
from repro.translate.rules import RuleSet, make_rule
from repro.translate.tokenizer import tokenize
from repro.translate.translator import Translator

from ..dsl.test_admission import admits
from . import rule_oracle, synthesis_oracle

_H = ast.Hole
_C = ast.HoleKind.COLUMN
_G = ast.HoleKind.GENERAL


@functools.lru_cache(maxsize=None)
def _sheet(sheet_id):
    return build_sheet(sheet_id)


def _rule_signature(derivations):
    return [
        (
            d.key(), d.used_cols, d.kind, d.rule_score.hex(),
            tuple(map(id, d.rule_children)),
        )
        for d in derivations
    ]


class _SplitRun:
    """One translation of the test split, one translator per sheet, with
    every ``_apply`` call repeated through the oracle at call time (same
    arguments, same options memo), and every synthesis pair recorded."""

    def __init__(self) -> None:
        self.apply_calls = 0
        self.apply_mismatches: list[tuple] = []
        # Per sheet, every distinct (expression, bindings) the unfiltered
        # loops substitute.
        self.tried: dict[str, dict[tuple, tuple]] = {
            s: {} for s in SHEET_ORDER
        }
        # Distinct closed pairs skipped for not being two filters, and the
        # ones ``and_merge`` merged all the same (checked as they come, so
        # no derivation outlives its translation).
        self.unmerged: set[tuple] = set()
        self.merged: list[tuple[str, str]] = []
        self._sheet_id = None
        self._checkers: dict[str, TypeChecker] = {}

    def _checker(self) -> TypeChecker:
        checker = self._checkers.get(self._sheet_id)
        if checker is None:
            checker = self._checkers[self._sheet_id] = TypeChecker(
                _sheet(self._sheet_id), content_check=True
            )
        return checker

    def _note(self, expr, bindings) -> None:
        key = (expr, *bindings, *bindings.values())
        self.tried[self._sheet_id].setdefault(key, (expr, bindings))

    def run(self) -> "_SplitRun":
        real_apply = RuleTranslator._apply
        real_may_combine = synthesis._may_combine
        run = self

        def apply(self, rule, alignment, fragment, offset, tmap, memo):
            got = real_apply(self, rule, alignment, fragment, offset, tmap, memo)
            tried: list = []
            want = rule_oracle.apply(
                self, rule, alignment, fragment, offset, tmap, memo, tried
            )
            for expr, bindings in tried:
                run._note(expr, bindings)
            run.apply_calls += 1
            if _rule_signature(got) != _rule_signature(want):
                run.apply_mismatches.append((rule.name, offset, fragment))
            return got

        def may_combine(a, b):
            verdict = real_may_combine(a, b)
            if a.is_open != b.is_open:
                receiver, filler = (a, b) if a.is_open else (b, a)
                for hole in holes_of(receiver.expr):
                    run._note(receiver.expr, {hole.ident: filler.expr})
            elif not a.is_open and not verdict:
                key = (run._sheet_id, a.expr, b.expr)
                if key not in run.unmerged:
                    run.unmerged.add(key)
                    checker = run._checker()
                    if (
                        synthesis_oracle.and_merge(a, b, checker) is not None
                        or synthesis_oracle.and_merge(b, a, checker)
                        is not None
                    ):
                        run.merged.append((str(a.expr), str(b.expr)))
            return verdict

        RuleTranslator._apply = apply
        synthesis._may_combine = may_combine
        try:
            translators = {
                s: Translator(_sheet(s)) for s in SHEET_ORDER
            }
            for d in Corpus.default().test:
                self._sheet_id = d.sheet_id
                translators[d.sheet_id].translate(d.text)
        finally:
            RuleTranslator._apply = real_apply
            synthesis._may_combine = real_may_combine
        return self


@functools.lru_cache(maxsize=None)
def _split_run() -> _SplitRun:
    return _SplitRun().run()


def test_apply_equals_the_oracle_on_every_call_on_the_split():
    run = _split_run()
    assert run.apply_calls > 50_000
    assert run.apply_mismatches == []


def test_every_binding_admission_rejects_on_the_split_fails():
    run = _split_run()
    rejected = 0
    for sheet_id, tried in run.tried.items():
        checker = TypeChecker(_sheet(sheet_id), content_check=True)
        for expr, bindings in tried.values():
            if admits(expr, bindings):
                continue
            rejected += 1
            got = synthesis_oracle.substitute(expr, bindings, checker)
            assert got is None, (sheet_id, str(expr), bindings)
    assert rejected > 10_000


def test_every_closed_pair_skipped_on_the_split_fails_to_merge():
    run = _split_run()
    assert len(run.unmerged) > 1_000
    assert run.merged == []


# -- a synthetic rule where _MAX_ATTEMPTS binds ---------------------------------


def _num(x):
    return ast.Lit(CellValue.number(x))


def _col(name, table=None):
    return ast.ColumnRef(name, table)


def _lt(column, x):
    return ast.Compare(ast.RelOp.LT, _col(column), _num(x))


def _gt(column, x):
    return ast.Compare(ast.RelOp.GT, _col(column), _num(x))


def _options(position, exprs):
    used = frozenset([position])
    return [
        Derivation(
            expr=e, used=used,
            used_cols=used if isinstance(e, ast.ColumnRef) else frozenset(),
        )
        for e in exprs
    ]


def _three_hole_case():
    """``Sum(□C1, GetTable(), And(□G2, □G3))`` with 16 options per hole.

    The full product has 4,096 combinations, so ``_MAX_ATTEMPTS`` (512)
    stops it after the first two column options.  The first is a literal
    the C hole does not admit, the second the only admitted one before
    the cut, so only 8 derivations (2 filters x 4 filters) come out.
    Counting attempts over the admitted product instead would reach
    further columns and stop at ``_MAX_COMBINATIONS``.
    """
    columns = _options(0, [
        _num(20), _col("hours"), _col("name"), _col("basepay"),
        ast.Lit(CellValue.currency(5)), _col("othours"),
        ast.Lit(CellValue.text("chef")), _col("otpay"), _col("totalpay"),
        _col("title"), _col("location"), _col("payrate", "payrates"),
        _col("otrate", "payrates"), ast.Lit(CellValue.date("2014-06-22")),
        ast.CellRef("J2"), _col("title", "payrates"),
    ])
    fillers = [_num(k) for k in range(16)]
    left = list(fillers)
    left[5], left[11] = _lt("hours", 30), _gt("othours", 2)
    right = list(fillers)
    right[2], right[7] = ast.TrueF(), _gt("hours", 10)
    right[9], right[14] = ast.Not(_lt("hours", 20)), _lt("othours", 5)
    expr = ast.Reduce(
        ast.ReduceOp.SUM, _H(1, _C), ast.GetTable(),
        ast.And(_H(2, _G), _H(3, _G)),
    )
    rule = make_rule("three_holes", "%C1 %2 %3", expr)
    workbook = _sheet("payroll")
    translator = RuleTranslator(
        RuleSet([rule]), SheetContext(workbook),
        TypeChecker(workbook, content_check=True),
    )
    memo = {
        ((0, 1), _C): columns,
        ((1, 2), _G): _options(1, left),
        ((2, 3), _G): _options(2, right),
    }
    args = (rule, ((0, 1), (1, 2), (2, 3)), tokenize("a b c"), 0, {}, memo)
    return translator, args


def test_apply_counts_skipped_combinations_as_attempts():
    translator, args = _three_hole_case()
    assert 16 ** 3 > _MAX_ATTEMPTS
    got = translator._apply(*args)
    tried: list = []
    want = rule_oracle.apply(translator, *args, tried=tried)
    assert len(tried) == _MAX_ATTEMPTS
    assert len(want) == 8
    assert {d.expr.column for d in want} == {_col("hours")}
    assert _rule_signature(got) == _rule_signature(want)


def test_apply_returns_nothing_when_a_hole_admits_no_option():
    translator, (rule, alignment, fragment, offset, tmap, memo) = (
        _three_hole_case()
    )
    memo[((1, 2), _G)] = _options(1, [_num(k) for k in range(16)])
    assert translator._apply(rule, alignment, fragment, offset, tmap, memo) == []
    assert rule_oracle.apply(
        translator, rule, alignment, fragment, offset, tmap, memo
    ) == []


# -- a soundness finding, pinned --------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="rule instantiation binds open derivations into G holes "
    "without renumbering their holes (ROADMAP item 10)",
)
def test_binding_open_derivations_keeps_hole_idents_apart():
    """``And(□G1, □G2)`` with ``Eq(□C1, □C2)`` and ``Div(□G1, □G2)``
    bound gives ``And(Eq(□C1, □C2), Div(□G1, □G2))``: filling ident 1
    then fills both of its holes and checks only □G1's restriction, so a
    text literal lands in □C1.  Each hole should keep its own ident."""
    rule = make_rule("and", "%1 and %2", ast.And(_H(1, _G), _H(2, _G)))
    workbook = _sheet("payroll")
    translator = RuleTranslator(
        RuleSet([rule]), SheetContext(workbook),
        TypeChecker(workbook, content_check=True),
    )
    memo = {
        ((0, 1), _G): _options(
            0, [ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _C))]
        ),
        ((2, 3), _G): _options(
            2, [ast.BinOp(ast.BinaryOp.DIV, _H(1, _G), _H(2, _G))]
        ),
    }
    (d,) = translator._apply(
        rule, ((0, 1), (1, 2), (2, 3)), tokenize("a and b"), 0, {}, memo
    )
    holes = holes_of(d.expr)
    assert len({h.ident for h in holes}) == len(holes), str(d.expr)

