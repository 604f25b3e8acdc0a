"""Rule-based translation of one fragment (paper Algo 3).

For every rule whose template aligns with the fragment, fill the bound
holes of the rule's partial expression:

* ``L`` holes from the literal token in the aligned range (``MakeLiteral``),
* ``V`` holes from sheet values matching the range (``MakeValue``),
* ``C`` holes via ``ResolveCol`` — a direct column-header match, the
  "column H" letter form, or the columns *containing* a matched value,
* ``G`` holes from the TMap translations of the aligned sub-span,

then substitute (with the ``Valid`` check) to produce derivations.  Holes
not bound by any template pattern stay open for the synthesis algorithm.
A binding option whose filler class its hole does not admit
(:func:`repro.dsl.types.admission`) is dropped before the combinations are
formed: every combination holding it would fail to substitute.
"""

from __future__ import annotations

import itertools
import math

from ..dsl import ast
from ..dsl.holes import holes_of, substitute
from ..dsl.types import TypeChecker, admission, filler_class
from ..runtime.budget import Budget
from ..runtime.faults import fault_point
from ..sheet import CellValue
from .alignment import AlignmentChart, CompiledTemplate, compile_template
from .context import SheetContext
from .derivation import RULE, Derivation
from .patterns import MustPat, OptPat
from .rules import Rule, RuleSet
from .seeds import _column_ref, literal_seeds
from .tokenizer import Token

_MAX_OPTIONS_PER_HOLE = 16
_MAX_COMBINATIONS = 24
_MAX_ATTEMPTS = 512

SpanMap = dict  # dict[tuple[int, int], list[Derivation]] with absolute spans


class RuleTranslator:
    """Applies a rule set to sentence fragments."""

    def __init__(
        self,
        rules: RuleSet,
        ctx: SheetContext,
        checker: TypeChecker,
        max_alignments: int = 16,
    ) -> None:
        self.rules = rules
        self.ctx = ctx
        self.checker = checker
        self.max_alignments = max_alignments
        # Compiled alignment automata, one per rule, fetched from the
        # cross-request intern table (:func:`compile_template`) so repeated
        # translator constructions — and forked workers — share them.
        # Keyed by rule identity (``self.rules`` keeps them alive); probes
        # in the DP inner loop are int-keyed dict hits, not tuple hashes.
        self._compiled: dict[int, CompiledTemplate] = {
            id(rule): compile_template(rule.template) for rule in rules
        }

    # -- entry point ----------------------------------------------------------

    def chart(self, tokens: list[Token]) -> AlignmentChart:
        """A fresh alignment chart for one translation of ``tokens``."""
        return AlignmentChart(tokens, self.ctx, self.max_alignments)

    def sentence_rules(self, tokens: list[Token]) -> list[Rule]:
        """The rules that can possibly align with *some* fragment of the
        sentence.

        Every fragment's word set is a subset of the sentence's, so a rule
        ``quick_reject``-ed against the whole sentence is rejected at every
        span — computing the live set once per sentence removes the
        per-(rule, span) template scans from the O(n²) DP inner loop.
        """
        words = frozenset(t.text for t in tokens)
        return [
            r for r in self.rules
            if not self._compiled_for(r).quick_reject(words)
        ]

    def _compiled_for(self, rule: Rule) -> CompiledTemplate:
        compiled = self._compiled.get(id(rule))
        if compiled is None:  # a rule added to the set after construction
            compiled = self._compiled[id(rule)] = compile_template(
                rule.template
            )
        return compiled

    def translate_span(
        self,
        tokens: list[Token],
        start: int,
        end: int,
        tmap: SpanMap,
        budget: Budget | None = None,
        rules: list[Rule] | None = None,
        chart: AlignmentChart | None = None,
    ) -> list[Derivation]:
        """All rule-derived derivations for ``tokens[start:end]``.

        ``rules`` (optional) restricts the scan to a precomputed live set
        (see :meth:`sentence_rules`); the default scans the full rule set.
        ``chart`` (optional, from :meth:`chart` over the same ``tokens``)
        shares alignment searches between the spans of one translation;
        without it only this span is aligned.
        A tripped ``budget`` stops the rule loop between rules; the
        derivations produced so far are returned so the anytime path can
        still rank them.
        """
        fault_point("rules")
        if chart is None:
            chart = AlignmentChart(
                tokens, self.ctx, self.max_alignments, horizon=end - start
            )
        fragment = tokens[start:end]
        fragment_words = frozenset(t.text for t in fragment)
        out: list[Derivation] = []
        compiled_by_id = self._compiled
        for rule in self.rules if rules is None else rules:
            if budget is not None and budget.exceeded("rules"):
                break
            compiled = compiled_by_id.get(id(rule)) or self._compiled_for(rule)
            if compiled.quick_reject(fragment_words):
                continue
            for alignment in chart.alignments(compiled, start, end):
                produced = self._apply(
                    rule, alignment, fragment, start, tmap, chart.options
                )
                if budget is not None:
                    budget.charge(len(produced))
                out.extend(produced)
        return out

    # -- rule application ---------------------------------------------------------

    def _apply(
        self,
        rule: Rule,
        alignment: tuple,
        fragment: list[Token],
        offset: int,
        tmap: SpanMap,
        memo: dict,
    ) -> list[Derivation]:
        range_by_ident = {
            pattern.ident: alignment[k]
            for k, pattern in enumerate(rule.template)
            if pattern.ident is not None
        }
        # Per bound ident: the admitted options, each with its index in the
        # full option list, and the full list's length.
        options: list[tuple[int, list[tuple[int, Derivation]], int]] = []
        seen_idents: set[int] = set()
        for hole, admits in zip(
            holes_of(rule.expr), admission(rule.expr).by_hole
        ):
            if hole.ident in seen_idents:
                continue  # shared ident: one binding fills every copy
            seen_idents.add(hole.ident)
            rng = range_by_ident.get(hole.ident)
            if rng is None:
                continue  # unbound: synthesis fills it later
            choices = self._options(hole, rng, fragment, offset, tmap, memo)
            admitted = [
                (k, d) for k, d in enumerate(choices)
                if admits & filler_class(d.expr)
            ]
            if not admitted:
                return []
            options.append((hole.ident, admitted, len(choices)))
        pattern_used = frozenset(
            self._pattern_used(rule, alignment, fragment, offset)
        )

        # The combinations of admitted options, in the full product's order.
        # Each counts as an attempt at its ordinal in the full product, the
        # skipped combinations included, so ``_MAX_ATTEMPTS`` stops where
        # it would if every combination were substituted.  The ordinal is
        # only read when the full product is longer than the limit.
        out: list[Derivation] = []
        idents = [ident for ident, _, _ in options]
        sizes = [size for _, _, size in options]
        capped = math.prod(sizes) > _MAX_ATTEMPTS
        for picks in itertools.product(*(a for _, a, _ in options)):
            if len(out) >= _MAX_COMBINATIONS:
                break
            if capped:
                ordinal = 0
                for (k, _), size in zip(picks, sizes):
                    ordinal = ordinal * size + k
                if ordinal >= _MAX_ATTEMPTS:
                    break
            combo = tuple(d for _, d in picks)
            bindings = dict(zip(idents, (d.expr for d in combo)))
            expr = substitute(rule.expr, bindings, self.checker)
            if expr is None:
                continue
            used = pattern_used
            used_cols = frozenset()
            for child in combo:
                used |= child.used
                used_cols |= child.used_cols
            out.append(
                Derivation(
                    expr=expr,
                    used=used,
                    used_cols=used_cols,
                    kind=RULE,
                    rule_score=rule.score,
                    rule_children=combo,
                )
            )
        return out

    def _options(
        self,
        hole: ast.Hole,
        rng: tuple[int, int],
        fragment: list[Token],
        offset: int,
        tmap: SpanMap,
        memo: dict,
    ) -> list[Derivation]:
        """The binding options of ``hole`` over the fragment range ``rng``:
        one per distinct expression (TMap holds several derivations of the
        same expression over different word sets), the best-produced,
        widest-coverage one, in coverage-weighted order — a wide-coverage
        sub-derivation is a far better binding candidate than a high-prod
        single atom.

        They depend only on the hole kind and the absolute sub-span, so
        ``memo`` (one per translation) keeps them.  A G hole is kept only
        for a span ``tmap`` already holds: over the span being built it
        finds nothing now.
        """
        span = (offset + rng[0], offset + rng[1])
        key = (span, hole.kind)
        options = memo.get(key)
        if options is not None:
            return options
        best: dict[int, tuple[float, Derivation]] = {}
        for d in self._bindings(hole, rng, fragment, offset, tmap):
            weight = d.prod_score * (1 + len(d.used))
            kept = best.setdefault(id(d.expr), (weight, d))
            if weight > kept[0]:
                best[id(d.expr)] = (weight, d)
        ranked = sorted(best.values(), key=lambda entry: -entry[0])
        options = [d for _, d in ranked[:_MAX_OPTIONS_PER_HOLE]]
        if hole.kind is not ast.HoleKind.GENERAL or span in tmap:
            memo[key] = options
        return options

    def _pattern_used(
        self, rule: Rule, alignment: tuple, fragment: list[Token], offset: int
    ) -> set[int]:
        """Absolute positions consumed by Must/Opt patterns (slack words in
        an OptPat range are *not* used — they are the ignorable words)."""
        used: set[int] = set()
        for pattern, (l, u) in zip(rule.template, alignment):
            if isinstance(pattern, MustPat):
                used.update(range(offset + l, offset + u))
            elif isinstance(pattern, OptPat):
                for k in range(l, u):
                    if fragment[k].text in pattern.words:
                        used.add(offset + k)
        return used

    # -- hole resolution --------------------------------------------------------

    def _bindings(
        self,
        hole: ast.Hole,
        rng: tuple[int, int],
        fragment: list[Token],
        offset: int,
        tmap: SpanMap,
    ) -> list[Derivation]:
        l, u = rng
        if hole.kind is ast.HoleKind.LITERAL:
            return literal_seeds(fragment[l], offset + l)
        if hole.kind is ast.HoleKind.VALUE:
            return self._make_values(fragment, l, u, offset)
        if hole.kind is ast.HoleKind.COLUMN:
            return self._resolve_col(fragment, l, u, offset)
        # GENERAL: previously computed translations of the sub-span.
        return list(tmap.get((offset + l, offset + u), ()))

    def _make_values(
        self, fragment: list[Token], l: int, u: int, offset: int
    ) -> list[Derivation]:
        words = tuple(t.text for t in fragment[l:u])
        positions = frozenset(range(offset + l, offset + u))
        out: list[Derivation] = []
        seen: set[str] = set()
        for match in self.ctx.match_value(words):
            if match.value in seen:
                continue
            seen.add(match.value)
            out.append(
                Derivation(
                    expr=ast.Lit(CellValue.text(match.value)), used=positions
                )
            )
        return out

    def _resolve_col(
        self, fragment: list[Token], l: int, u: int, offset: int
    ) -> list[Derivation]:
        words = tuple(t.text for t in fragment[l:u])
        positions = frozenset(range(offset + l, offset + u))
        out: list[Derivation] = []
        if len(words) == 2 and words[0] == "column":
            match = self.ctx.column_by_letter(words[1])
            if match is not None:
                return [
                    Derivation(
                        expr=_column_ref(self.ctx, match.table, match.column),
                        used=positions,
                        used_cols=positions,
                    )
                ]
        seen: set[tuple[str, str]] = set()
        for match in self.ctx.match_column(words):
            slot = (match.table, match.column)
            if slot in seen:
                continue
            seen.add(slot)
            out.append(
                Derivation(
                    expr=_column_ref(self.ctx, match.table, match.column),
                    used=positions,
                    used_cols=positions,
                    rule_score=0.95 if match.via_value else 1.0,
                )
            )
        return out
