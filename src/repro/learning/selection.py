"""Rule selection and scoring (paper §3.3.1).

From the over-approximated candidate set:

* each rule's **goodness** is ``pos² / (pos + neg)``, where pos counts
  training examples the rule translated correctly (it applied and one of
  its instantiations matches the gold subprogram) and neg counts examples
  where it applied but none matched;
* rules below a goodness floor are discarded, as are rules *subsumed* by a
  more generally applicable rule with at least the same goodness;
* surviving rules receive a Naive-Bayes-style score estimate — the
  Laplace-smoothed probability that an application is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl.ast import intern_scope
from ..dsl.types import TypeChecker
from ..evalkit.canonical import canonicalize
from ..translate.context import SheetContext
from ..translate.rule_translator import RuleTranslator
from ..translate.rules import Rule, RuleSet
from ..translate.tokenizer import tokenize
from .extraction import TrainingExample

_GOODNESS_FLOOR = 0.5


@dataclass
class RuleStats:
    """Per-rule application statistics over the training set."""

    rule: Rule
    pos: set[int] = field(default_factory=set)
    neg: set[int] = field(default_factory=set)

    @property
    def applied(self) -> set[int]:
        return self.pos | self.neg

    @property
    def goodness(self) -> float:
        applied = len(self.pos) + len(self.neg)
        if applied == 0:
            return 0.0
        return len(self.pos) ** 2 / applied

    @property
    def naive_bayes_score(self) -> float:
        """Laplace-smoothed correctness probability, clipped to [0.3, 0.95]
        so learned rules slot into the same score regime as the base set."""
        p = (len(self.pos) + 1) / (len(self.pos) + len(self.neg) + 2)
        return min(max(p, 0.3), 0.95)


def _seed_tmap(tokens, ctx: SheetContext) -> dict:
    """A keyword-seed-only TMap so span holes have binding candidates
    during rule scoring (atoms, implicit filters, lookups) — a cheap stand-
    in for the full pipeline the paper re-runs each pruning iteration."""
    from ..translate.seeds import column_seeds, literal_seeds, value_seeds

    n = len(tokens)
    tmap: dict[tuple[int, int], list] = {}
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            derivs = []
            if width == 1:
                derivs += literal_seeds(tokens[i], i)
            derivs += column_seeds(ctx, tokens, i, j, 0)
            derivs += value_seeds(ctx, tokens, i, j, 0)
            if width >= 2:
                derivs = tmap[(i, j - 1)] + tmap[(i + 1, j)] + derivs
            seen: dict = {}
            for d in derivs:
                seen.setdefault(d.key(), d)
            tmap[(i, j)] = list(seen.values())
    return tmap


def score_rules(
    rules: list[Rule], examples: list[TrainingExample]
) -> list[RuleStats]:
    """Apply each rule to each example (over every sentence span) and count
    correct / incorrect applications.

    An application is *correct* when one of the produced expressions equals
    (canonically) a subexpression of the gold program.
    """
    stats = [RuleStats(rule=r) for r in rules]
    contexts: dict[int, tuple[SheetContext, TypeChecker]] = {}
    for index, example in enumerate(examples):
        key = id(example.workbook)
        if key not in contexts:
            contexts[key] = (
                SheetContext(example.workbook),
                TypeChecker(example.workbook, content_check=True),
            )
        ctx, checker = contexts[key]
        # The span maps dedup on interned identity (``Derivation.key``),
        # and the scope's entry is where the intern table is trimmed.
        with intern_scope():
            tokens = tokenize(example.text)
            tmap = _seed_tmap(tokens, ctx)
            gold_parts = {
                canonicalize(node, example.workbook)
                for node in example.program.walk()
            }
            for st in stats:
                translator = RuleTranslator(RuleSet([st.rule]), ctx, checker)
                produced = []
                n = len(tokens)
                for width in range(1, n + 1):
                    for i in range(0, n - width + 1):
                        produced.extend(translator.translate_span(
                            tokens, i, i + width, tmap
                        ))
                    if produced:
                        break  # the smallest applying span decides
                if not produced:
                    continue
                correct = any(
                    _matches_gold(d.expr, gold_parts, example)
                    for d in produced
                )
                if correct:
                    st.pos.add(index)
                else:
                    st.neg.add(index)
    return stats


def _matches_gold(expr, gold_parts, example: TrainingExample) -> bool:
    """A complete production must equal a gold subexpression; a partial
    production (open holes, to be filled by synthesis) counts as correct
    when some gold subexpression unifies with it."""
    from ..dsl.holes import is_complete
    from .extraction import unify

    rewritten = canonicalize(expr, example.workbook)
    if is_complete(rewritten):
        return rewritten in gold_parts
    return any(unify(part, rewritten) is not None for part in gold_parts)


def prune(stats: list[RuleStats]) -> list[RuleStats]:
    """Drop low-goodness rules, then subsumed rules.

    Rule A is subsumed by rule B when B produces the same expression, B
    applied (correctly) everywhere A did, and B's goodness is at least A's.
    """
    kept = [s for s in stats if s.goodness >= _GOODNESS_FLOOR and s.pos]
    survivors: list[RuleStats] = []
    for a in kept:
        subsumed = False
        for b in kept:
            if a is b or a.rule.expr != b.rule.expr:
                continue
            if a.pos < b.pos and b.goodness >= a.goodness:
                subsumed = True
                break
            if (
                a.pos == b.pos
                and b.goodness > a.goodness
            ):
                subsumed = True
                break
        if not subsumed:
            survivors.append(a)
    return survivors


def finalize(stats: list[RuleStats]) -> RuleSet:
    """The learned rule set with Naive-Bayes scores."""
    out = RuleSet()
    for st in stats:
        out.add(
            Rule(
                name=st.rule.name,
                template=st.rule.template,
                expr=st.rule.expr,
                score=st.naive_bayes_score,
            )
        )
    return out
