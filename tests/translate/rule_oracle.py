"""The unfiltered rule-instantiation loop: a reference oracle.

Production ``RuleTranslator._apply`` drops a bound hole's options whose
filler class the hole does not admit before forming the product of
options, and counts each admitted combination as an attempt at its ordinal
in the full product.  The copy here does neither: it substitutes every
combination of the full product, counting attempts as it goes, through the
unmemoised ``substitute`` of ``synthesis_oracle.py``.  It exists only to
check production against (``test_type_directed_closure.py``).
"""

from __future__ import annotations

import itertools

from repro.dsl.holes import holes_of
from repro.translate.derivation import RULE, Derivation
from repro.translate.rule_translator import (
    _MAX_ATTEMPTS,
    _MAX_COMBINATIONS,
    RuleTranslator,
)

from . import synthesis_oracle


def apply(
    translator: RuleTranslator,
    rule,
    alignment: tuple,
    fragment,
    offset: int,
    tmap: dict,
    memo: dict,
    tried: list | None = None,
) -> list[Derivation]:
    """``translator._apply`` over the full product of binding options.
    ``tried`` (optional) receives every (expression, bindings) substituted."""
    range_by_ident = {
        pattern.ident: alignment[k]
        for k, pattern in enumerate(rule.template)
        if pattern.ident is not None
    }
    options = []
    seen_idents: set[int] = set()
    for hole in holes_of(rule.expr):
        if hole.ident in seen_idents:
            continue
        seen_idents.add(hole.ident)
        rng = range_by_ident.get(hole.ident)
        if rng is None:
            continue
        choices = translator._options(hole, rng, fragment, offset, tmap, memo)
        if not choices:
            return []
        options.append((hole.ident, choices))
    pattern_used = frozenset(
        translator._pattern_used(rule, alignment, fragment, offset)
    )

    out: list[Derivation] = []
    idents = [ident for ident, _ in options]
    pools = [choices for _, choices in options]
    attempts = 0
    for combo in itertools.product(*pools):
        attempts += 1
        if attempts > _MAX_ATTEMPTS or len(out) >= _MAX_COMBINATIONS:
            break
        bindings = dict(zip(idents, (d.expr for d in combo)))
        if tried is not None:
            tried.append((rule.expr, bindings))
        expr = synthesis_oracle.substitute(
            rule.expr, bindings, translator.checker
        )
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
                rule_children=tuple(combo),
            )
        )
    return out
