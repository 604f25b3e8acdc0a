"""Type-directed synthesis (paper Algo 2).

``Synth`` computes the closure of the expressions translated for a span's
two maximal sub-spans under all well-typed combinations:

* ``CombAll(e, e')`` substitutes ``e'`` into each hole of ``e`` (at any
  depth) whose restriction it satisfies, provided the two derivations use
  disjoint non-column word sets and the result passes ``Valid``;
* complete filter pairs additionally merge under ``And`` — the implicit
  conjunction of "capitol hill baristas"-style descriptions (keyword
  programming for a DSL whose filters compose conjunctively).

The closure is semi-naive: a pair is only recombined at a span if at least
one member is new at that span (pairs wholly inside a sub-span were already
combined there and arrive via the union), which keeps the quadratic pair
work proportional to genuinely new combinations.  It is also type-directed:
a pair is combined only when its open side has a hole that admits the
closed side's filler class, or when both sides are closed filters
(:func:`repro.dsl.types.admission`), and ``CombAll`` tries only the holes
that admit the filler.
"""

from __future__ import annotations

from ..dsl import ast
from ..dsl.holes import holes_of, substitute
from ..dsl.types import (
    FILTER_CLASS, Kind, TypeChecker, admission, filler_class,
)
from ..errors import DslTypeError
from ..runtime.budget import Budget
from ..runtime.faults import fault_point
from .derivation import RULE, SYNTH, Derivation

# Rule-equivalent weight of an implicit And between adjacent filters.
IMPLICIT_AND_SCORE = 0.75


def comb_all(
    receiver: Derivation, filler: Derivation, checker: TypeChecker
) -> list[Derivation]:
    """All single-hole substitutions of ``filler`` into ``receiver``.

    Mirrors the paper's ``CombAll``: the word-disjointness side condition
    (ignoring column words) bounds the closure, and every substitution is
    validated with ``Valid`` (through :func:`substitute`, whose memo rule
    instantiation shares).  A hole that does not admit the filler's class
    is not tried: that substitution would return None.
    """
    if receiver.word_mask & filler.word_mask:
        return []
    out: list[Derivation] = []
    if filler.is_open:
        # Substituting an open expression into another open expression
        # explodes the closure for no recall benefit; the paper's examples
        # only ever substitute closed sub-expressions.  Skip.
        return out
    cls = filler_class(filler.expr)
    for hole, admits in zip(
        holes_of(receiver.expr), admission(receiver.expr).by_hole
    ):
        if not admits & cls:
            continue
        candidate = substitute(
            receiver.expr, {hole.ident: filler.expr}, checker
        )
        if candidate is None:
            continue
        out.append(
            Derivation(
                expr=candidate,
                used=receiver.used | filler.used,
                used_cols=receiver.used_cols | filler.used_cols,
                kind=SYNTH,
                rule_score=receiver.rule_score,
                rule_children=receiver.rule_children,
                synth_children=receiver.synth_children + (filler,),
            )
        )
    return out


def and_merge(
    a: Derivation, b: Derivation, checker: TypeChecker
) -> Derivation | None:
    """Merge two complete filters with an implicit ``And``.

    Only produced in one canonical operand order so the closure does not
    generate both ``And(f, g)`` and ``And(g, f)``.
    """
    if a.word_mask & b.word_mask:
        return None
    if a.is_open or b.is_open:
        return None
    if str(a.expr) > str(b.expr):
        return None
    for d in (a, b):
        try:
            if checker.type_of(d.expr).kind is not Kind.FILTER:
                return None
        except DslTypeError:
            return None
    expr = ast.intern(ast.And(a.expr, b.expr))
    if not checker.valid(expr):
        return None
    # Implicit conjunction is closer to a (weak) rule application than to a
    # hole substitution: "capitol hill baristas" conjoins two predicates the
    # way the learned adjacency rules of the paper do, so it is scored as a
    # rule with both filters bound rather than as decaying synthesis.
    return Derivation(
        expr=expr,
        used=a.used | b.used,
        used_cols=a.used_cols | b.used_cols,
        kind=RULE,
        rule_score=IMPLICIT_AND_SCORE,
        rule_children=(a, b),
    )


def _may_combine(a: Derivation, b: Derivation) -> bool:
    """Whether a word-disjoint pair can produce anything.

    ``comb_all`` only produces when the receiver is open, the filler closed
    and some hole of the receiver admits the filler's class; ``and_merge``
    only when both are closed filters.  A pair this rejects combines to
    nothing, so skipping it changes no state.
    """
    if a.is_open:
        return not b.is_open and bool(
            admission(a.expr).mask & filler_class(b.expr)
        )
    if b.is_open:
        return bool(admission(b.expr).mask & filler_class(a.expr))
    return filler_class(a.expr) == FILTER_CLASS == filler_class(b.expr)


def _combine_pair(
    a: Derivation, b: Derivation, checker: TypeChecker
) -> list[Derivation]:
    """All combinations of one pair that :func:`_may_combine` accepts.

    ``synthesize`` retires word-overlapping pairs and the pairs
    ``_may_combine`` rejects before calling this (they produce nothing).
    Output and ordering are identical to the unconditional cascade.
    """
    if a.is_open:
        return comb_all(a, b, checker)
    if b.is_open:
        return comb_all(b, a, checker)
    merged = and_merge(a, b, checker) or and_merge(b, a, checker)
    return [] if merged is None else [merged]


def synthesize(
    pool: list[Derivation],
    left: list[Derivation],
    right: list[Derivation],
    checker: TypeChecker,
    max_new: int = 96,
    max_rounds: int = 4,
    budget: Budget | None = None,
) -> list[Derivation]:
    """Close the span's derivations under combination.

    ``pool`` holds every derivation available at this span (the union of
    the two maximal sub-spans); ``left``/``right`` hold the derivations that
    use the span's first / last word.  Round one combines only left x right
    pairs — every other pair lies inside a sub-span and was combined there
    already (semi-naive closure).  Later rounds combine each newly created
    derivation against everything.  Returns the new derivations only.

    When ``budget`` trips mid-closure the loops break and the derivations
    created so far are returned (never lost); the caller's checkpoint then
    raises and triggers the anytime path.
    """
    fault_point("synthesis")
    known: set[tuple] = {d.key() for d in pool}
    everything: list[Derivation] = list(pool)
    created: list[Derivation] = []

    def absorb(items: list[Derivation], sink: list[Derivation]) -> None:
        for item in items:
            if len(created) + len(sink) >= max_new:
                return
            key = item.key()
            if key not in known:
                known.add(key)
                sink.append(item)
                if budget is not None:
                    budget.charge()

    frontier: list[Derivation] = []
    for a in left:
        if len(created) + len(frontier) >= max_new:
            break
        if budget is not None and budget.exceeded("synthesis"):
            break
        a_key, a_mask = a.key(), a.word_mask
        for b in right:
            # An overlapping pair, or one whose types cannot combine,
            # combines to nothing, and absorbing nothing changes no state:
            # skipping it keeps the output and the ``max_new`` cut-off
            # exactly as they were.
            if (
                b.word_mask & a_mask
                or b.key() == a_key
                or not _may_combine(a, b)
            ):
                continue
            absorb(_combine_pair(a, b, checker), frontier)
            if len(created) + len(frontier) >= max_new:
                break
    created.extend(frontier)
    everything.extend(frontier)

    for _ in range(max_rounds - 1):
        if not frontier or len(created) >= max_new:
            break
        if budget is not None and budget.exceeded("synthesis"):
            break
        new_round: list[Derivation] = []
        for d in frontier:
            if budget is not None and budget.exceeded("synthesis"):
                break
            d_mask = d.word_mask
            for other in everything:
                if other.word_mask & d_mask or not _may_combine(d, other):
                    continue
                absorb(_combine_pair(d, other, checker), new_round)
                if len(created) + len(new_round) >= max_new:
                    break
            if len(created) + len(new_round) >= max_new:
                break
        created.extend(new_round)
        everything.extend(new_round)
        frontier = new_round
    return created
