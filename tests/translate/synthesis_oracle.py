"""Unmemoised substitution and the per-pair synthesis loop: reference oracles.

Production memoises :func:`repro.dsl.holes.substitute` per type checker,
skips word-overlapping synthesis pairs before combining them, and builds
ProdSc from each child's stored (sum, count).  The copies here do none of
that: every substitution is recomputed, every pair goes through the
combination cascade (which retires overlapping pairs itself), openness is
read off the expression, and ProdSc and MixSc re-walk the derivation
tree.  They exist only to check production against
(``test_substitution_memo.py``).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.dsl import ast
from repro.dsl.holes import consistent, holes_of, substitute_unchecked
from repro.dsl.types import Kind, TypeChecker
from repro.errors import DslTypeError, HoleError
from repro.translate.derivation import ATOM, RULE, SYNTH, Derivation
from repro.translate.synthesis import IMPLICIT_AND_SCORE


def substitute(
    expr: ast.Expr, bindings: Mapping[int, ast.Expr], checker: TypeChecker
) -> ast.Expr | None:
    """``e[□φm ← em, ...]`` computed afresh on every call."""
    holes = {h.ident: h for h in holes_of(expr)}
    for ident, replacement in bindings.items():
        hole = holes.get(ident)
        if hole is None:
            raise HoleError(f"no hole with ident {ident} in {expr}")
        if not consistent(replacement, hole.kind):
            return None
    result = ast.intern(substitute_unchecked(expr, bindings))
    if not checker.valid(result):
        return None
    return result


def _non_column(d: Derivation) -> frozenset[int]:
    return d.used - d.used_cols


def comb_all(
    receiver: Derivation, filler: Derivation, checker: TypeChecker
) -> list[Derivation]:
    if _non_column(receiver) & _non_column(filler):
        return []
    out: list[Derivation] = []
    if holes_of(filler.expr):
        return out
    for hole in holes_of(receiver.expr):
        # Through ``substitute``: an ident that occurs twice is checked
        # against its last occurrence's restriction, not this one's.
        candidate = substitute(receiver.expr, {hole.ident: filler.expr}, checker)
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
    if _non_column(a) & _non_column(b):
        return None
    if holes_of(a.expr) or holes_of(b.expr):
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
    return Derivation(
        expr=expr,
        used=a.used | b.used,
        used_cols=a.used_cols | b.used_cols,
        kind=RULE,
        rule_score=IMPLICIT_AND_SCORE,
        rule_children=(a, b),
    )


def combine_pair(
    a: Derivation, b: Derivation, checker: TypeChecker
) -> list[Derivation]:
    if _non_column(a) & _non_column(b):
        return []
    a_open = bool(holes_of(a.expr))
    b_open = bool(holes_of(b.expr))
    produced: list[Derivation] = []
    if a_open and not b_open:
        produced += comb_all(a, b, checker)
    elif b_open and not a_open:
        produced += comb_all(b, a, checker)
    elif not a_open:
        merged = and_merge(a, b, checker) or and_merge(b, a, checker)
        if merged is not None:
            produced.append(merged)
    return produced


def synthesize(
    pool: list[Derivation],
    left: list[Derivation],
    right: list[Derivation],
    checker: TypeChecker,
    max_new: int = 96,
    max_rounds: int = 4,
) -> list[Derivation]:
    """The semi-naive closure with every pair combined (no budget)."""
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

    frontier: list[Derivation] = []
    for a in left:
        if len(created) + len(frontier) >= max_new:
            break
        for b in right:
            if a.key() == b.key():
                continue
            absorb(combine_pair(a, b, checker), frontier)
            if len(created) + len(frontier) >= max_new:
                break
    created.extend(frontier)
    everything.extend(frontier)

    for _ in range(max_rounds - 1):
        if not frontier or len(created) >= max_new:
            break
        new_round: list[Derivation] = []
        for d in frontier:
            for other in everything:
                absorb(combine_pair(d, other, checker), new_round)
                if len(created) + len(new_round) >= max_new:
                    break
            if len(created) + len(new_round) >= max_new:
                break
        created.extend(new_round)
        everything.extend(new_round)
        frontier = new_round
    return created


def node_score(d: Derivation) -> float:
    """RScore x SScore of ``d``, every child's ProdSc recomputed."""
    if d.kind == ATOM:
        return d.rule_score
    if d.rule_children:
        r = sum(
            (d.rule_score + c.rule_score) / 2 for c in d.rule_children
        ) / len(d.rule_children)
    else:
        r = d.rule_score
    s = 1.0
    for c in d.synth_children:
        s *= prod_score(c)
    return r * s


def prod_parts(d: Derivation) -> tuple[float, int]:
    """(sum of node scores, count) over the non-atom nodes of ``d``'s tree,
    in a recursive walk's order."""
    if d.kind == ATOM:
        return (0.0, 0)
    total, count = node_score(d), 1
    for c in d.rule_children + d.synth_children:
        t, n = prod_parts(c)
        total += t
        count += n
    return (total, count)


def prod_score(d: Derivation) -> float:
    """ProdSc by a full recursive walk: every node score and every child's
    (sum, count) recomputed from the tree, nothing read from storage."""
    total, count = prod_parts(d)
    return total / count if count else d.rule_score


def mix_parts(d: Derivation) -> tuple[int, int]:
    """(Swizzled, AllPairs) by a full recursive walk: for each ordered pair
    of distinct children, whether their word spans overlap, plus every
    child's own counts."""
    children = d.rule_children + d.synth_children
    swizzled = 0
    pairs = len(children) * (len(children) - 1)
    for i, a in enumerate(children):
        child_swizzled, child_pairs = mix_parts(a)
        swizzled += child_swizzled
        pairs += child_pairs
        for j, b in enumerate(children):
            if i != j and a.used and b.used and (
                min(a.used) <= max(b.used) and min(b.used) <= max(a.used)
            ):
                swizzled += 1
    return (swizzled, pairs)


def mix_score(d: Derivation) -> float:
    swizzled, pairs = mix_parts(d)
    return 1.0 if pairs == 0 else 1.0 - swizzled / pairs
