"""Partial expressions: holes and substitution (paper §3.1).

A *partial expression* is a DSL expression that may contain
:class:`~repro.dsl.ast.Hole` placeholders.  Substitution
``e[□φi ← e']`` succeeds only when ``e'`` is consistent with the hole's
restriction φ and the substituted expression passes ``Valid`` — both checks
are performed by :func:`substitute`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import HoleError
from ..sheet.values import ValueType
from . import ast
from .types import TypeChecker, remember


def holes_of(expr: ast.Expr) -> tuple[ast.Hole, ...]:
    """All holes in ``expr``, in pre-order.

    Cached on the (immutable) node after the first call — ``comb_all``
    probes the same receivers and fillers across every pair of the
    synthesis closure, and with interned nodes the cache is computed once
    per distinct expression for the whole process.
    """
    cached = expr.__dict__.get("_holes")
    if cached is not None:
        return cached
    holes = tuple(node for node in expr.walk() if isinstance(node, ast.Hole))
    object.__setattr__(expr, "_holes", holes)
    return holes


def hole_idents(expr: ast.Expr) -> set[int]:
    return {h.ident for h in holes_of(expr)}


def is_complete(expr: ast.Expr) -> bool:
    """True when ``expr`` contains no holes."""
    return not any(isinstance(node, ast.Hole) for node in expr.walk())


def consistent(replacement: ast.Expr, kind: ast.HoleKind) -> bool:
    """Is ``replacement`` consistent with hole restriction ``kind``?

    G admits anything; L admits numeric/currency literals and cell
    references; C admits column references; V admits sheet values (non-
    numeric literals such as text and dates).
    """
    if kind is ast.HoleKind.GENERAL:
        return True
    if kind is ast.HoleKind.LITERAL:
        if isinstance(replacement, ast.CellRef):
            return True
        return isinstance(replacement, ast.Lit) and replacement.value.type in (
            ValueType.NUMBER,
            ValueType.CURRENCY,
            ValueType.DATE,
        )
    if kind is ast.HoleKind.COLUMN:
        return isinstance(replacement, ast.ColumnRef)
    # VALUE: a value appearing in the sheet (text / date / bool).
    return isinstance(replacement, ast.Lit) and replacement.value.type in (
        ValueType.TEXT,
        ValueType.DATE,
        ValueType.BOOL,
    )


def substitute_unchecked(
    expr: ast.Expr, bindings: Mapping[int, ast.Expr]
) -> ast.Expr:
    """Structurally replace every hole whose ident is bound.

    No restriction or validity checking — callers that need the paper's ∆
    side condition use :func:`substitute`.
    """
    if isinstance(expr, ast.Hole):
        return bindings.get(expr.ident, expr)
    children = expr.children()
    if not children:
        return expr
    new_children = tuple(substitute_unchecked(c, bindings) for c in children)
    if new_children == children:
        return expr
    return expr.replace_children(new_children)


_UNSEEN = object()


def substitute(
    expr: ast.Expr,
    bindings: Mapping[int, ast.Expr],
    checker: TypeChecker,
) -> ast.Expr | None:
    """The paper's (multi-)substitution ``e[□φm ← em, ..., □φn ← en]``.

    Returns the substituted expression, or ``None`` when any binding is
    inconsistent with its hole's restriction or the result fails ``Valid``.
    Raises :class:`HoleError` if a binding names a hole not present in
    ``expr`` (a bug in the caller, not a translation failure).

    The verdict is memoised per (expression, bindings) in ``checker``'s
    substitution table: rule instantiation and CombAll repeat the same
    substitutions at span after span.  A ``HoleError`` is never cached, so
    every such call raises.
    """
    # One flat tuple (expression, idents..., replacements...): the table
    # holds tens of thousands of keys, and nested pair tuples would more
    # than double their memory.
    key = (expr, *bindings, *bindings.values())
    verdict = checker.substitutions.get(key, _UNSEEN)
    if verdict is _UNSEEN:
        verdict = _substitute(expr, bindings, checker)
        remember(checker.substitutions, key, verdict)
    return verdict


def _substitute(
    expr: ast.Expr,
    bindings: Mapping[int, ast.Expr],
    checker: TypeChecker,
) -> ast.Expr | None:
    holes = {h.ident: h for h in holes_of(expr)}
    for ident, replacement in bindings.items():
        hole = holes.get(ident)
        if hole is None:
            raise HoleError(f"no hole with ident {ident} in {expr}")
        if not consistent(replacement, hole.kind):
            return None
    # Interned, so the Valid probe and every later lookup of the result are
    # identity-backed.
    result = ast.intern(substitute_unchecked(expr, bindings))
    if not checker.valid(result):
        return None
    return result


def fresh_idents(exprs: Iterable[ast.Expr], start: int = 1) -> int:
    """The first hole ident not used by any expression in ``exprs`` (used
    when composing partial expressions that must not collide)."""
    used = set()
    for e in exprs:
        used.update(hole_idents(e))
    ident = start
    while ident in used:
        ident += 1
    return ident


def renumber(expr: ast.Expr, offset: int) -> ast.Expr:
    """Shift every hole ident by ``offset`` (collision avoidance when a rule
    expression is embedded into another partial expression)."""
    if isinstance(expr, ast.Hole):
        return ast.Hole(expr.ident + offset, expr.kind)
    children = expr.children()
    if not children:
        return expr
    return expr.replace_children(tuple(renumber(c, offset) for c in children))
