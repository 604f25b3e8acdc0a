"""Derivation histories (paper §3.1).

Every candidate expression the translator produces is wrapped in a
:class:`Derivation` recording *how* it was produced:

* ``used`` / ``used_cols`` — the paper's ``UsedW(e)`` / ``UsedCW(e)``: the
  input word positions consumed, and the subset that was consumed to produce
  column references (excluded from the synthesis disjointness check);
* ``rule_children`` / ``synth_children`` — the paper's
  ``History(e) = (rule, [er...], [es...])``: sub-derivations bound during a
  pattern-rule instantiation vs. substituted during synthesis;
* ``rule_score`` — the score of the rule (or seed) that created the node.

Score components used by the §3.4 ranking are computed bottom-up: the
production score eagerly (the DP's dedup, beam and binding order read it),
the mix statistics on first read (only the final ranking does).
"""

from __future__ import annotations

from ..dsl import ast
from ..dsl.holes import holes_of

ATOM = "atom"
RULE = "rule"
SYNTH = "synth"


class Derivation:
    """One candidate (partial) expression plus its production history.

    Identity-based equality: the translator dedups explicitly on
    :meth:`key`.  Treat an instance as immutable; the score fields are
    derived from the history when it is built.
    """

    __slots__ = (
        "expr", "used", "used_cols", "kind", "rule_score",
        "rule_children", "synth_children",
        "node_score", "prod_total", "prod_count", "prod_score",
        "word_mask", "is_open", "_key", "_mix",
    )

    def __init__(
        self,
        expr: ast.Expr,
        used: frozenset[int],
        used_cols: frozenset[int] = frozenset(),
        kind: str = ATOM,
        rule_score: float = 1.0,
        rule_children: tuple["Derivation", ...] = (),
        synth_children: tuple["Derivation", ...] = (),
    ) -> None:
        # Hash-cons the expression: every derivation created anywhere in
        # the pipeline carries a canonical node, so within one translation
        # (an ``ast.intern_scope``) equal expressions are one object.
        expr = ast.intern(expr)
        self.expr = expr
        self.used = used
        self.used_cols = used_cols
        self.kind = kind
        self.rule_score = rule_score
        self.rule_children = rule_children
        self.synth_children = synth_children
        # ``UsedW - UsedCW`` (the words the synthesis disjointness condition
        # compares, paper §3.2) as a bitmask over word positions, and whether
        # ``expr`` still has holes: ``synthesize`` reads both per pair in
        # the quadratic frontier scan.
        mask = 0
        for k in used:
            if k not in used_cols:
                mask |= 1 << k
        self.word_mask = mask
        self.is_open = bool(holes_of(expr))
        self._key = (id(expr), used)
        # ProdSc's (sum, count) over this subtree, so a parent adds its
        # children's instead of re-walking them.
        if kind == ATOM:
            self.node_score = rule_score
            self.prod_total = 0.0
            self.prod_count = 0
            self.prod_score = rule_score
        else:
            total = self.node_score = self._node_score()
            count = 1
            for c in rule_children + synth_children:
                total += c.prod_total
                count += c.prod_count
            self.prod_total = total
            self.prod_count = count
            self.prod_score = total / count
        # (Swizzled, AllPairs), computed on first read.
        self._mix: tuple[int, int] | None = None

    # -- identity -------------------------------------------------------------

    def key(self) -> tuple:
        """Dedup key: equal expressions over the same words are
        interchangeable candidates.  The expression is interned, so its
        identity stands for its structure for as long as the intern table
        is not cleared, which ``ast.intern_scope`` guarantees for one
        translation."""
        return self._key

    @property
    def children(self) -> tuple["Derivation", ...]:
        return self.rule_children + self.synth_children

    @property
    def used_non_column(self) -> frozenset[int]:
        """``UsedW - UsedCW``: the set ``word_mask`` encodes."""
        return self.used - self.used_cols

    # -- §3.4 production score ---------------------------------------------------

    def _node_score(self) -> float:
        """RScore x SScore of this non-atom node.

        RScore averages the pairwise mean of this node's rule score with each
        rule-bound child's rule score (pattern applications combine gently);
        SScore multiplies in the production quality of synthesis-substituted
        children (repeated synthesis decays the score toward 0).
        """
        if self.rule_children:
            r = sum(
                (self.rule_score + c.rule_score) / 2 for c in self.rule_children
            ) / len(self.rule_children)
        else:
            r = self.rule_score
        s = 1.0
        for c in self.synth_children:
            s *= c.prod_score
        return r * s

    # -- §3.4 mix score ------------------------------------------------------------

    def _span(self) -> tuple[int, int] | None:
        if not self.used:
            return None
        return (min(self.used), max(self.used))

    def _own_mix(self) -> tuple[int, int]:
        """(Swizzled, AllPairs) of this node: child-pair span overlaps plus
        the children's own counts, which must be known already."""
        children = self.children
        if not children:
            return (0, 0)
        swizzled = 0
        pairs = len(children) * (len(children) - 1)
        spans = [c._span() for c in children]
        for i, child in enumerate(children):
            child_swizzled, child_pairs = child._mix
            swizzled += child_swizzled
            pairs += child_pairs
            a = spans[i]
            if a is None:
                continue
            overlaps = sum(
                1
                for j, b in enumerate(spans)
                if j != i and b is not None and a[0] <= b[1] and b[0] <= a[1]
            )
            swizzled += overlaps
        return (swizzled, pairs)

    def _mix_parts(self) -> tuple[int, int]:
        """(Swizzled, AllPairs), computed on first read for this node and
        every descendant not yet computed (children first, with an explicit
        stack so a deep history costs no recursion), then stored."""
        if self._mix is None:
            stack = [self]
            while stack:
                d = stack[-1]
                pending = [c for c in d.children if c._mix is None]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                if d._mix is None:
                    d._mix = d._own_mix()
        return self._mix

    @property
    def swizzled(self) -> int:
        return self._mix_parts()[0]

    @property
    def all_pairs(self) -> int:
        return self._mix_parts()[1]

    @property
    def mix_score(self) -> float:
        swizzled, pairs = self._mix_parts()
        if pairs == 0:
            return 1.0
        return 1.0 - swizzled / pairs

    def cover_score(self, word_weights) -> float:
        """CoverSc(e) = 1 / max(ignored^2, 1).

        ``word_weights`` is either the sentence length (every word weighs 1,
        the paper's literal formula) or a per-position weight sequence.  The
        weighted variant implements the paper's stated intuition — "not
        unduly penalizing expressions that ignore a few possibly redundant
        words" — by making ignored *content* words (values, columns,
        literals) cost much more than ignored filler ("please", "the").
        """
        if isinstance(word_weights, int):
            ignored = float(word_weights - len(self.used))
        else:
            ignored = sum(
                w for k, w in enumerate(word_weights) if k not in self.used
            )
        return 1.0 / max(ignored * ignored, 1.0)

    @property
    def ranking_prod_score(self) -> float:
        """ProdSc as used for *ranking*: the paper sums over non-terminal
        sub-expressions, so a bare atom carries no production evidence and
        scores 0 (it ranks below any actual parse)."""
        if self.kind == ATOM:
            return 0.0
        return self.prod_score

    def score(self, word_weights, full_ranking: bool = True) -> float:
        """The final §3.4 ranking score."""
        if not full_ranking:
            return self.ranking_prod_score
        return (
            self.ranking_prod_score
            * self.cover_score(word_weights)
            * self.mix_score
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Derivation({self.expr}, used={sorted(self.used)}, "
            f"kind={self.kind}, prod={self.prod_score:.3f})"
        )
