"""Unit tests for derivation histories and the §3.4 ranking scores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import ast
from repro.sheet import CellValue
from repro.translate.derivation import ATOM, RULE, SYNTH, Derivation


def atom(expr, positions, score=1.0, cols=()):
    return Derivation(
        expr=expr,
        used=frozenset(positions),
        used_cols=frozenset(cols),
        kind=ATOM,
        rule_score=score,
    )


def col(name="hours"):
    return ast.ColumnRef(name)


def lit(x):
    return ast.Lit(CellValue.number(x))


# Freshly built (not yet interned) expressions: equal ones are distinct
# objects until a derivation interns them.
_fresh_exprs = st.recursive(
    st.one_of(
        st.builds(ast.ColumnRef, st.sampled_from(["hours", "othours"])),
        st.builds(lit, st.integers(1, 2)),
        st.builds(ast.Hole, st.integers(1, 2)),
    ),
    lambda inner: st.builds(
        ast.BinOp, st.sampled_from(list(ast.BinaryOp)), inner, inner
    ),
    max_leaves=4,
)


class TestStructure:
    def test_key_is_expr_and_used(self):
        a = atom(col(), [1])
        b = atom(col(), [1])
        assert a.key() == b.key()
        assert a.key() != atom(col(), [2]).key()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(_fresh_exprs, st.frozensets(st.integers(0, 3))),
            min_size=2, max_size=6,
        )
    )
    def test_keys_equal_exactly_when_expr_and_used_are_equal(self, items):
        """Keys are ``(id(expr), used)`` of the interned expression: equal
        exactly when the expressions are structurally equal and the word
        sets are equal."""
        ds = [atom(expr, used) for expr, used in items]
        for a in ds:
            for b in ds:
                same = a.expr == b.expr and a.used == b.used
                assert (a.key() == b.key()) == same

    def test_used_non_column(self):
        d = atom(col(), [1, 2], cols=[2])
        assert d.used_non_column == frozenset([1])

    def test_children_combines_both_lists(self):
        a, b = atom(col(), [0]), atom(lit(1), [1])
        d = Derivation(
            expr=ast.Compare(ast.RelOp.GT, col(), lit(1)),
            used=frozenset([0, 1]),
            kind=RULE,
            rule_score=0.8,
            rule_children=(a,),
            synth_children=(b,),
        )
        assert d.children == (a, b)


class TestProdScore:
    def test_atom_prod_is_rule_score(self):
        assert atom(col(), [0], score=0.9).prod_score == 0.9

    def test_atom_ranking_prod_is_zero(self):
        assert atom(col(), [0]).ranking_prod_score == 0.0

    def test_rule_node_averages_with_children(self):
        child = atom(col(), [1])
        d = Derivation(
            expr=ast.Reduce(ast.ReduceOp.SUM, col(), ast.GetTable(), ast.TrueF()),
            used=frozenset([0, 1]),
            kind=RULE,
            rule_score=0.8,
            rule_children=(child,),
        )
        # RScore = (0.8 + 1.0) / 2 = 0.9, no synth children
        assert d.node_score == pytest.approx(0.9)
        assert d.prod_score == pytest.approx(0.9)

    def test_synthesis_decays(self):
        filler = atom(lit(1), [1], score=0.8)
        receiver = Derivation(
            expr=ast.Compare(ast.RelOp.GT, col(), ast.Hole(1)),
            used=frozenset([0]),
            kind=ATOM,
            rule_score=0.55,
        )
        combined = Derivation(
            expr=ast.Compare(ast.RelOp.GT, col(), lit(1)),
            used=frozenset([0, 1]),
            kind=SYNTH,
            rule_score=receiver.rule_score,
            synth_children=(filler,),
        )
        # node = 0.55 * prod(filler) = 0.55 * 0.8
        assert combined.node_score == pytest.approx(0.55 * 0.8)

    def test_repeated_synthesis_drops_below_rules(self):
        leaf = atom(lit(1), [0], score=0.6)
        level1 = Derivation(
            expr=lit(2), used=frozenset([0, 1]), kind=SYNTH,
            rule_score=0.6, synth_children=(leaf,),
        )
        level2 = Derivation(
            expr=lit(3), used=frozenset([0, 1, 2]), kind=SYNTH,
            rule_score=0.6, synth_children=(level1,),
        )
        assert level2.prod_score < level1.prod_score < 0.6


class TestCoverScore:
    def test_full_coverage(self):
        d = atom(col(), [0, 1, 2])
        assert d.cover_score(3) == 1.0

    def test_one_ignored_word_costs_nothing_unweighted(self):
        d = atom(col(), [0, 1])
        assert d.cover_score(3) == 1.0

    def test_quadratic_penalty(self):
        d = atom(col(), [0])
        assert d.cover_score(4) == pytest.approx(1 / 9)

    def test_weighted_content_word(self):
        d = atom(col(), [0])
        weights = [1.0, 2.0]  # position 1 ignored, weight 2
        assert d.cover_score(weights) == pytest.approx(1 / 4)

    def test_weighted_noise_is_free(self):
        d = atom(col(), [0])
        weights = [1.0, 0.4]
        assert d.cover_score(weights) == 1.0


class TestMixScore:
    def _pair(self, used_a, used_b):
        a = atom(col("hours"), used_a)
        b = atom(col("othours"), used_b)
        return Derivation(
            expr=ast.Compare(ast.RelOp.GT, col("hours"), col("othours")),
            used=frozenset(used_a) | frozenset(used_b),
            kind=RULE,
            rule_score=0.8,
            rule_children=(a, b),
        )

    def test_disjoint_spans_do_not_mix(self):
        d = self._pair([0, 1], [3, 4])
        assert d.mix_score == 1.0

    def test_interleaved_spans_mix(self):
        d = self._pair([0, 3], [1, 4])  # spans [0,3] and [1,4] overlap
        assert d.mix_score == 0.0

    def test_atom_mix_is_one(self):
        assert atom(col(), [0]).mix_score == 1.0

    def test_single_child_cannot_mix(self):
        child = atom(col(), [2])
        d = Derivation(
            expr=ast.Not(ast.Compare(ast.RelOp.GT, col(), lit(0))),
            used=frozenset([0, 2]),
            kind=RULE,
            rule_score=0.8,
            rule_children=(child,),
        )
        assert d.mix_score == 1.0


class TestFinalScore:
    def test_full_ranking_multiplies_components(self):
        child = atom(col(), [1])
        d = Derivation(
            expr=ast.Reduce(ast.ReduceOp.SUM, col(), ast.GetTable(), ast.TrueF()),
            used=frozenset([0, 1]),
            kind=RULE,
            rule_score=0.8,
            rule_children=(child,),
        )
        full = d.score([1.0, 1.0, 2.0], full_ranking=True)
        assert full == pytest.approx(d.prod_score * (1 / 4) * 1.0)

    def test_prod_only_mode(self):
        child = atom(col(), [1])
        d = Derivation(
            expr=ast.Reduce(ast.ReduceOp.SUM, col(), ast.GetTable(), ast.TrueF()),
            used=frozenset([0, 1]),
            kind=RULE,
            rule_score=0.8,
            rule_children=(child,),
        )
        assert d.score(10, full_ranking=False) == d.prod_score
