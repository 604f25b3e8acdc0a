"""The substitution memo and the synthesis pair filter change no answer.

Each property checks a production path against its unmemoised copy in
``synthesis_oracle.py``:

* ``substitute`` memoised per type checker equals the oracle on first and
  repeat calls, raises ``HoleError`` on every call that names an unknown
  hole, and never answers for another checker's workbook;
* ``synthesize`` (overlapping pairs skipped before combining, openness
  read from the derivation) yields the oracle's derivations in the
  oracle's order, on pools recorded from real DP spans, with the
  ``max_new`` cut-off reached;
* ProdSc built from stored (sum, count) parts equals a full recursive walk
  bit for bit, and so do the other eager scores (node score, the stored
  parts) and the lazily computed MixSc (Swizzled, AllPairs), whichever
  node of a history is read first.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.dsl import TypeChecker, ast
from repro.dsl.holes import holes_of, substitute
from repro.errors import HoleError
from repro.rules import builtin_rules
from repro.sheet import CellValue
from repro.translate import translator as translator_module
from repro.translate.derivation import ATOM, RULE, SYNTH, Derivation
from repro.translate.synthesis import synthesize
from repro.translate.translator import Translator

from ..conftest import make_payroll
from . import synthesis_oracle as oracle

# -- substitution ------------------------------------------------------------

_RULE_EXPRS = [r.expr for r in builtin_rules() if holes_of(r.expr)]


def _text(s):
    return ast.Lit(CellValue.text(s))


def _num(x):
    return ast.Lit(CellValue.number(x))


# Atoms of both payroll sheets: the Table 2 one (basepay/otpay, 12 rows) and
# the Fig. 1 miniature (payrate/otpayrate, 6 rows), so one binding can be
# valid on one workbook and invalid on the other.
_ATOMS = [
    ast.intern(a)
    for a in (
        *(
            ast.ColumnRef(c)
            for c in (
                "name", "location", "title", "hours", "othours", "basepay",
                "otpay", "totalpay", "payrate", "otpayrate", "otrate",
            )
        ),
        *(
            _text(v)
            for v in (
                "alice", "grace", "capitol hill", "queen anne", "barista",
                "chef", "nobody",
            )
        ),
        _num(0), _num(20), _num(3.5),
        ast.Lit(CellValue.currency(10)), ast.Lit(CellValue.currency(396)),
        ast.Lit(CellValue.date("2014-06-22")),
        ast.Lit(CellValue.boolean(True)),
        ast.CellRef("J2"),
        ast.TrueF(),
        ast.GetTable(),
        ast.GetTable("payrates"),
        ast.Compare(ast.RelOp.LT, ast.ColumnRef("hours"), _num(20)),
        ast.Compare(ast.RelOp.EQ, ast.ColumnRef("title"), _text("barista")),
    )
]


@functools.lru_cache(maxsize=None)
def _sheet(sheet_id):
    return build_sheet(sheet_id)


def _table2_payroll():
    return _sheet("payroll")


@functools.lru_cache(maxsize=None)
def _fig1_payroll():
    return make_payroll()


@st.composite
def _substitutions(draw):
    """A builtin rule expression and bindings for some of its holes, in
    any order (the memo key keeps binding order)."""
    expr = draw(st.sampled_from(_RULE_EXPRS))
    idents = sorted({h.ident for h in holes_of(expr)})
    chosen = draw(st.lists(st.sampled_from(idents), unique=True))
    return expr, {i: draw(st.sampled_from(_ATOMS)) for i in chosen}


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except HoleError:
        return ("HoleError", None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_substitutions(), min_size=1, max_size=8), st.booleans())
def test_memoised_substitute_equals_oracle(cases, content_check):
    wb = _table2_payroll()
    memoised = TypeChecker(wb, content_check=content_check)
    reference = TypeChecker(wb, content_check=content_check)
    first = [substitute(expr, b, memoised) for expr, b in cases]
    for (expr, bindings), got in zip(cases, first):
        assert got == oracle.substitute(expr, bindings, reference)
    # Repeat calls are answered by the memo, with the same verdict.
    for (expr, bindings), was in zip(cases, first):
        again = substitute(expr, bindings, memoised)
        assert again is was
    assert 0 < len(memoised.substitutions) <= len(cases)


@settings(max_examples=150, deadline=None)
@given(_substitutions(), st.integers(0, 8), st.sampled_from(_ATOMS))
def test_unknown_ident_never_cached(case, position, atom):
    """Wherever an unknown ident sits among the bindings, the memo answers
    as the oracle does, call after call; an unknown ident bound first
    raises on every call, also after the same expression was memoised."""
    expr, bindings = case
    unknown = max(h.ident for h in holes_of(expr)) + 1
    items = list(bindings.items())
    items.insert(min(position, len(items)), (unknown, atom))
    bad = dict(items)
    checker = TypeChecker(_table2_payroll(), content_check=True)
    reference = TypeChecker(_table2_payroll(), content_check=True)
    want = _outcome(oracle.substitute, expr, bad, reference)
    first_unknown = {unknown: atom, **bindings}
    for _ in range(3):
        assert _outcome(substitute, expr, bad, checker) == want
        substitute(expr, bindings, checker)
        with pytest.raises(HoleError):
            substitute(expr, first_unknown, checker)


def test_unknown_ident_raises_after_valid_calls():
    expr = ast.Reduce(
        ast.ReduceOp.SUM, ast.Hole(1, ast.HoleKind.COLUMN), ast.GetTable(),
        ast.TrueF(),
    )
    checker = TypeChecker(_table2_payroll(), content_check=True)
    good = {1: ast.ColumnRef("totalpay")}
    assert substitute(expr, good, checker) is not None
    for _ in range(3):
        with pytest.raises(HoleError):
            substitute(expr, {2: ast.ColumnRef("totalpay")}, checker)
        with pytest.raises(HoleError):
            substitute(expr, {**good, 2: ast.ColumnRef("hours")}, checker)
    assert len(checker.substitutions) == 1


def test_memo_never_answers_for_another_workbook():
    """``basepay`` is a column of the Table 2 payroll sheet only, and
    ``grace`` a value of it only: each checker answers for its own sheet
    whichever asked first."""
    expr = ast.Reduce(
        ast.ReduceOp.SUM, ast.Hole(1, ast.HoleKind.COLUMN), ast.GetTable(),
        ast.Compare(ast.RelOp.EQ, ast.ColumnRef("name"), ast.Hole(2)),
    )
    bindings = {1: ast.ColumnRef("basepay"), 2: _text("grace")}
    table2 = TypeChecker(_table2_payroll(), content_check=True)
    fig1 = TypeChecker(_fig1_payroll(), content_check=True)
    for _ in range(2):
        assert substitute(expr, bindings, table2) is not None
        assert substitute(expr, bindings, fig1) is None
    fig1_first = TypeChecker(_fig1_payroll(), content_check=True)
    table2_second = TypeChecker(_table2_payroll(), content_check=True)
    assert substitute(expr, bindings, fig1_first) is None
    assert substitute(expr, bindings, table2_second) is not None


@settings(max_examples=150, deadline=None)
@given(st.lists(_substitutions(), min_size=1, max_size=6))
def test_memo_is_per_checker(cases):
    checkers = {
        wb: (TypeChecker(wb, content_check=True),
             TypeChecker(wb, content_check=True))
        for wb in (_table2_payroll(), _fig1_payroll())
    }
    for expr, bindings in cases:
        for memoised, reference in (*checkers.values(), *checkers.values()):
            assert substitute(expr, bindings, memoised) == oracle.substitute(
                expr, bindings, reference
            )


# -- synthesis ------------------------------------------------------------------

_SENTENCES_PER_SHEET = 3


@functools.lru_cache(maxsize=None)
def _recorded_pools():
    """``(sheet_id, pool, left, right, max_new)`` for every synthesis call
    the DP makes on a few test-split descriptions per sheet — the longest
    ones, whose wide spans fill up to the ``max_new`` cut-off."""
    test = Corpus.default().test
    calls = []
    real = translator_module.synthesize
    sheet = [None]

    def record(pool, left, right, checker, max_new=96, max_rounds=4,
               budget=None):
        calls.append((sheet[0], list(pool), list(left), list(right), max_new))
        return real(pool, left, right, checker, max_new=max_new,
                    max_rounds=max_rounds, budget=budget)

    translator_module.synthesize = record
    try:
        for sheet_id in SHEET_ORDER:
            sheet[0] = sheet_id
            texts = sorted(
                {d.text for d in test if d.sheet_id == sheet_id},
                key=lambda t: (-len(t.split()), t),
            )[:_SENTENCES_PER_SHEET]
            translator = Translator(_sheet(sheet_id))
            for text in texts:
                translator.translate(text)
    finally:
        translator_module.synthesize = real
    return calls


def _signature(derivations):
    return [
        (d.key(), d.kind, d.prod_score.hex(), d.rule_score.hex())
        for d in derivations
    ]


def _replay(call, max_new, max_rounds=4):
    sheet_id, pool, left, right, _ = call
    wb = _sheet(sheet_id)
    got = synthesize(
        pool, left, right, TypeChecker(wb, content_check=True),
        max_new=max_new, max_rounds=max_rounds,
    )
    want = oracle.synthesize(
        pool, left, right, TypeChecker(wb, content_check=True),
        max_new=max_new, max_rounds=max_rounds,
    )
    assert _signature(got) == _signature(want)
    return got


def test_synthesize_equals_oracle_on_every_recorded_span():
    calls = _recorded_pools()
    assert len(calls) > 100
    reached = 0
    for call in calls:
        max_new = call[4]
        got = _replay(call, max_new)
        reached += len(got) == max_new
    # The cut-off is part of what must not move: some spans hit it.
    assert reached > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_synthesize_equals_oracle_at_any_cutoff(data):
    calls = _recorded_pools()
    call = calls[data.draw(st.integers(0, len(calls) - 1))]
    _replay(
        call,
        max_new=data.draw(st.integers(1, 128)),
        max_rounds=data.draw(st.integers(1, 4)),
    )


# -- ProdSc ------------------------------------------------------------------------

_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _leaf(score, k):
    return Derivation(
        expr=_num(k), used=frozenset([k]), kind=ATOM, rule_score=score
    )


def _node(kind, score, rule_children, synth_children):
    used = frozenset()
    for c in rule_children + synth_children:
        used |= c.used
    return Derivation(
        expr=ast.TrueF(), used=used, kind=kind, rule_score=score,
        rule_children=tuple(rule_children),
        synth_children=tuple(synth_children),
    )


_trees = st.recursive(
    st.builds(_leaf, _scores, st.integers(0, 12)),
    lambda children: st.builds(
        _node,
        st.sampled_from([RULE, SYNTH, ATOM]),
        _scores,
        st.lists(children, max_size=3),
        st.lists(children, max_size=3),
    ),
    max_leaves=40,
)


def _walk(d):
    yield d
    for c in d.children:
        yield from _walk(c)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_prod_score_from_stored_parts_is_bit_identical(tree):
    for d in _walk(tree):
        assert d.prod_score.hex() == oracle.prod_score(d).hex()


def test_prod_score_bit_identical_on_recorded_derivations():
    seen = 0
    for _, pool, _, _, _ in _recorded_pools()[::7]:
        for d in pool:
            assert d.prod_score.hex() == oracle.prod_score(d).hex()
            seen += 1
    assert seen > 1000


# -- every stored score -----------------------------------------------------------


def _stored_scores(d):
    """Every score a derivation stores or computes on demand, floats as hex
    so the comparison is bit for bit."""
    return (
        d.node_score.hex(), d.prod_total.hex(), d.prod_count,
        d.prod_score.hex(), d.swizzled, d.all_pairs, d.mix_score.hex(),
    )


def _walked_scores(d):
    total, count = oracle.prod_parts(d)
    swizzled, pairs = oracle.mix_parts(d)
    return (
        oracle.node_score(d).hex(), total.hex(), count,
        oracle.prod_score(d).hex(), swizzled, pairs,
        oracle.mix_score(d).hex(),
    )


@settings(max_examples=300, deadline=None)
@given(_trees, st.booleans())
def test_scores_equal_recursive_walk(tree, root_first):
    """MixSc is computed on first read: reading the root first computes the
    whole history at once, reading the leaves first builds it up node by
    node; both equal the walk."""
    nodes = list(_walk(tree))
    for d in nodes if root_first else reversed(nodes):
        assert _stored_scores(d) == _walked_scores(d)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scores_equal_recursive_walk_on_recorded_derivations(data):
    """Histories built by the DP share sub-derivations between parents."""
    calls = _recorded_pools()
    _, pool, _, _, _ = calls[data.draw(st.integers(0, len(calls) - 1))]
    for d in pool:
        assert _stored_scores(d) == _walked_scores(d)
