"""The alignment chart answers every span exactly as the per-fragment search.

* Every pattern kind's ``ends`` under a smaller limit is its larger-limit
  output cut at that limit, in the same order: the property the chart's
  exactness rests on.
* For every built-in rule, start and end, the chart equals the
  per-fragment oracle in ``alignment_oracle.py``, on Table 2 split
  sentences and on generated token lists, with the default cap and with
  caps of 1, 2 and 3 that bind (no fragment of the split has more than 11
  alignments, so the default cap never does).
* The horizon grows on demand; the public ``align`` and a
  ``translate_span`` call without a chart answer from a chart over their
  own fragment.
* A 200-token input under a derivation budget keeps its top candidate and
  the stage where the budget tripped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.dsl import TypeChecker
from repro.rules import builtin_rules
from repro.runtime.budget import Budget
from repro.sheet import Table, ValueType
from repro.translate import RuleSet, Translator
from repro.translate.alignment import (
    AlignmentChart,
    CompiledTemplate,
    align,
    compile_template,
)
from repro.translate.context import SheetContext
from repro.translate.patterns import (
    ColorPat,
    ColumnPat,
    LiteralPat,
    MustPat,
    OptPat,
    SpanPat,
    ValuePat,
    parse_template,
)
from repro.translate.rule_translator import RuleTranslator
from repro.translate.tokenizer import tokenize

from ..conftest import make_payroll
from . import alignment_oracle as oracle

_RULES = list(builtin_rules())
_TEMPLATES = list(dict.fromkeys(rule.template for rule in _RULES))


@functools.lru_cache(maxsize=None)
def _sheet_ctx() -> SheetContext:
    """The payroll sheet plus a table whose values and column names nest
    ("capitol" < "capitol hill" < "capitol hill east", "site" < "site
    code"), so value and column patterns have several ends at one start."""
    wb = make_payroll()
    wb.add_table(Table.from_data(
        "Sites", ["site", "sitecode"],
        [["capitol", 1], ["capitol hill", 2], ["capitol hill east", 3]],
        types=[ValueType.TEXT, ValueType.NUMBER],
    ))
    return SheetContext(wb)


def _rule_words() -> list[str]:
    words: set[str] = set()
    for template in _TEMPLATES:
        for pattern in template:
            if isinstance(pattern, MustPat):
                for option in pattern.options:
                    words.update(option)
            elif isinstance(pattern, OptPat):
                words.update(pattern.words)
    return sorted(words)


# Words that hit every pattern kind on the payroll sheet: rule words,
# column names and values (single and multi-word), literals, a cell
# reference, colors, the "column H" letter form, and noise.
_SHEET_WORDS = [
    "hours", "othours", "totalpay", "payrate", "title", "location",
    "name", "capitol", "hill", "queen", "anne", "barista", "baristas",
    "chef", "cashier", "downtown", "alice", "20", "$5", "3.5", "i2",
    "red", "green", "column", "h", "zzz", "employees", "east", "site",
    "code",
]
_VOCAB = sorted(set(_rule_words()) | set(_SHEET_WORDS))


def _tokens(words: list[str]):
    return tokenize(" ".join(words))


# -- the prefix property of every pattern kind -----------------------------

# A small alphabet makes multi-word options match, and several options of
# one length exercise MustPat's dedup; the phrases give value and column
# patterns several ends at one start.
_SMALL = ["sum", "the", "of", "and", "hours", "chef", "zzz"]
_PHRASES = ["capitol hill east", "capitol hill", "site code", "column h"]


def _must():
    option = st.lists(st.sampled_from(_SMALL), min_size=1, max_size=3)
    return st.lists(option, min_size=1, max_size=5).map(
        lambda options: MustPat(tuple(tuple(o) for o in options))
    )


def _opt():
    return st.builds(
        OptPat,
        st.frozensets(st.sampled_from(_SMALL), min_size=1, max_size=4),
        st.booleans(),
    )


_PATTERNS = {
    "must": _must(),
    "opt": _opt(),
    "literal": st.just(LiteralPat(1)),
    "value": st.just(ValuePat(1)),
    "column": st.just(ColumnPat(1)),
    "color": st.just(ColorPat(1)),
    "span": st.just(SpanPat(1)),
}


@pytest.mark.parametrize("kind", sorted(_PATTERNS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ends_under_a_smaller_limit_cut_the_larger_limit_ends(kind, data):
    pattern = data.draw(_PATTERNS[kind])
    words = data.draw(
        st.lists(st.sampled_from(_SMALL + _SHEET_WORDS + _PHRASES), max_size=8)
    )
    tokens = _tokens(words)
    n = len(tokens)
    ctx = _sheet_ctx()
    for pos in range(n + 1):
        wide = list(pattern.ends(tokens, pos, n, ctx))
        for small in range(pos, n + 1):
            cut = [e for e in wide if e <= small]
            assert list(pattern.ends(tokens, pos, small, ctx)) == cut, (
                [t.text for t in tokens], pos, small
            )


# -- the chart against the per-fragment oracle -----------------------------


def _check_chart(tokens, ctx, cap, templates, horizon=16):
    """Query a chart the way the DP does (width by width, so the horizon
    grows mid-sentence) and compare every span with the oracle.  Returns
    how many (template, span) pairs reached the cap."""
    full = 0
    chart = AlignmentChart(tokens, ctx, cap, horizon=horizon)
    compiled = [(t, compile_template(t)) for t in templates]
    n = len(tokens)
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            fragment = tokens[i:j]
            words = frozenset(t.text for t in fragment)
            for template, automaton in compiled:
                want = oracle.align(template, fragment, ctx, cap)
                assert chart.alignments(automaton, i, j) == want, (
                    " ".join(t.text for t in fragment),
                    " ".join(p.render() for p in template),
                    cap,
                )
                if automaton.quick_reject(words):
                    assert want == []
                full += len(want) == cap
    return full


@functools.lru_cache(maxsize=None)
def _split_sentences():
    """(sheet id, DP tokens) for every description of the test split."""
    translators = {s: Translator(build_sheet(s)) for s in SHEET_ORDER}
    return [
        (d.sheet_id, translators[d.sheet_id].prepare_tokens(d.text))
        for d in Corpus.default().test
    ], {s: t.ctx for s, t in translators.items()}


@pytest.mark.parametrize("cap", [16, 1, 2, 3])
def test_chart_equals_oracle_on_split_sentences(cap):
    sentences, contexts = _split_sentences()
    # Every rule the sentence-level quick reject keeps, on every fourth
    # description; rejected rules cannot align with any span (checked on
    # generated tokens below, where every rule is compared).
    full = 0
    for sheet_id, tokens in sentences[cap % 4::4]:
        words = frozenset(t.text for t in tokens)
        live = [
            t for t in _TEMPLATES if not compile_template(t).quick_reject(words)
        ]
        full += _check_chart(tokens, contexts[sheet_id], cap, live)
    assert (full > 0) == (cap < 16)


@settings(max_examples=40, deadline=None)
@given(
    words=st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=9),
    cap=st.sampled_from([16, 1, 2, 3]),
    horizon=st.sampled_from([1, 2, 16]),
)
def test_chart_equals_oracle_on_generated_tokens(words, cap, horizon):
    _check_chart(_tokens(words), _sheet_ctx(), cap, _TEMPLATES, horizon)


@pytest.mark.parametrize("cap", [16, 2])
def test_chart_equals_oracle_on_a_long_sentence(cap):
    # 40 tokens: the horizon doubles from 16 to 64 while the DP walks it.
    tokens = _tokens(
        "sum the hours plus the othours of the capitol hill baristas and"
        " the chef minus 20 divided by the totalpay where the title is"
        " chef or the location is capitol hill east then multiply it by $5"
        " and count column h by site code".split()
    )
    assert len(tokens) > 32
    _check_chart(tokens, _sheet_ctx(), cap, _TEMPLATES)


@dataclass(frozen=True)
class _LimitProbe:
    """A one-token pattern that records every limit it is searched to."""

    seen: list = field(compare=False, hash=False)
    ident: int | None = None

    def ends(self, tokens, start, limit, ctx):
        self.seen.append(limit)
        if start < limit:
            yield start + 1


def test_a_chart_searches_no_further_than_its_horizon():
    tokens = _tokens(["hours", "plus"] * 20)
    seen: list[int] = []
    compiled = CompiledTemplate(
        (_LimitProbe(seen),) + parse_template("(plus)* %1")
    )
    chart = AlignmentChart(tokens, _sheet_ctx(), 16, horizon=4)
    chart.alignments(compiled, 0, 3)
    chart.alignments(compiled, 0, 4)
    chart.alignments(compiled, 2, 5)
    assert seen == [4, 6]
    # A wider span doubles the horizon until it fits, and re-searches.
    chart.alignments(compiled, 0, 9)
    assert chart.horizon == 16
    assert seen == [4, 6, 16]
    chart.alignments(compiled, 30, 40)
    assert seen == [4, 6, 16, 40]


def test_public_align_answers_from_the_whole_fragment():
    ctx = _sheet_ctx()
    tokens = _tokens("a b c d e f g h".split())
    template = parse_template("%1 %2")
    for cap in (1, 3, 16):
        assert align(template, tokens, ctx, cap) == oracle.align(
            template, tokens, ctx, cap
        )
    assert align(parse_template("(the)*"), [], ctx) == [((0, 0),)]


def test_translate_span_without_a_chart_matches_the_shared_chart():
    wb = make_payroll()
    translator = Translator(wb)
    rules = translator.rule_translator
    tokens = translator.prepare_tokens(
        "sum the totalpay for the capitol hill baristas"
    )
    n = len(tokens)
    chart = rules.chart(tokens)
    tmap: dict = {}
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            tmap[(i, i + width)] = translator._translate_span(
                tokens, i, i + width, tmap
            )
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            alone = rules.translate_span(tokens, i, j, tmap)
            shared = rules.translate_span(tokens, i, j, tmap, chart=chart)
            assert [d.key() for d in alone] == [d.key() for d in shared]


def test_a_rule_added_after_construction_is_aligned():
    wb = make_payroll()
    rule_set = RuleSet([])
    rules = RuleTranslator(
        rule_set, SheetContext(wb), TypeChecker(wb, content_check=True)
    )
    plain = next(r for r in _RULES if r.name == "sum_plain")
    rule_set.add(plain)
    tokens = _tokens("sum the hours".split())
    assert rules.sentence_rules(tokens) == [plain]
    produced = rules.translate_span(tokens, 0, len(tokens), {})
    assert [str(d.expr) for d in produced] == ["Sum(hours, GetTable(), True)"]


# -- a long budgeted input --------------------------------------------------


def test_long_budgeted_input_keeps_its_answer_and_trip_stage():
    # 200 tokens; the derivation cap trips in the synthesis stage long
    # before the DP reaches wide spans.  The top candidate and the stage
    # are those of the per-fragment search.
    translator = Translator(make_payroll())
    budget = Budget(max_derivations=5000)
    candidates = translator.translate(
        " ".join(["hours plus"] * 100), budget=budget
    )
    assert budget.exhausted
    assert budget.exhausted_stage == "synthesis"
    assert budget.exhausted_reason == "derivations"
    assert str(candidates[0].program) == "Add(hours, hours)"
    assert repr(candidates[0].score) == "9.081823597887562e-06"
    assert len(candidates) == 9
