"""Template alignment (paper §3.3.1).

An alignment maps each pattern of a template to a contiguous token range
such that the ranges tile the whole fragment: the first pattern starts at
the fragment start, consecutive ranges abut, and the last pattern ends at
the fragment end.  Optional patterns may map to empty ranges.

Ranges are half-open ``(l, u)`` over fragment-relative positions.

Compiled templates
------------------

:func:`compile_template` builds a template's search automaton (the
suffix-width table that prunes the backtracking search, and the
``MustPat`` option sets ``quick_reject`` tests) once per *structural*
template and interns it in a cross-request table (keyed like
``repro.dsl.ast.intern``): because ``parse_template`` interns template
tuples too, every translator, forked gateway worker (via fork
copy-on-write), and learned rule pack sharing a template shares one
compiled form.

The alignment chart
-------------------

The DP asks for the alignments of every live rule over every span
``[i, j)`` of a sentence.  A backtracking search from ``i`` out to some
limit passes through every shorter fragment that starts at ``i``, so
:class:`AlignmentChart` runs one search per (template, start) and files
each complete alignment under the position where it ends.

The chart is exact.  For a smaller ``limit``, every pattern's
``ends(tokens, pos, limit, ctx)`` yields exactly the subsequence of its
larger-limit output that is ``<= limit``, in the same order (``MustPat``
skips an option past the limit before its dedup, ``OptPat``'s ends rise
and stop at the limit, and the single-token and range patterns cut their
range at the limit).  Positions only grow along a search path, so the
search over ``[i, j)`` alone is the chart's search restricted to the
paths that stay ``<= j``, visited in the same order; ``min_suffix`` only
prunes branches that cannot complete.  Keeping the first ``cap``
alignments per end therefore keeps exactly what the per-fragment search
returns.

A search out to the sentence end would also align spans the DP never
reaches when a budget stops it early, so a chart searches ``horizon``
tokens past each start and doubles the horizon (re-searching that start)
when a wider span asks.
"""

from __future__ import annotations

from .context import SheetContext
from .patterns import MustPat, OptPat, Pattern
from .tokenizer import Token

Alignment = tuple  # tuple[tuple[int, int], ...] — one (l, u) per pattern


def _min_width(pattern: Pattern) -> int:
    if isinstance(pattern, OptPat):
        return 0
    if isinstance(pattern, MustPat):
        return min(len(option) for option in pattern.options)
    return 1


class CompiledTemplate:
    """A template plus everything alignment derives from it.

    * ``min_suffix[i]`` — the minimum token width patterns ``i..`` must
      still tile (prunes the backtracking search);
    * ``must_option_sets`` — the MustPats' per-option word frozensets, laid
      out flat so ``quick_reject`` is a loop over precollected sets with no
      per-call isinstance scan.
    """

    __slots__ = ("template", "size", "min_suffix", "must_option_sets")

    def __init__(self, template: tuple[Pattern, ...]) -> None:
        self.template = template
        self.size = len(template)
        min_suffix = [0] * (len(template) + 1)
        for i in range(len(template) - 1, -1, -1):
            min_suffix[i] = min_suffix[i + 1] + _min_width(template[i])
        self.min_suffix = tuple(min_suffix)
        self.must_option_sets = tuple(
            p.option_sets for p in template if isinstance(p, MustPat)
        )

    def search(
        self,
        tokens: list[Token],
        start: int,
        limit: int,
        ctx: SheetContext,
        cap: int,
    ) -> list[list[Alignment]]:
        """The alignments of every fragment ``tokens[start:end]`` with
        ``end <= limit``: ``row[end - start]`` holds the first ``cap`` of
        them, ranges relative to ``start``, in the order a search over that
        fragment alone yields them."""
        template = self.template
        size = self.size
        min_suffix = self.min_suffix
        row: list[list[Alignment]] = [[] for _ in range(limit - start + 1)]
        if start + min_suffix[0] > limit:
            return row
        ranges: list[tuple[int, int]] = []

        def recurse(pattern_index: int, pos: int) -> None:
            if pattern_index == size:
                bucket = row[pos - start]
                if len(bucket) < cap:
                    bucket.append(tuple(ranges))
                return
            next_suffix = min_suffix[pattern_index + 1]
            for end in template[pattern_index].ends(tokens, pos, limit, ctx):
                if end + next_suffix > limit:
                    continue
                ranges.append((pos - start, end - start))
                recurse(pattern_index + 1, end)
                ranges.pop()

        recurse(0, start)
        return row

    def quick_reject(self, fragment_words: frozenset[str]) -> bool:
        """True when some MustPat has no option whose words all occur in
        the fragment: such a template cannot align with it."""
        for option_sets in self.must_option_sets:
            for option_set in option_sets:
                if option_set <= fragment_words:
                    break
            else:
                return True
        return False


# Cross-request compiled-template intern table.  Keyed structurally (the
# template tuple), so even templates parsed before the text-level intern
# table warmed up land on the same compiled object.  Capped + cleared
# wholesale like the AST intern table; a cleared entry only costs a
# recompile.
_COMPILED_TABLE: dict[tuple, CompiledTemplate] = {}
_COMPILED_CAP = 4096


def compiled_table_size() -> int:
    return len(_COMPILED_TABLE)


def compile_template(template: tuple[Pattern, ...]) -> CompiledTemplate:
    """The interned compiled form of ``template``."""
    compiled = _COMPILED_TABLE.get(template)
    if compiled is None:
        if len(_COMPILED_TABLE) >= _COMPILED_CAP:
            _COMPILED_TABLE.clear()
        compiled = CompiledTemplate(template)
        _COMPILED_TABLE[template] = compiled
    return compiled


class AlignmentChart:
    """The alignments of one sentence's fragments, searched once per
    (compiled template, start) and answered per span.

    A chart belongs to one translation of one sentence: it holds no lock,
    so it must not be shared between threads.  ``options`` is the rule
    translator's per-translation memo of hole binding options.
    """

    __slots__ = ("tokens", "ctx", "cap", "horizon", "_rows", "options")

    def __init__(
        self,
        tokens: list[Token],
        ctx: SheetContext,
        cap: int = 16,
        horizon: int = 16,
    ) -> None:
        self.tokens = tokens
        self.ctx = ctx
        self.cap = cap
        self.horizon = max(1, horizon)
        # (template, start) -> (limit searched to, row of per-end buckets)
        self._rows: dict[tuple, tuple[int, list[list[Alignment]]]] = {}
        self.options: dict[tuple, list] = {}

    def alignments(
        self, compiled: CompiledTemplate, start: int, end: int
    ) -> list[Alignment]:
        """The first ``cap`` alignments of the template over
        ``tokens[start:end]``, ranges relative to ``start``."""
        key = (compiled, start)
        entry = self._rows.get(key)
        if entry is None or end > entry[0]:
            while end - start > self.horizon:
                self.horizon *= 2
            limit = min(len(self.tokens), start + self.horizon)
            entry = (
                limit,
                compiled.search(self.tokens, start, limit, self.ctx, self.cap),
            )
            self._rows[key] = entry
        return entry[1][end - start]


def align(
    template: tuple[Pattern, ...],
    tokens: list[Token],
    ctx: SheetContext,
    cap: int = 16,
) -> list[Alignment]:
    """All (up to ``cap``) alignments of ``template`` over ``tokens``."""
    n = len(tokens)
    chart = AlignmentChart(tokens, ctx, cap, horizon=n)
    return list(chart.alignments(compile_template(template), 0, n))


def quick_reject(
    template: tuple[Pattern, ...], fragment_words: frozenset[str]
) -> bool:
    """Cheap pre-check: a MustPat whose options all need words absent from
    the fragment can never align (saves the backtracking search)."""
    return compile_template(template).quick_reject(fragment_words)
