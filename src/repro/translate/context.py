"""The spreadsheet context used during translation.

"User descriptions ... are executed in the context of a spreadsheet, which
provides meaning to column name references, like hours, and to special value
names, like baristas, as well as to other tables and the columns defined in
them" (paper §3.3.1).

:class:`SheetContext` indexes a workbook for the translator:

* resolving word spans to column references (including squashed headers —
  "total pay" resolves to the ``totalpay`` column — and the paper's
  ResolveCol fallback where a *value* span resolves to the columns
  containing that value),
* resolving word spans to sheet values ("capitol hill", plural "baristas"),
* resolving color words and column letters,
* the combined vocabulary the spell corrector runs against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sheet import Color, Workbook
from ..sheet.address import column_letter_to_index
from .lexicon import SpellCorrector, keyword_vocabulary

# Words that must never be "corrected" into sheet vocabulary.
FUNCTION_WORDS = frozenset(
    """where with whose which what that this have has does from table tables
    column columns each every their them they there then than please computer
    want need give show take compute calculate find rows row cells cell the
    for all any are was were been being how who whom why when if else but and
    or not value values level ahead lets whats it its in at of by to a an is
    on up out me my we us i you your only just also very really some most
    employees employee workers worker people person items item products
    product countries country invoices invoice orders order records record
    entries entry lines line"""
    .split()
)

MAX_SPAN_WORDS = 4


@dataclass(frozen=True)
class ColumnMatch:
    """A span resolved to a column; ``via_value`` marks the ResolveCol
    fallback (the span named a value and we matched its column)."""

    table: str
    column: str
    via_value: bool = False


@dataclass(frozen=True)
class ValueMatch:
    """A span resolved to a sheet value occurring in (table, column)."""

    value: str
    table: str
    column: str


class SheetContext:
    """Workbook index shared by all translations against one sheet state.

    ``fuzzy_columns`` enables the paper's §7 future-work extension —
    similarity matching for column names: squashed headers also match
    word-order permutations ("per capita gdp" -> ``gdppercapita``, with
    connective words dropped) and abbreviation prefixes ("overtime hours"
    -> ``othours`` because "ot" prefixes "overtime").
    """

    def __init__(
        self,
        workbook: Workbook,
        fuzzy_columns: bool = False,
        extra_vocabulary: set[str] | None = None,
    ) -> None:
        """``extra_vocabulary`` adds words the spell corrector must treat as
        known — the translator passes every word its rule templates match,
        so custom rule jargon is never "corrected" away."""
        self.fuzzy_columns = fuzzy_columns
        self._extra_vocabulary = set(extra_vocabulary or ())
        self.workbook = workbook
        self._columns: dict[str, list[tuple[str, str]]] = {}
        default = workbook.default_table.name
        ordered = [workbook.default_table] + [
            t for t in workbook.tables if t.name != default
        ]
        for table in ordered:
            for column in table.column_names:
                key = column.strip().lower().replace(" ", "")
                self._columns.setdefault(key, []).append((table.name, column))
        # Value lookups are pool-id probes against the interned columnar
        # index, which the workbook keeps per table revision.
        self._index = index = workbook.columnar_index()
        self._max_value_words = index.max_value_words
        self._value_words = index.value_words
        self.corrector = self._make_corrector()
        # n-gram → match memos (the per-sentence seed index).  A word span
        # always resolves the same way against one sheet state, so the
        # translator warms these at ``prepare_tokens`` time and every
        # subsequent probe — seeds, rule alignment, neighbour joins — is a
        # dict hit instead of a vocabulary scan.  Results are cached lists;
        # callers must not mutate them.
        self._column_match_cache: dict[tuple[str, ...], list[ColumnMatch]] = {}
        self._value_match_cache: dict[tuple[str, ...], list[ValueMatch]] = {}

    # -- vocabulary -----------------------------------------------------------

    def _make_corrector(self) -> SpellCorrector:
        """The spell corrector for this sheet state.

        Construction sorts the whole vocabulary, which is material on large
        sheets — so the corrector is memoised on the index (one per table
        revision and extra-vocabulary set, shared by every context over the
        same state).  The corrector is stateless after construction and
        fully determined by its vocabulary sets.
        """
        key = ("corrector", frozenset(self._extra_vocabulary))
        corrector = self._index.derived.get(key)
        if corrector is None:
            corrector = SpellCorrector(
                self._vocabulary(), preferred=self._content_vocabulary()
            )
            self._index.derived[key] = corrector
        return corrector

    def _vocabulary(self) -> set[str]:
        return (
            set(keyword_vocabulary())
            | set(FUNCTION_WORDS)
            | self._content_vocabulary()
            | self._extra_vocabulary
        )

    def _content_vocabulary(self) -> set[str]:
        """Sheet-content words: column names, value words, colors.  These
        win spell-correction ties against function/operator words."""
        vocab: set[str] = set()
        for key, slots in self._columns.items():
            vocab.add(key)
            for _, column in slots:
                vocab.update(column.lower().split())
        vocab.update(self._value_words)
        vocab.update(c.value for c in Color if c is not Color.NONE)
        return vocab

    # -- columns -------------------------------------------------------------

    # Soft cap on memoised spans; cleared wholesale when exceeded so a
    # long-lived context over adversarial traffic cannot grow unboundedly.
    _MATCH_CACHE_CAP = 65536

    def match_column(self, words: tuple[str, ...]) -> list[ColumnMatch]:
        """Columns a span of words may refer to.

        Direct matches (by squashed name) come first; if the span instead
        names a sheet *value*, the columns containing that value are
        returned with ``via_value=True`` (paper Algo 3, case C).
        Memoised per span (see ``index_sentence``); callers must treat the
        returned list as read-only.
        """
        cached = self._column_match_cache.get(words)
        if cached is None:
            if len(self._column_match_cache) >= self._MATCH_CACHE_CAP:
                self._column_match_cache.clear()
            cached = self._match_column_uncached(words)
            self._column_match_cache[words] = cached
        return cached

    def _match_column_uncached(
        self, words: tuple[str, ...]
    ) -> list[ColumnMatch]:
        if not words or len(words) > MAX_SPAN_WORDS:
            return []
        direct = self._direct_column(words)
        if direct:
            return direct
        return [
            ColumnMatch(m.table, m.column, via_value=True)
            for m in self.match_value(words)
        ]

    def _direct_column(self, words: tuple[str, ...]) -> list[ColumnMatch]:
        joined = "".join(words)
        slots = self._columns.get(joined)
        if slots is None and joined.endswith("s"):
            slots = self._columns.get(joined[:-1])
        if slots is None and len(words) >= 2 and len(joined) >= 6:
            # A typo inside one piece of a squashed header ("unit pprice")
            # defeats both the per-word spell corrector (the piece is not a
            # vocabulary word) and the exact join — so the join itself gets
            # one edit of tolerance, unique match required.
            slots = self._edit1_column_slots(joined)
        if slots is None and self.fuzzy_columns:
            slots = self._fuzzy_column_slots(words)
        if slots is None:
            return []
        return [ColumnMatch(table, column) for table, column in slots]

    def _edit1_column_slots(
        self, joined: str
    ) -> list[tuple[str, str]] | None:
        from .lexicon import damerau_levenshtein

        hits = [
            slots
            for key, slots in self._columns.items()
            if len(key) >= 6
            and abs(len(key) - len(joined)) <= 1
            and damerau_levenshtein(joined, key, cap=1) <= 1
        ]
        return hits[0] if len(hits) == 1 else None

    def _fuzzy_column_slots(
        self, words: tuple[str, ...]
    ) -> list[tuple[str, str]] | None:
        """§7 similarity matching: permuted subsets and prefix abbreviations.

        * permuted subsets cover reordered headers with connective words:
          "price per unit" contains the subset (unit, price) whose squash is
          the ``unitprice`` key;
        * prefix concatenation covers abbreviated headers: ``othours``
          splits into "ot" + "hours" where each piece prefixes the
          corresponding description word "overtime hours".
        """
        import itertools

        if len(words) > 3:
            return None
        # 1. permutations of the whole span ("per capita gdp")
        for perm in itertools.permutations(words):
            slots = self._columns.get("".join(perm))
            if slots:
                return slots
        # 2. abbreviation split over the whole span ("overtime hours")
        for key, slots in self._columns.items():
            if _prefix_concat_match(key, words):
                return slots
        # 3. permuted proper subsets of >= 2 words ("price per unit")
        for size in range(len(words) - 1, 1, -1):
            for subset in itertools.combinations(words, size):
                for perm in itertools.permutations(subset):
                    slots = self._columns.get("".join(perm))
                    if slots:
                        return slots
        return None

    def column_by_letter(self, letter: str) -> ColumnMatch | None:
        """The default-table column at sheet column ``letter`` ("column H")."""
        try:
            index = column_letter_to_index(letter)
        except Exception:
            return None
        table = self.workbook.default_table
        column = table.column_at_letter_index(index)
        if column is None:
            return None
        return ColumnMatch(table.name, column.name)

    def is_column_word(self, word: str) -> bool:
        """True when the single word matches (part of) some column name."""
        return bool(self._direct_column((word,)))

    # -- values -----------------------------------------------------------------

    def match_value(self, words: tuple[str, ...]) -> list[ValueMatch]:
        """Sheet values a span may refer to (plural forms included).
        Memoised like :meth:`match_column`."""
        cached = self._value_match_cache.get(words)
        if cached is None:
            if len(self._value_match_cache) >= self._MATCH_CACHE_CAP:
                self._value_match_cache.clear()
            cached = self._match_value_uncached(words)
            self._value_match_cache[words] = cached
        return cached

    def _match_value_uncached(self, words: tuple[str, ...]) -> list[ValueMatch]:
        if not words or len(words) > self._max_value_words + 1:
            return []
        joined = " ".join(words)
        for candidate in (joined, joined[:-1] if joined.endswith("s") else None):
            if candidate is None:
                continue
            # Slot order (tables in insertion order, columns in header
            # order) is seed order, which rankings depend on.
            slots = self._index.slots(candidate)
            if slots:
                return [
                    ValueMatch(candidate, table, column)
                    for table, column in slots
                ]
        return []

    # -- per-sentence seed index -------------------------------------------------

    def index_sentence(self, words: tuple[str, ...]) -> None:
        """Precompute the column/value matches of every n-gram of the
        sentence (widths up to the longest matchable span).

        Called once from ``Translator.prepare_tokens``; afterwards the
        O(n²) DP's seed, alignment-pattern, and neighbour-join probes for
        any span of this sentence are single dict lookups.
        """
        n = len(words)
        widest = max(MAX_SPAN_WORDS, self._max_value_words + 1)
        for i in range(n):
            for j in range(i + 1, min(n, i + widest) + 1):
                span = words[i:j]
                self.match_column(span)
                self.match_value(span)

    def is_value_word(self, word: str) -> bool:
        """True when the word occurs inside some sheet value."""
        if word in self._value_words:
            return True
        return word.endswith("s") and word[:-1] in self._value_words

    # -- colors ------------------------------------------------------------------

    @staticmethod
    def match_color(word: str) -> Color | None:
        try:
            color = Color(word)
        except ValueError:
            return None
        return None if color is Color.NONE else color


def _abbreviates(piece: str, word: str) -> bool:
    """``piece`` abbreviates ``word`` when it is a subsequence of the word
    anchored at its first letter ("ot" abbreviates "overtime", "qty"
    abbreviates "quantity"); full words and prefixes are special cases."""
    if not piece or piece[0] != word[0]:
        return False
    it = iter(word)
    return all(ch in it for ch in piece)


def _prefix_concat_match(key: str, words: tuple[str, ...]) -> bool:
    """True when ``key`` splits into pieces (>= 2 chars each) that
    abbreviate the description words in order, using every word —
    "othours" = "ot" (overtime) + "hours" (hours)."""
    if len(words) < 2:
        return False

    def recurse(remaining: str, index: int) -> bool:
        if index == len(words):
            return not remaining
        word = words[index]
        for take in range(2, min(len(remaining), len(word)) + 1):
            piece = remaining[:take]
            if _abbreviates(piece, word) and recurse(
                remaining[take:], index + 1
            ):
                return True
        return False

    return recurse(key, 0)
