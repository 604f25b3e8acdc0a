"""The DSL type system — the ``Valid`` function of paper §2.

The paper: "The DSL supports a strict, but intuitive, type system ...  For
example, multiplication is well defined on two numbers, or a number and a
currency, but not on two currency values.  The vector operations are defined
only on vectors of the same size.  Each reference to a column name should be
consistent with the table in scope.  We encapsulate these constraints using
the function Valid."

Type checking is *contextual*: a row source fixes the table in scope for the
column references inside its filter, reduce, and select expressions.  Partial
expressions type-check with holes treated as wildcards, which is exactly what
the synthesis algorithm needs when it validates candidate substitutions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import DslTypeError, UnknownColumnError, UnknownTableError
from ..sheet.cell import current_revision
from ..sheet.values import ValueType
from ..sheet.workbook import Workbook
from . import ast


class Kind(enum.Enum):
    SCALAR = "scalar"
    COLUMN = "column"
    VECTOR = "vector"
    FILTER = "filter"
    ROWSET = "rowset"
    QUERY = "query"
    FORMAT = "format"
    PROGRAM = "program"
    ANY = "any"  # the type of a hole


@dataclass(frozen=True)
class DslType:
    """A DSL type: a kind, an element type for data-bearing kinds, and the
    table a rowset/query/column/vector is anchored to (used both for column
    scoping and for the vectors-same-size check)."""

    kind: Kind
    elem: ValueType | None = None
    table: str | None = None

    def __str__(self) -> str:
        parts = [self.kind.value]
        if self.elem is not None:
            parts.append(self.elem.value)
        if self.table is not None:
            parts.append(f"@{self.table}")
        return ":".join(parts)


ANY = DslType(Kind.ANY)

_PROGRAM_KINDS = (Kind.PROGRAM, Kind.SCALAR, Kind.VECTOR, Kind.COLUMN, Kind.ANY)

# Entries a checker memo may hold before it is cleared wholesale (the policy
# of ``ast._INTERN_CAP``).  A gateway worker keeps its warm translators, and
# so their checkers, for its whole life; fed sentences with ever-new
# literals, an unbounded memo would grow with it.  A clear costs only
# recomputation.  The Table 2 test split stays well under the cap: its
# largest memo, one sheet's substitution table after the whole split, holds
# under 20k entries.
MEMO_CAP = 1 << 16


def remember(memo: dict, key, value) -> None:
    """``memo[key] = value``, clearing ``memo`` first once it is full."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value


class TypeChecker:
    """Typing judgments for DSL expressions over a concrete workbook."""

    def __init__(self, workbook: Workbook, content_check: bool = False) -> None:
        """``content_check=True`` additionally rejects text equalities whose
        value does not occur in the compared column — the translator's
        context-driven pruning.  Hand-written programs (a sum over a value
        that happens to match nothing is a legitimate zero) keep the purely
        type-level ``Valid``."""
        self.workbook = workbook
        self.content_check = content_check
        self._cache: dict[tuple[ast.Expr, str | None], DslType] = {}
        # Verdict memos that spare the synthesis closure both the repeated
        # tree walks and the repeated DslTypeError raises for candidates it
        # has already judged.  Keys are expressions — structurally hashed, so
        # with interning every probe is an O(1) identity-backed dict hit.
        self._valid_cache: dict[ast.Expr, bool] = {}
        self._fail_cache: dict[tuple[ast.Expr, str | None], str] = {}
        self._program_cache: dict[ast.Expr, bool] = {}
        # :func:`repro.dsl.holes.substitute`'s verdicts, keyed by
        # (expression, bindings): kept here so they share this checker's
        # lifetime with the Valid verdicts they depend on.
        self.substitutions: dict[tuple, ast.Expr | None] = {}
        # The full sheet revision when a CellRef was first typed since the
        # memos were last cleared (None: none was).  Every other judgment
        # reads table structure and content only, which outlive a checker
        # (its owner is rebuilt when the table revision moves).
        self._cell_revision: int | None = None

    def refresh(self) -> None:
        """Clear every memo when one may hold a CellRef's type and the
        sheet has changed since that cell was read.  Call it once per
        translation or run, not per judgment: it reads a locked counter."""
        seen = self._cell_revision
        if seen is not None and seen != current_revision():
            for memo in (
                self._cache, self._fail_cache, self._valid_cache,
                self._program_cache, self.substitutions,
            ):
                memo.clear()
            self._cell_revision = None

    # -- public API --------------------------------------------------------

    def valid(self, expr: ast.Expr) -> bool:
        """The paper's ``Valid(e)``: True iff ``e`` is well-typed (holes are
        permitted and act as wildcards)."""
        cached = self._valid_cache.get(expr)
        if cached is not None:
            return cached
        try:
            self.type_of(expr)
            ok = True
        except DslTypeError:
            ok = False
        remember(self._valid_cache, expr, ok)
        return ok

    def valid_program(self, expr: ast.Expr) -> bool:
        """True iff ``e`` is a complete (hole-free), well-typed program."""
        cached = self._program_cache.get(expr)
        if cached is None:
            cached = self._compute_valid_program(expr)
            remember(self._program_cache, expr, cached)
        return cached

    def _compute_valid_program(self, expr: ast.Expr) -> bool:
        if any(isinstance(node, ast.Hole) for node in expr.walk()):
            return False
        try:
            t = self.type_of(expr)
        except DslTypeError:
            return False
        return t.kind in _PROGRAM_KINDS

    def type_of(self, expr: ast.Expr, scope: str | None = None) -> DslType:
        """The type of ``expr`` with ``scope`` as the table in scope
        (defaults to the workbook's primary table).  Raises
        :class:`DslTypeError` on ill-typed expressions."""
        key = (expr, scope)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        message = self._fail_cache.get(key)
        if message is not None:
            raise DslTypeError(message)
        try:
            result = self._compute(expr, scope)
        except DslTypeError as exc:
            remember(self._fail_cache, key, str(exc))
            raise
        remember(self._cache, key, result)
        return result

    # -- dispatch ----------------------------------------------------------

    def _compute(self, e: ast.Expr, scope: str | None) -> DslType:
        if isinstance(e, ast.Hole):
            return ANY
        if isinstance(e, ast.Lit):
            if e.value.is_empty:
                raise DslTypeError("empty literal")
            return DslType(Kind.SCALAR, e.value.type)
        if isinstance(e, ast.CellRef):
            return self._cell_ref(e)
        if isinstance(e, ast.ColumnRef):
            return self._column_ref(e, scope)
        if isinstance(e, (ast.GetTable, ast.GetActive, ast.GetFormat)):
            return self._row_source(e)
        if isinstance(e, ast.TrueF):
            return DslType(Kind.FILTER)
        if isinstance(e, ast.Compare):
            return self._compare(e, scope)
        if isinstance(e, (ast.And, ast.Or)):
            self._expect(e.left, Kind.FILTER, scope)
            self._expect(e.right, Kind.FILTER, scope)
            return DslType(Kind.FILTER)
        if isinstance(e, ast.Not):
            self._expect(e.operand, Kind.FILTER, scope)
            return DslType(Kind.FILTER)
        if isinstance(e, ast.Reduce):
            return self._reduce(e)
        if isinstance(e, ast.Count):
            return self._count(e)
        if isinstance(e, ast.BinOp):
            return self._binop(e, scope)
        if isinstance(e, ast.Lookup):
            return self._lookup(e, scope)
        if isinstance(e, ast.SelectRows):
            return self._select_rows(e)
        if isinstance(e, ast.SelectCells):
            return self._select_cells(e)
        if isinstance(e, ast.FormatSpec):
            if not e.fns:
                raise DslTypeError("format spec must constrain something")
            return DslType(Kind.FORMAT)
        if isinstance(e, ast.MakeActive):
            self._expect(e.query, Kind.QUERY, scope)
            return DslType(Kind.PROGRAM)
        if isinstance(e, ast.FormatCells):
            self._expect(e.spec, Kind.FORMAT, scope)
            self._expect(e.query, Kind.QUERY, scope)
            return DslType(Kind.PROGRAM)
        raise DslTypeError(f"unknown expression kind: {type(e).__name__}")

    # -- helpers -----------------------------------------------------------

    def _expect(self, e: ast.Expr, kind: Kind, scope: str | None) -> DslType:
        # ``_SLOT_KINDS`` below mirrors every call of this, and the operand
        # checks of ``_compare``, ``_binop`` and ``_lookup``.
        t = self.type_of(e, scope)
        if t.kind is Kind.ANY or t.kind is kind:
            return t
        raise DslTypeError(f"expected {kind.value}, got {t} in {e}")

    def _default_table_key(self) -> str:
        return self.workbook.default_table.name.strip().lower()

    def _resolve_scope(self, scope: str | None) -> str:
        return scope if scope is not None else self._default_table_key()

    def _cell_ref(self, e: ast.CellRef) -> DslType:
        if self._cell_revision is None:
            # Captured before the read: a write in between leaves the
            # memos conservatively stale for ``refresh``, never fresh.
            self._cell_revision = current_revision()
        value = self.workbook.get_value(e.a1)
        if value.is_empty:
            # Cell refs to not-yet-filled cells default to NUMBER, the
            # common case for step-programming arithmetic over results.
            return DslType(Kind.SCALAR, ValueType.NUMBER)
        return DslType(Kind.SCALAR, value.type)

    def _column_ref(self, e: ast.ColumnRef, scope: str | None) -> DslType:
        table_key = (
            e.table.strip().lower() if e.table else self._resolve_scope(scope)
        )
        try:
            table = self.workbook.table(table_key)
            column = table.column(e.name)
        except (UnknownTableError, UnknownColumnError) as exc:
            raise DslTypeError(str(exc)) from exc
        return DslType(Kind.COLUMN, column.dtype, table_key)

    def _row_source(self, e: ast.Expr) -> DslType:
        if isinstance(e, ast.GetTable):
            key = (
                e.table.strip().lower() if e.table else self._default_table_key()
            )
            if not self.workbook.has_table(key):
                raise DslTypeError(f"unknown table {key!r}")
            return DslType(Kind.ROWSET, table=key)
        if isinstance(e, ast.GetActive):
            return DslType(Kind.ROWSET, table=self._default_table_key())
        assert isinstance(e, ast.GetFormat)
        self._expect(e.spec, Kind.FORMAT, None)
        key = e.table.strip().lower() if e.table else self._default_table_key()
        if not self.workbook.has_table(key):
            raise DslTypeError(f"unknown table {key!r}")
        return DslType(Kind.ROWSET, table=key)

    def _source_table(self, source: ast.Expr) -> str | None:
        """Table key of a row source; None when the source is still a hole."""
        t = self._expect(source, Kind.ROWSET, None)
        return t.table

    # -- comparisons ---------------------------------------------------------

    def _compare(self, e: ast.Compare, scope: str | None) -> DslType:
        lt = self.type_of(e.left, scope)
        rt = self.type_of(e.right, scope)
        in_scope = self._resolve_scope(scope)
        for t in (lt, rt):
            if t.kind not in (Kind.SCALAR, Kind.COLUMN, Kind.ANY):
                raise DslTypeError(f"filter operand has kind {t.kind.value}")
            if t.kind is Kind.COLUMN and t.table != in_scope:
                # "Each reference to a column name should be consistent with
                # the table in scope" — a filter over one table cannot test
                # another table's column.
                raise DslTypeError(
                    f"column from table {t.table!r} in a filter over "
                    f"{in_scope!r}"
                )
        if Kind.ANY not in (lt.kind, rt.kind):
            if Kind.COLUMN not in (lt.kind, rt.kind):
                raise DslTypeError("a comparison needs at least one column")
            if (
                lt.kind is Kind.COLUMN
                and rt.kind is Kind.COLUMN
                and isinstance(e.left, ast.ColumnRef)
                and isinstance(e.right, ast.ColumnRef)
                and lt.table == rt.table
                and e.left.name.strip().lower() == e.right.name.strip().lower()
            ):
                raise DslTypeError("comparison of a column with itself")
            self._check_comparable(e.op, lt, rt)
            if self.content_check:
                self._check_value_in_column(e)
        return DslType(Kind.FILTER)

    def _check_value_in_column(self, e: ast.Compare) -> None:
        """Content check: an equality between a text column and a text
        literal is only meaningful when the value actually occurs in that
        column.  This is the Valid-level face of the paper's context-driven
        value resolution ("the columns that contain the value ... must be
        identified"); it prunes spurious pairings like Eq(title, "capitol
        hill") that are type-correct but contradict the sheet."""
        if e.op is not ast.RelOp.EQ:
            return
        pairs = [(e.left, e.right), (e.right, e.left)]
        for column, literal in pairs:
            if not (
                isinstance(column, ast.ColumnRef)
                and isinstance(literal, ast.Lit)
                and literal.value.type is ValueType.TEXT
            ):
                continue
            ct = self.type_of(column)
            if ct.elem is not ValueType.TEXT or ct.table is None:
                continue
            table = self.workbook.table(ct.table)
            needle = str(literal.value.payload).strip().lower()
            column_name = table.column(column.name).name
            if not self.workbook.columnar_index().occurs_in(
                ct.table, needle, column_name
            ):
                raise DslTypeError(
                    f"value {needle!r} does not occur in column "
                    f"{column_name!r}"
                )

    def _check_comparable(self, op: ast.RelOp, lt: DslType, rt: DslType) -> None:
        a, b = lt.elem, rt.elem
        if a is None or b is None:
            return
        if op is ast.RelOp.EQ:
            # Strict same-type equality; this is what lets the type system
            # disambiguate $10 vs 10 against a currency column (paper §3.2).
            if a is not b:
                raise DslTypeError(f"cannot Eq {a.value} with {b.value}")
            return
        if a is not b or not a.is_orderable:
            raise DslTypeError(f"cannot order {a.value} vs {b.value}")

    # -- reductions ----------------------------------------------------------

    def _reduce(self, e: ast.Reduce) -> DslType:
        table = self._source_table(e.source)
        ct = self._expect(e.column, Kind.COLUMN, table)
        if ct.kind is not Kind.ANY and not (ct.elem and ct.elem.is_numeric):
            raise DslTypeError(
                f"{e.op.value} needs a numeric column, got {ct.elem}"
            )
        if ct.kind is Kind.COLUMN and table is not None and ct.table != table:
            raise DslTypeError(
                f"reduce column from {ct.table!r} over rows of {table!r}"
            )
        self._expect(e.condition, Kind.FILTER, table)
        return DslType(Kind.SCALAR, ct.elem)

    def _count(self, e: ast.Count) -> DslType:
        table = self._source_table(e.source)
        self._expect(e.condition, Kind.FILTER, table)
        return DslType(Kind.SCALAR, ValueType.NUMBER)

    # -- arithmetic -----------------------------------------------------------

    def _binop(self, e: ast.BinOp, scope: str | None) -> DslType:
        lt = self.type_of(e.left, scope)
        rt = self.type_of(e.right, scope)
        for t in (lt, rt):
            if t.kind not in (Kind.SCALAR, Kind.COLUMN, Kind.VECTOR, Kind.ANY):
                raise DslTypeError(f"arithmetic operand has kind {t.kind.value}")
        if Kind.ANY in (lt.kind, rt.kind):
            vectorish = [t for t in (lt, rt) if t.kind in (Kind.COLUMN, Kind.VECTOR)]
            if vectorish:
                return DslType(Kind.VECTOR, vectorish[0].elem, vectorish[0].table)
            return ANY
        elem = _unit_result(e.op, lt.elem, rt.elem)
        vector_tables = [
            t.table for t in (lt, rt) if t.kind in (Kind.COLUMN, Kind.VECTOR)
        ]
        if not vector_tables:
            return DslType(Kind.SCALAR, elem)
        # "Vector operations are defined only on vectors of the same size":
        # two same-table vectors always agree in length.
        if len(set(vector_tables)) > 1:
            raise DslTypeError("vector operands come from different tables")
        return DslType(Kind.VECTOR, elem, vector_tables[0])

    # -- lookup ----------------------------------------------------------------

    def _lookup(self, e: ast.Lookup, scope: str | None) -> DslType:
        table = self._source_table(e.source)
        kt = self._expect(e.key, Kind.COLUMN, table)
        ot = self._expect(e.out, Kind.COLUMN, table)
        for t in (kt, ot):
            if t.kind is Kind.COLUMN and table is not None and t.table != table:
                raise DslTypeError(
                    f"lookup column from {t.table!r} over rows of {table!r}"
                )
        nt = self.type_of(e.needle, scope)
        if nt.kind is Kind.ANY or kt.kind is Kind.ANY:
            pass
        elif nt.kind is Kind.SCALAR:
            if kt.elem is not None and nt.elem is not kt.elem:
                raise DslTypeError(
                    f"lookup needle {nt.elem} does not match key {kt.elem}"
                )
        elif nt.kind in (Kind.COLUMN, Kind.VECTOR):
            if kt.elem is not None and nt.elem is not kt.elem:
                raise DslTypeError(
                    f"lookup source column {nt.elem} does not match key {kt.elem}"
                )
        else:
            raise DslTypeError(f"bad lookup needle kind {nt.kind.value}")
        out_elem = ot.elem
        if nt.kind in (Kind.COLUMN, Kind.VECTOR):
            # Vector lookup: one output element per row of the *current*
            # table — the single-column join of paper §2.
            return DslType(Kind.VECTOR, out_elem, nt.table)
        return DslType(Kind.SCALAR, out_elem)

    # -- queries -----------------------------------------------------------------

    def _select_rows(self, e: ast.SelectRows) -> DslType:
        table = self._source_table(e.source)
        self._expect(e.condition, Kind.FILTER, table)
        return DslType(Kind.QUERY, table=table)

    def _select_cells(self, e: ast.SelectCells) -> DslType:
        table = self._source_table(e.source)
        if not e.columns:
            raise DslTypeError("SelectCells needs at least one column")
        for col in e.columns:
            t = self._expect(col, Kind.COLUMN, table)
            if t.kind is Kind.COLUMN and table is not None and t.table != table:
                raise DslTypeError(
                    f"selected column from {t.table!r} over rows of {table!r}"
                )
        self._expect(e.condition, Kind.FILTER, table)
        return DslType(Kind.QUERY, table=table)


# -- structural kinds and hole admission ---------------------------------------
#
# Whether a hole can take a binding, decided before substituting (the
# type-directed closure of paper §3.3.2).  A binding's *filler class* is
# its syntactic class (what ``holes.consistent`` reads) crossed with its
# kind; a hole's *admission* is the set of classes it can take, as a
# bitmask over classes.  Both depend on node classes alone, never on a
# workbook or a scope, so they are cached on the (interned) node.  Each is
# a necessary condition of ``holes.substitute`` returning an expression:
# whenever a hole does not admit a binding's class, the substitution fails
# its restriction or ``Valid``.

_KIND_BIT = {kind: 1 << k for k, kind in enumerate(Kind)}
_N_KINDS = len(_KIND_BIT)

# Kinds of the node classes whose kind does not depend on their children.
# ``BinOp`` and ``Lookup`` read their children's (see ``kind_of``).
_NODE_KINDS = {
    ast.Hole: Kind.ANY,
    ast.Lit: Kind.SCALAR,
    ast.CellRef: Kind.SCALAR,
    ast.ColumnRef: Kind.COLUMN,
    ast.GetTable: Kind.ROWSET,
    ast.GetActive: Kind.ROWSET,
    ast.GetFormat: Kind.ROWSET,
    ast.TrueF: Kind.FILTER,
    ast.Compare: Kind.FILTER,
    ast.And: Kind.FILTER,
    ast.Or: Kind.FILTER,
    ast.Not: Kind.FILTER,
    ast.Reduce: Kind.SCALAR,
    ast.Count: Kind.SCALAR,
    ast.SelectRows: Kind.QUERY,
    ast.SelectCells: Kind.QUERY,
    ast.FormatSpec: Kind.FORMAT,
    ast.MakeActive: Kind.PROGRAM,
    ast.FormatCells: Kind.PROGRAM,
}


def kind_of(expr: ast.Expr) -> Kind:
    """The kind ``TypeChecker.type_of(expr, scope)`` returns whenever it
    succeeds, for any scope and workbook, read off node classes alone.

    A ``BinOp`` is a vector if an operand is a column or a vector, else
    ``ANY`` if an operand is, else a scalar; a ``Lookup`` is a vector when
    its needle is a column or a vector.  Those two are cached on the node.
    """
    kind = _NODE_KINDS.get(type(expr))
    if kind is not None:
        return kind
    kind = expr.__dict__.get("_kind")
    if kind is not None:
        return kind
    if isinstance(expr, ast.BinOp):
        kinds = (kind_of(expr.left), kind_of(expr.right))
        if Kind.COLUMN in kinds or Kind.VECTOR in kinds:
            kind = Kind.VECTOR
        elif Kind.ANY in kinds:
            kind = Kind.ANY
        else:
            kind = Kind.SCALAR
    else:  # a Lookup
        vector = kind_of(expr.needle) in (Kind.COLUMN, Kind.VECTOR)
        kind = Kind.VECTOR if vector else Kind.SCALAR
    object.__setattr__(expr, "_kind", kind)
    return kind


# Syntactic classes: what ``holes.consistent`` reads of a binding.
_NUMERIC_LIT, _DATE_LIT, _OTHER_LIT, _CELL_REF, _COLUMN_REF, _OTHER = range(6)
_SYNTAX = {ast.CellRef: _CELL_REF, ast.ColumnRef: _COLUMN_REF}
_LIT_SYNTAX = {
    ValueType.NUMBER: _NUMERIC_LIT,
    ValueType.CURRENCY: _NUMERIC_LIT,
    ValueType.DATE: _DATE_LIT,
}

# The syntactic classes each hole restriction accepts, mirroring
# ``holes.consistent`` (V also takes empty literals, which never type-check).
_RESTRICTION_SYNTAX = {
    ast.HoleKind.GENERAL: range(6),
    ast.HoleKind.LITERAL: (_NUMERIC_LIT, _DATE_LIT, _CELL_REF),
    ast.HoleKind.COLUMN: (_COLUMN_REF,),
    ast.HoleKind.VALUE: (_DATE_LIT, _OTHER_LIT),
}


def filler_class(expr: ast.Expr) -> int:
    """``expr``'s filler class, as the one bit an admission mask tests:
    its syntactic class crossed with its kind.  Cached on the node."""
    cls = expr.__dict__.get("_class")
    if cls is None:
        node = type(expr)
        if node is ast.Lit:
            syntax = _LIT_SYNTAX.get(expr.value.type, _OTHER_LIT)
        else:
            syntax = _SYNTAX.get(node, _OTHER)
        cls = _KIND_BIT[kind_of(expr)] << (syntax * _N_KINDS)
        object.__setattr__(expr, "_class", cls)
    return cls


# The class of every closed filter: the only closed derivations that merge
# under an implicit ``And``.
FILTER_CLASS = _KIND_BIT[Kind.FILTER] << (_OTHER * _N_KINDS)


def _kinds(*kinds: Kind) -> int:
    """A slot's accepted kinds as a mask; a hole's ``ANY`` fits every slot."""
    mask = _KIND_BIT[Kind.ANY]
    for kind in kinds:
        mask |= _KIND_BIT[kind]
    return mask


_ALL_KINDS = _kinds(*Kind)
_FILTER_SLOT = _kinds(Kind.FILTER)
_ROWSET_SLOT = _kinds(Kind.ROWSET)
_COLUMN_SLOT = _kinds(Kind.COLUMN)
_COMPARE_SLOT = _kinds(Kind.SCALAR, Kind.COLUMN)
_ARITH_SLOT = _kinds(Kind.SCALAR, Kind.COLUMN, Kind.VECTOR)

# The kinds each child slot accepts, per node class, in ``_child_fields``
# order (a tuple field's mask covers each of its elements).  A lookup's
# needle takes every kind: ``_lookup`` skips the needle check while the key
# types as ``ANY``, and the key may be a hole.
_SLOT_KINDS = {
    ast.GetFormat: (_kinds(Kind.FORMAT),),
    ast.Compare: (_COMPARE_SLOT, _COMPARE_SLOT),
    ast.And: (_FILTER_SLOT, _FILTER_SLOT),
    ast.Or: (_FILTER_SLOT, _FILTER_SLOT),
    ast.Not: (_FILTER_SLOT,),
    ast.Reduce: (_COLUMN_SLOT, _ROWSET_SLOT, _FILTER_SLOT),
    ast.Count: (_ROWSET_SLOT, _FILTER_SLOT),
    ast.BinOp: (_ARITH_SLOT, _ARITH_SLOT),
    ast.Lookup: (_ALL_KINDS, _ROWSET_SLOT, _COLUMN_SLOT, _COLUMN_SLOT),
    ast.SelectRows: (_ROWSET_SLOT, _FILTER_SLOT),
    ast.SelectCells: (_COLUMN_SLOT, _ROWSET_SLOT, _FILTER_SLOT),
    ast.MakeActive: (_kinds(Kind.QUERY),),
    ast.FormatCells: (_kinds(Kind.FORMAT), _kinds(Kind.QUERY)),
}


class Admission(NamedTuple):
    """What the holes of one expression admit.  ``by_hole`` is aligned
    with ``holes.holes_of(expr)``: each entry is the mask of that hole's
    ident, shared by every occurrence of the ident.  ``mask`` is their
    union: whether any hole takes a class."""

    mask: int
    by_hole: tuple[int, ...]


def admission(expr: ast.Expr) -> Admission:
    """The classes each hole ident of ``expr`` can take.  Cached on the
    node.

    An ident admits the classes its restriction accepts crossed with the
    kinds that *every* occurrence's slot accepts.  The restriction is the
    last occurrence's in pre-order: ``holes.substitute`` checks only that
    one when an ident carries two.
    """
    cached = expr.__dict__.get("_admission")
    if cached is not None:
        return cached
    slots: list[tuple[ast.Hole, int]] = []
    _hole_slots(expr, _ALL_KINDS, slots)
    kinds: dict[int, int] = {}
    restriction: dict[int, ast.HoleKind] = {}
    for hole, slot in slots:
        kinds[hole.ident] = kinds.get(hole.ident, _ALL_KINDS) & slot
        restriction[hole.ident] = hole.kind
    by_ident = {}
    for ident, accepted in kinds.items():
        mask = 0
        for syntax in _RESTRICTION_SYNTAX[restriction[ident]]:
            mask |= accepted << (syntax * _N_KINDS)
        by_ident[ident] = mask
    by_hole = tuple(by_ident[hole.ident] for hole, _ in slots)
    union = 0
    for mask in by_ident.values():
        union |= mask
    result = Admission(union, by_hole)
    object.__setattr__(expr, "_admission", result)
    return result


def _hole_slots(
    expr: ast.Expr, slot: int, out: list[tuple[ast.Hole, int]]
) -> None:
    """Every hole of ``expr`` in pre-order (as ``holes.holes_of`` lists
    them), with the kinds its slot accepts."""
    if isinstance(expr, ast.Hole):
        out.append((expr, slot))
        return
    masks = _SLOT_KINDS.get(type(expr), ())
    for name, mask in zip(expr._child_fields, masks):
        value = getattr(expr, name)
        for child in (value,) if isinstance(value, ast.Expr) else value:
            _hole_slots(child, mask, out)


def _unit_result(
    op: ast.BinaryOp, a: ValueType | None, b: ValueType | None
) -> ValueType | None:
    """Dimensional-unit arithmetic over NUMBER and CURRENCY (paper §2 cites
    Osprey-style unit checking [12])."""
    if a is None or b is None:
        return a or b
    for t in (a, b):
        if not t.is_numeric:
            raise DslTypeError(f"arithmetic on non-numeric type {t.value}")
    num, cur = ValueType.NUMBER, ValueType.CURRENCY
    if op in (ast.BinaryOp.ADD, ast.BinaryOp.SUB):
        if a is b:
            return a
        raise DslTypeError(f"cannot {op.value} {a.value} and {b.value}")
    if op is ast.BinaryOp.MULT:
        if a is cur and b is cur:
            raise DslTypeError("cannot multiply two currency values")
        return cur if cur in (a, b) else num
    # DIV
    if a is cur and b is cur:
        return num
    if a is cur and b is num:
        return cur
    if a is num and b is num:
        return num
    raise DslTypeError("cannot divide a number by a currency")
