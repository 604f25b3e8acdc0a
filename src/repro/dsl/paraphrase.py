"""Paraphrase DSL programs into structured, unambiguous English (paper §4).

"Translation into structured English is supported since many end users
struggle with understanding Excel formulas."  The running example renders as
``sum up the totalpay where title = barista and location = capitol hill``.
"""

from __future__ import annotations

from ..errors import EvaluationError
from . import ast

_REDUCE_PHRASE = {
    ast.ReduceOp.SUM: "sum up",
    ast.ReduceOp.AVG: "average",
    ast.ReduceOp.MIN: "take the minimum of",
    ast.ReduceOp.MAX: "take the maximum of",
}
_BINOP_PHRASE = {
    ast.BinaryOp.ADD: "plus",
    ast.BinaryOp.SUB: "minus",
    ast.BinaryOp.MULT: "times",
    ast.BinaryOp.DIV: "divided by",
}
# "X times Y" reads with times binding tighter, so a sum or difference on
# the left of a product or quotient is grouped by a leading verb instead:
# "multiply basepay plus otpay by 1.1" is (basepay + otpay) * 1.1.
_GROUPED_PHRASE = {
    ast.BinaryOp.MULT: "multiply",
    ast.BinaryOp.DIV: "divide",
}
_ADDITIVE = (ast.BinaryOp.ADD, ast.BinaryOp.SUB)
_RELOP_PHRASE = {
    ast.RelOp.EQ: "=",
    ast.RelOp.LT: "<",
    ast.RelOp.GT: ">",
}


def paraphrase(program: ast.Expr) -> str:
    """English rendering of a complete program.

    Shown in the UI when the user hovers over the Excel formula, so it must
    read naturally but stay unambiguous.
    """
    if isinstance(program, ast.MakeActive):
        return f"select {_query(program.query)}"
    if isinstance(program, ast.FormatCells):
        fmt = " and ".join(fn.describe() for fn in program.spec.fns)
        return f"apply {fmt} to {_query(program.query)}"
    return _value(program)


def _query(q: ast.Expr) -> str:
    if isinstance(q, ast.SelectRows):
        head = f"the rows{_of_source(q.source)}"
        return head + _where(q.condition)
    if isinstance(q, ast.SelectCells):
        cols = " and ".join(_value(c) for c in q.columns)
        head = f"the {cols} cells{_of_source(q.source)}"
        return head + _where(q.condition)
    raise EvaluationError(f"not a query: {q}")


def _of_source(rs: ast.Expr) -> str:
    if isinstance(rs, ast.GetTable):
        return f" of {rs.table}" if rs.table else ""
    if isinstance(rs, ast.GetActive):
        return " of the current selection"
    if isinstance(rs, ast.GetFormat):
        attrs = " and ".join(fn.describe() for fn in rs.spec.fns)
        where = f" of {rs.table}" if rs.table else ""
        return f"{where} with {attrs}"
    if isinstance(rs, ast.Hole):
        return f" of {rs}"
    raise EvaluationError(f"not a row source: {rs}")


def _where(f: ast.Expr) -> str:
    if isinstance(f, ast.TrueF):
        return ""
    return f" where {_filter(f)}"


def _filter(f: ast.Expr) -> str:
    if isinstance(f, ast.TrueF):
        return "always"
    if isinstance(f, ast.And):
        return f"{_filter(f.left)} and {_filter(f.right)}"
    if isinstance(f, ast.Or):
        return f"{_filter(f.left)} or {_filter(f.right)}"
    if isinstance(f, ast.Not):
        inner = f.operand
        if isinstance(inner, ast.Compare) and inner.op is ast.RelOp.EQ:
            return f"{_value(inner.left)} is not {_value(inner.right)}"
        return f"not ({_filter(inner)})"
    if isinstance(f, ast.Compare):
        return f"{_value(f.left)} {_RELOP_PHRASE[f.op]} {_value(f.right)}"
    if isinstance(f, ast.Hole):
        return str(f)
    raise EvaluationError(f"not a filter: {f}")


def _value(e: ast.Expr) -> str:
    if isinstance(e, ast.Lit):
        return e.value.display()
    if isinstance(e, ast.CellRef):
        return e.a1.upper()
    if isinstance(e, ast.ColumnRef):
        return f"{e.table} {e.name}" if e.table else e.name
    if isinstance(e, ast.Reduce):
        head = f"{_REDUCE_PHRASE[e.op]} the {_value(e.column)}"
        return head + _source_suffix(e.source) + _where(e.condition)
    if isinstance(e, ast.Count):
        return f"count the rows{_source_suffix(e.source)}" + _where(e.condition)
    if isinstance(e, ast.BinOp):
        left, right = _value(e.left), _value(e.right)
        if e.op in _GROUPED_PHRASE and _is_additive(e.left):
            return f"{_GROUPED_PHRASE[e.op]} {left} by {right}"
        # A sum or difference on the right reads left to right as if the
        # left pair were grouped ("totalpay minus basepay plus otpay" is
        # (totalpay - basepay) + otpay), so it leads with a verb too.
        if e.op is ast.BinaryOp.SUB and _is_additive(e.right):
            return f"subtract {right} from {left}"
        if e.op is ast.BinaryOp.MULT and _is_additive(e.right):
            return f"multiply {right} by {left}"
        return f"{left} {_BINOP_PHRASE[e.op]} {right}"
    if isinstance(e, ast.Lookup):
        return (
            f"look up {_value(e.needle)} in {_value(e.key)}"
            f"{_source_suffix(e.source)} and take {_value(e.out)}"
        )
    if isinstance(e, ast.Hole):
        return str(e)
    raise EvaluationError(f"cannot paraphrase {e}")


def _is_additive(e: ast.Expr) -> bool:
    return isinstance(e, ast.BinOp) and e.op in _ADDITIVE


def _source_suffix(rs: ast.Expr) -> str:
    text = _of_source(rs)
    return text
