"""The per-fragment alignment search: a reference oracle.

Production aligns through :class:`repro.translate.alignment.AlignmentChart`,
which runs one search per (template, start) and files every alignment
under the position where it ends.  The search here is the one the DP used
to run for every span on its own: the fragment's tokens only, a
suffix-width table rebuilt per call, and a stop after ``cap`` alignments.
It exists only to check the chart against (``test_alignment_chart.py``).
"""

from __future__ import annotations

from repro.translate.alignment import Alignment, _min_width
from repro.translate.context import SheetContext
from repro.translate.patterns import Pattern
from repro.translate.tokenizer import Token


def align(
    template: tuple[Pattern, ...],
    tokens: list[Token],
    ctx: SheetContext,
    cap: int = 16,
) -> list[Alignment]:
    """The first ``cap`` alignments of ``template`` over the whole of
    ``tokens``, in backtracking order."""
    n = len(tokens)
    min_suffix = [0] * (len(template) + 1)
    for i in range(len(template) - 1, -1, -1):
        min_suffix[i] = min_suffix[i + 1] + _min_width(template[i])
    if min_suffix[0] > n:
        return []

    results: list[Alignment] = []
    ranges: list[tuple[int, int]] = []

    def recurse(pattern_index: int, pos: int) -> None:
        if len(results) >= cap:
            return
        if pattern_index == len(template):
            if pos == n:
                results.append(tuple(ranges))
            return
        # Remaining patterns must still be able to tile the rest.
        if pos + min_suffix[pattern_index] > n:
            return
        pattern = template[pattern_index]
        for end in pattern.ends(tokens, pos, n, ctx):
            if end + min_suffix[pattern_index + 1] > n:
                continue
            ranges.append((pos, end))
            recurse(pattern_index + 1, end)
            ranges.pop()
            if len(results) >= cap:
                return

    recurse(0, 0)
    return results
