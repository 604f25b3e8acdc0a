"""The Table 2 test split still translates to its committed golden digest.

One pass through ``TranslationService`` over the whole split (seed-2014
corpus), compared line by line with ``tests/golden/table2_test.digest``.
The digest covers tier, error code, every candidate's program and
``repr(score)``, and the top candidate's Excel, so any change to a ranking,
a score bit or an emitted formula names the first description it touched.
Regenerate with ``python scripts/regen_golden.py`` only when outputs are
meant to change.
"""

from __future__ import annotations

from .golden.digest import first_difference, read_golden, split_lines


def test_table2_split_matches_golden_digest():
    difference = first_difference(read_golden(), split_lines())
    assert difference is None, difference
