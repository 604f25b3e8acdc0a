#!/usr/bin/env python
"""Regenerate the golden digest of the Table 2 test split.

Usage (from the repository root)::

    python scripts/regen_golden.py

Translates every description of the test split once through
``TranslationService`` and rewrites ``tests/golden/table2_test.digest``
with one truncated sha256 per description (see ``tests/golden/digest.py``).
Rewrite the file only in a change that is meant to alter rankings, scores
or Excel output, and say so in it; ``tests/test_golden_digest.py`` checks
it otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.golden.digest import GOLDEN_PATH, split_lines, write_golden  # noqa: E402


def main() -> int:
    lines = split_lines()
    write_golden(lines)
    print(f"wrote {len(lines)} digests to {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
