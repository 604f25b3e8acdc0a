"""Golden digest of the Table 2 test split.

``table2_test.digest`` holds one line per description of the test split
(seed-2014 corpus, split order): a truncated sha256 of everything a
:class:`~repro.runtime.TranslationService` ranking shows, the sheet id and
the description.  A change that is meant to leave outputs alone must
reproduce it byte for byte.

Regenerate (only when outputs are *meant* to change) with::

    python scripts/regen_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.runtime import TranslationService

GOLDEN_PATH = Path(__file__).with_name("table2_test.digest")

# 64 bits per description: a collision between two distinct rankings of
# one description is not a practical concern.
DIGEST_HEX_CHARS = 16


def serialise_service(result, workbook) -> bytes:
    """Everything observable about a ranking, as bytes — including the
    Excel emission for the top candidate (the user-visible artefact)."""
    lines = [f"tier={result.tier} code={result.error_code}"]
    lines += [f"{c.program}\t{c.score!r}" for c in result.candidates]
    if result.top is not None:
        try:
            lines.append(f"excel={result.top.excel(workbook)}")
        except Exception:  # noqa: BLE001 - both modes must fail alike too
            lines.append("excel=<error>")
    return "\n".join(lines).encode()


def split_lines() -> list[str]:
    """Translate the whole test split once, one service per sheet, and
    return one ``"<digest> <sheet_id> <text>"`` line per description."""
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    services = {
        sheet_id: TranslationService(wb) for sheet_id, wb in workbooks.items()
    }
    lines = []
    for d in Corpus.default().test:
        result = services[d.sheet_id].translate(d.text)
        serialised = serialise_service(result, workbooks[d.sheet_id])
        digest = hashlib.sha256(serialised).hexdigest()[:DIGEST_HEX_CHARS]
        lines.append(f"{digest} {d.sheet_id} {d.text}")
    return lines


def read_golden() -> list[str]:
    return GOLDEN_PATH.read_text(encoding="utf-8").splitlines()


def write_golden(lines: list[str]) -> None:
    GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
