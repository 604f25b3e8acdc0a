"""Golden digest of the Table 2 test split.

``table2_test.digest`` holds one line per description of the test split
(seed-2014 corpus, split order): a truncated sha256 of everything a
:class:`~repro.runtime.TranslationService` ranking shows, the sheet id and
the description.  A change that is meant to leave outputs alone must
reproduce it byte for byte.  The serving layers are checked against it
too: a gateway or cluster reply that carries every candidate serialises
(:func:`serialise_reply`) to the service's bytes.

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


def serialise_reply(result) -> bytes:
    """:func:`serialise_service`'s bytes for a gateway or cluster reply.

    The reply must carry every candidate (``top_k`` at least the
    candidate count).  A worker whose Excel rendering raised replies with
    ``top_formula=None``, which is the service's ``excel=<error>``.
    """
    lines = [f"tier={result.tier} code={result.error_code}"]
    lines += [f"{program}\t{score!r}" for program, score in result.programs]
    if result.programs:
        excel = result.top_formula
        lines.append(f"excel={'<error>' if excel is None else excel}")
    return "\n".join(lines).encode()


def golden_line(serialised: bytes, description) -> str:
    """One ``"<digest> <sheet_id> <text>"`` line of the golden file."""
    digest = hashlib.sha256(serialised).hexdigest()[:DIGEST_HEX_CHARS]
    return f"{digest} {description.sheet_id} {description.text}"


def split_lines() -> list[str]:
    """Translate the whole test split once, one service per sheet, and
    return one golden line per description."""
    workbooks = {sheet_id: build_sheet(sheet_id) for sheet_id in SHEET_ORDER}
    services = {
        sheet_id: TranslationService(wb) for sheet_id, wb in workbooks.items()
    }
    lines = []
    for d in Corpus.default().test:
        result = services[d.sheet_id].translate(d.text)
        lines.append(
            golden_line(serialise_service(result, workbooks[d.sheet_id]), d)
        )
    return lines


def golden_split(limit: str | None = None) -> list[tuple]:
    """The test split as ``(description, golden line)`` pairs.

    ``limit`` (a ``REPRO_DIFF_LIMIT`` value) evenly subsamples the split
    to that many descriptions; unset, empty or out of range keeps it all.
    """
    pairs = list(zip(Corpus.default().test, read_golden()))
    n = int(limit) if limit else 0
    if 0 < n < len(pairs):
        step = len(pairs) / n
        pairs = [pairs[int(k * step)] for k in range(n)]
    return pairs


def first_difference(golden: list[str], now: list[str]) -> str | None:
    """A message naming the first description whose line differs from
    its golden line, or ``None`` when every line matches."""
    if len(now) != len(golden):
        return f"{len(now)} lines against {len(golden)} golden lines"
    for k, (want, got) in enumerate(zip(golden, now)):
        if got != want:
            return (
                f"description {k + 1} of {len(golden)} changed its output:\n"
                f"  golden: {want}\n  now:    {got}"
            )
    return None


def read_golden() -> list[str]:
    return GOLDEN_PATH.read_text(encoding="utf-8").splitlines()


def write_golden(lines: list[str]) -> None:
    GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
