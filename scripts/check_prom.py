#!/usr/bin/env python
"""Lint a Prometheus text exposition (promtool-style, stdlib-only).

Usage::

    python scripts/check_prom.py metrics.txt [...]
    ... | python scripts/check_prom.py -        # read stdin

Exit 0 when every input lints clean, 1 with one line per violation
otherwise.  CI runs this over the text a server serves at
``GET /metrics`` (both the single-gateway and federated-cluster forms),
so a drive-by change to the renderer — a broken escape, a histogram
missing its ``+Inf`` bucket — fails the obs smoke lane rather than
silently producing an exposition scrapers reject.

Checks:

* **grammar** — metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label
  names ``[a-zA-Z_][a-zA-Z0-9_]*``, label values are double-quoted with
  only ``\\\\``, ``\\"``, ``\\n`` escapes, sample values parse as floats
  (``NaN``/``+Inf``/``-Inf`` allowed);
* **structure** — at most one ``# TYPE`` per metric, declared before any
  of its samples, with a known type; ``# HELP`` at most once;
* **histogram invariants** — every series has a ``le="+Inf"`` bucket,
  bucket counts are cumulative (non-decreasing as ``le`` grows),
  ``_count`` equals the ``+Inf`` bucket, and ``_sum``/``_count`` are
  both present;
* **duplicates** — no metric+labelset sampled twice;
* **exemplars** — an ``# {...} value`` suffix only on ``_bucket`` lines,
  with a parsable label set and value.
"""

from __future__ import annotations

import math
import re
import sys
from collections import defaultdict
from pathlib import Path

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[^\"{}]|\"(?:[^\"\\]|\\.)*\")*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?"
    r"(?P<exemplar>\s+#\s+\{.*\}\s+\S+(?:\s+\S+)?)?$"
)
LABEL_PAIR = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
VALID_ESCAPES = ("\\\\", '\\"', "\\n")


def base_name(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_value(text: str) -> float | None:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def check_label_value_escapes(raw: str) -> bool:
    i = 0
    while i < len(raw):
        if raw[i] == "\\":
            if i + 1 >= len(raw) or raw[i : i + 2] not in VALID_ESCAPES:
                return False
            i += 2
        elif raw[i] == '"':
            return False  # unescaped quote inside the value
        else:
            i += 1
    return True


def parse_labels(blob: str, where: str, errors: list[str]) -> dict[str, str]:
    labels: dict[str, str] = {}
    if not blob:
        return labels
    # Re-joining the matched pairs must reconstruct the blob; leftovers
    # mean malformed syntax (bare values, missing quotes, stray commas).
    consumed = 0
    for match in LABEL_PAIR.finditer(blob):
        name, raw = match.group("name"), match.group("value")
        if not LABEL_NAME.match(name):
            errors.append(f"{where}: bad label name {name!r}")
        if not check_label_value_escapes(raw):
            errors.append(f"{where}: bad escape in label value {raw!r}")
        if name in labels:
            errors.append(f"{where}: duplicate label {name!r}")
        labels[name] = raw
        consumed += len(match.group(0))
    separators = max(0, len(labels) - 1)
    if consumed + separators != len(blob.rstrip(",")):
        errors.append(f"{where}: malformed label set {{{blob}}}")
    return labels


class Exposition:
    """One parsed text exposition plus its violations."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.errors: list[str] = []
        self.types: dict[str, str] = {}
        self.helps: set[str] = set()
        self.seen_samples: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
        # histogram base -> labelset (minus le) -> {le: count}
        self.buckets: dict[str, dict[tuple, dict[float, float]]] = (
            defaultdict(lambda: defaultdict(dict))
        )
        self.sums: dict[str, dict[tuple, float]] = defaultdict(dict)
        self.counts: dict[str, dict[tuple, float]] = defaultdict(dict)

    def err(self, lineno: int, message: str) -> None:
        self.errors.append(f"{self.source}:{lineno}: {message}")

    def feed(self, lineno: int, line: str) -> None:
        if not line.strip():
            return
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not METRIC_NAME.match(parts[2]):
                self.err(lineno, f"malformed HELP line: {line!r}")
                return
            if parts[2] in self.helps:
                self.err(lineno, f"duplicate HELP for {parts[2]!r}")
            self.helps.add(parts[2])
            return
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not METRIC_NAME.match(parts[2]):
                self.err(lineno, f"malformed TYPE line: {line!r}")
                return
            name, kind = parts[2], parts[3]
            if kind not in KNOWN_TYPES:
                self.err(lineno, f"unknown type {kind!r} for {name!r}")
            if name in self.types:
                self.err(lineno, f"duplicate TYPE for {name!r}")
            self.types[name] = kind
            return
        if line.startswith("#"):
            return  # plain comment
        self.sample(lineno, line)

    def sample(self, lineno: int, line: str) -> None:
        match = SAMPLE.match(line)
        if match is None:
            self.err(lineno, f"unparsable sample: {line!r}")
            return
        name = match.group("name")
        base = base_name(name)
        declared = self.types.get(base) or self.types.get(name)
        if declared is None:
            self.err(lineno, f"sample {name!r} before any TYPE declaration")
        value = parse_value(match.group("value"))
        if value is None:
            self.err(
                lineno, f"bad sample value {match.group('value')!r}"
            )
            return
        where = f"{self.source}:{lineno}"
        labels = parse_labels(
            match.group("labels") or "", where, self.errors
        )
        if match.group("exemplar") and not name.endswith("_bucket"):
            self.err(lineno, f"exemplar on non-bucket sample {name!r}")
        key = (name, tuple(sorted(labels.items())))
        if key in self.seen_samples:
            self.err(lineno, f"duplicate sample {name}{dict(labels)}")
        self.seen_samples.add(key)

        if declared == "histogram":
            series = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            if name.endswith("_bucket"):
                le = labels.get("le")
                bound = parse_value(le) if le is not None else None
                if bound is None:
                    self.err(lineno, f"bucket without a parsable le: {line!r}")
                    return
                self.buckets[base][series][bound] = value
            elif name.endswith("_sum"):
                self.sums[base][series] = value
            elif name.endswith("_count"):
                self.counts[base][series] = value

    def finish(self) -> None:
        for base, by_series in self.buckets.items():
            for series, by_le in by_series.items():
                labels = dict(series)
                if math.inf not in by_le:
                    self.errors.append(
                        f"{self.source}: histogram {base}{labels} has no "
                        f'le="+Inf" bucket'
                    )
                    continue
                ordered = [by_le[le] for le in sorted(by_le)]
                if any(b > a for a, b in zip(ordered[1:], ordered)):
                    self.errors.append(
                        f"{self.source}: histogram {base}{labels} buckets "
                        "are not cumulative"
                    )
                count = self.counts.get(base, {}).get(series)
                if count is None:
                    self.errors.append(
                        f"{self.source}: histogram {base}{labels} "
                        "missing _count"
                    )
                elif count != by_le[math.inf]:
                    self.errors.append(
                        f"{self.source}: histogram {base}{labels} _count "
                        f'{count} != le="+Inf" bucket {by_le[math.inf]}'
                    )
                if series not in self.sums.get(base, {}):
                    self.errors.append(
                        f"{self.source}: histogram {base}{labels} missing _sum"
                    )


def lint(text: str, source: str = "<text>") -> list[str]:
    exposition = Exposition(source)
    for lineno, line in enumerate(text.splitlines(), start=1):
        exposition.feed(lineno, line)
    exposition.finish()
    return exposition.errors


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0])
        print("usage: python scripts/check_prom.py FILE [FILE ...] (or -)")
        return 2
    failures = 0
    for arg in argv:
        if arg == "-":
            errors = lint(sys.stdin.read(), "<stdin>")
        elif not Path(arg).exists():
            errors = [f"{arg}: no such file"]
        else:
            errors = lint(Path(arg).read_text(), arg)
        if errors:
            failures += 1
            for error in errors:
                print(error, file=sys.stderr)
        else:
            print(f"{arg}: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
