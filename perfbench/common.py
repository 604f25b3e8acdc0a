"""Helpers shared by the perfbench workloads.

Statistics over latency samples, memory readings, and the fold of the
program's span records into per-layer times.  Nothing here imports the
program: the workloads do that themselves, inside their timed set-up.
"""

from __future__ import annotations

import os
import resource
from collections import defaultdict

# The translator's DP stages, each timed by a ``translate.<stage>`` span.
STAGES = ("tokenize", "seeds", "rules", "synthesis", "rank")


def quantile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of an ascending list, interpolating linearly
    between the two nearest order statistics."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_metrics(seconds: list[float]) -> dict[str, float]:
    """Mean and the p50/p95/p99 of a latency sample, in milliseconds."""
    ordered = sorted(seconds)
    return {
        "latency_ms_mean": 1000.0 * sum(ordered) / len(ordered),
        "latency_ms_p50": 1000.0 * quantile(ordered, 0.50),
        "latency_ms_p95": 1000.0 * quantile(ordered, 0.95),
        "latency_ms_p99": 1000.0 * quantile(ordered, 0.99),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory (``VmHWM``) of ``pid`` and every
    live descendant.  Pages shared copy-on-write after ``fork`` count once
    per process, so this is an upper bound on the tree's footprint."""
    total_kib = 0
    for proc in _descendants(pid) | {pid}:
        try:
            with open(f"/proc/{proc}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between listing and reading
    return total_kib / 1024.0


def _descendants(pid: int) -> set[int]:
    found: set[int] = set()
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            for child in children:
                if child not in found:
                    found.add(child)
                    frontier.append(child)
    return found


class SpanTally:
    """Running per-layer sums over the program's finished span records.

    Self time of a span is its duration minus the durations of its direct
    children, so the stage spans plus the ``translate`` self time add up
    to the ``translate`` span, and ``service.request`` minus the
    ``translate`` spans under it is the runtime layer's own time.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.derivations = 0

    def add(self, records: list[dict]) -> None:
        child_seconds: dict[str, float] = defaultdict(float)
        for record in records:
            if record.get("parent_id"):
                child_seconds[record["parent_id"]] += record["duration"]
        for record in records:
            name = record["name"]
            self.seconds[name] += record["duration"]
            self.counts[name] += 1
            if name == "translate":
                self.seconds["translate.self"] += (
                    record["duration"] - child_seconds[record["span_id"]]
                )
            elif name in ("translate.seeds", "translate.rules",
                          "translate.synthesis"):
                attrs = record.get("attrs") or {}
                self.derivations += int(attrs.get("derivations") or 0)

    @property
    def translations(self) -> int:
        return self.counts["service.request"]

    def translate_layers(self) -> dict[str, float]:
        """The ``repro.translate`` and ``repro.runtime`` metrics, as means
        per translation (milliseconds for times)."""
        per = max(self.translations, 1)
        out = {
            f"translate.{stage}_ms":
                1000.0 * self.seconds[f"translate.{stage}"] / per
            for stage in STAGES
        }
        out["translate.dp_ms"] = 1000.0 * self.seconds["translate.self"] / per
        out["translate.cells"] = self.counts["translate.seeds"] / per
        out["translate.derivations"] = self.derivations / per
        out["service.self_ms"] = 1000.0 * (
            self.seconds["service.request"] - self.seconds["translate"]
        ) / per
        out["service.tiers"] = self.counts["service.tier"] / per
        return out


# Per-layer metrics of modules a workload does not run, reported as zero
# so every traced result carries the same names.
_IDLE = {
    "sheet": ("sheet.index_ms", "sheet.index_builds"),
    "dsl": ("dsl.evaluate_ms", "dsl.emit_ms"),
    "session": ("session.present_ms",),
    "cluster": ("cluster.hit_frac", "cluster.hit_ms", "cluster.attempts"),
    "gateway": ("gateway.queue_ms", "gateway.worker_ms",
                "gateway.overhead_ms"),
    "http": ("http.self_ms",),
}


def idle_layers(*modules: str) -> dict[str, float]:
    """Zero for every per-layer metric of ``modules``."""
    return {name: 0.0 for module in modules for name in _IDLE[module]}
