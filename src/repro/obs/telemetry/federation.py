"""Cross-shard metric federation: one ``/metrics`` view over N registries.

:func:`merge_states` is the pure fold: counters and gauges sum per label
set, histograms add bucket-wise (exact, because every series shares
fixed bounds).  The cluster merges its own registry with every shard
gateway's, all in one process::

    gateway registry x N + cluster registry --merge--> federated view --> /metrics

A gateway records its workers' series (``worker_*``) itself, from the
fields of each reply, so no registry state crosses a process boundary.
A shape conflict (mismatched histogram bounds, a kind collision) raises
:class:`ValueError`.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["merge_states"]


def _series_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def merge_states(*states: Mapping[str, Any]) -> dict[str, Any]:
    """Fold N registry states into one: the federated view.

    Counters and gauges sum per label set; histograms add bucket-wise
    and keep the freshest exemplar per bucket (later states win, so
    callers list shards in a stable order).  A metric name registered
    with conflicting kinds or bounds raises :class:`ValueError` —
    federation never papers over a schema disagreement.
    """
    merged: dict[str, Any] = {}
    for state in states:
        for name, metric in state.items():
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    "kind": metric["kind"],
                    "help": metric["help"],
                    "series": {},
                }
                if "bounds" in metric:
                    target["bounds"] = list(metric["bounds"])
            if target["kind"] != metric["kind"]:
                raise ValueError(
                    f"metric {name!r}: cannot merge kind "
                    f"{metric['kind']!r} into {target['kind']!r}"
                )
            if metric["kind"] == "histogram" and list(
                metric.get("bounds", ())
            ) != target.get("bounds"):
                raise ValueError(
                    f"metric {name!r}: cannot merge histograms with "
                    "different bucket bounds"
                )
            for series in metric["series"]:
                key = _series_key(series["labels"])
                slot = target["series"].get(key)
                if slot is None:
                    slot = target["series"][key] = {
                        "labels": dict(series["labels"])
                    }
                    if metric["kind"] == "histogram":
                        slot["buckets"] = [0] * len(series["buckets"])
                        slot["sum"] = 0.0
                        slot["count"] = 0
                    else:
                        slot["value"] = 0.0
                if metric["kind"] == "histogram":
                    for i, n in enumerate(series["buckets"]):
                        slot["buckets"][i] += n
                    slot["sum"] += series["sum"]
                    slot["count"] += series["count"]
                    if series.get("exemplars"):
                        merged_exemplars = slot.setdefault("exemplars", {})
                        for index, exemplar in series["exemplars"].items():
                            merged_exemplars[int(index)] = dict(exemplar)
                else:
                    slot["value"] += series["value"]
    # Rebuild list-shaped series in deterministic label order.
    return {
        name: {
            **{k: v for k, v in metric.items() if k != "series"},
            "series": [
                metric["series"][key] for key in sorted(metric["series"])
            ],
        }
        for name, metric in merged.items()
    }

