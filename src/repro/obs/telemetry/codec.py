"""Versioned wire codec for federated telemetry state.

Registry state crosses two trust boundaries: worker → gateway (deltas
piggybacked on reply-pipe messages) and shard → cluster (whole-registry
folds behind the federated ``/metrics`` view).  Both sides follow one
discipline:

* **strict on decode** — a blob is either exactly what
  :func:`encode_state` produced (version match, known kinds, shaped
  series, histogram invariants) or :class:`TelemetryCodecError`; no
  best-effort repair, because a half-validated delta silently skews every
  downstream burn-rate computation;
* **droppable** — callers treat a decode failure as a dropped delta
  (counted in ``telemetry_fold_errors_total``), never a crash: a corrupt
  metrics blob from a worker must not take serving down;
* **compact deterministic JSON** — ``separators=(",", ":")``,
  ``ensure_ascii=False``, so identical state encodes to identical bytes.

The payload wraps a registry ``export_state()`` mapping (see
:meth:`repro.obs.metrics.MetricsRegistry.export_state`).
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from ...errors import TelemetryCodecError

__all__ = ["TELEMETRY_WIRE_VERSION", "decode_state", "encode_state"]

TELEMETRY_WIRE_VERSION = 1

_KINDS = ("counter", "gauge", "histogram")


def _fail(message: str) -> None:
    raise TelemetryCodecError(f"telemetry codec: {message}")


def _check_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        _fail(f"{where} must be finite, got {value!r}")
    return float(value)


def _check_labels(labels: Any, where: str) -> dict[str, str]:
    if not isinstance(labels, dict):
        _fail(f"{where}: labels must be an object")
    for key, value in labels.items():
        if not isinstance(key, str) or not isinstance(value, str):
            _fail(f"{where}: label {key!r} must map str to str")
    return labels


def _check_exemplars(exemplars: Any, buckets: int, where: str) -> None:
    if not isinstance(exemplars, dict):
        _fail(f"{where}: exemplars must be an object")
    for index, exemplar in exemplars.items():
        try:
            position = int(index)
        except (TypeError, ValueError):
            _fail(f"{where}: exemplar index {index!r} is not an integer")
        if not 0 <= position < buckets:
            _fail(f"{where}: exemplar index {position} out of range")
        if not isinstance(exemplar, dict):
            _fail(f"{where}: exemplar {index!r} must be an object")
        if not isinstance(exemplar.get("trace_id"), str):
            _fail(f"{where}: exemplar {index!r} needs a string trace_id")
        _check_number(exemplar.get("value"), f"{where}: exemplar value")


def _check_histogram(name: str, metric: Mapping[str, Any]) -> None:
    bounds = metric.get("bounds")
    if not isinstance(bounds, list) or not bounds:
        _fail(f"metric {name!r}: histogram needs a bounds list")
    previous = -math.inf
    for bound in bounds:
        bound = _check_number(bound, f"metric {name!r}: bound")
        if bound <= previous:
            _fail(f"metric {name!r}: bounds must be strictly increasing")
        previous = bound
    for series in metric["series"]:
        where = f"metric {name!r} series"
        buckets = series.get("buckets")
        if not isinstance(buckets, list):
            _fail(f"{where}: buckets must be a list")
        if len(buckets) != len(bounds) + 1:
            _fail(
                f"{where}: expected {len(bounds) + 1} buckets, "
                f"got {len(buckets)}"
            )
        total = 0
        for n in buckets:
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                _fail(f"{where}: bucket counts must be non-negative ints")
            total += n
        _check_number(series.get("sum"), f"{where}: sum")
        count = series.get("count")
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            _fail(f"{where}: count must be a non-negative int")
        if count != total:
            _fail(f"{where}: count {count} != bucket total {total}")
        if "exemplars" in series:
            _check_exemplars(series["exemplars"], len(buckets), where)


def _check_state(state: Any) -> dict[str, Any]:
    if not isinstance(state, dict):
        _fail("state must be an object of metrics")
    for name, metric in state.items():
        if not isinstance(name, str) or not name:
            _fail(f"metric name {name!r} must be a non-empty string")
        if not isinstance(metric, dict):
            _fail(f"metric {name!r} must be an object")
        kind = metric.get("kind")
        if kind not in _KINDS:
            _fail(f"metric {name!r}: unknown kind {kind!r}")
        if not isinstance(metric.get("help", ""), str):
            _fail(f"metric {name!r}: help must be a string")
        series_list = metric.get("series")
        if not isinstance(series_list, list):
            _fail(f"metric {name!r}: series must be a list")
        for series in series_list:
            if not isinstance(series, dict):
                _fail(f"metric {name!r}: each series must be an object")
            _check_labels(series.get("labels"), f"metric {name!r}")
        if kind == "histogram":
            _check_histogram(name, metric)
        else:
            for series in series_list:
                _check_number(
                    series.get("value"), f"metric {name!r}: series value"
                )
    return state


def encode_state(state: Mapping[str, Any]) -> bytes:
    """Serialise a registry ``export_state()`` mapping to wire bytes.

    Validates before encoding: shipping a malformed delta is a bug at
    the producer, and the strict decoder would only reject it later with
    less context.
    """
    _check_state(dict(state))
    try:
        payload = json.dumps(
            {"v": TELEMETRY_WIRE_VERSION, "metrics": state},
            ensure_ascii=False,
            separators=(",", ":"),
        )
    except (TypeError, ValueError) as exc:
        _fail(f"state is not JSON-serialisable: {exc}")
    return payload.encode("utf-8")


def decode_state(blob: bytes) -> dict[str, Any]:
    """Parse and validate wire bytes back into a state mapping.

    Raises :class:`TelemetryCodecError` on anything other than a valid
    current-version payload.
    """
    if not isinstance(blob, (bytes, bytearray)):
        _fail(f"blob must be bytes, got {type(blob).__name__}")
    try:
        document = json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        _fail(f"blob is not valid JSON: {exc}")
    if not isinstance(document, dict):
        _fail("payload must be a JSON object")
    version = document.get("v")
    if version != TELEMETRY_WIRE_VERSION:
        _fail(
            f"version mismatch: got {version!r}, "
            f"expected {TELEMETRY_WIRE_VERSION}"
        )
    return _check_state(document.get("metrics"))
