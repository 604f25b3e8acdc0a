"""SLO lane — Poisson load against a server, then ``/slo``.

The telemetry plane is always on, so this lane drives the open-loop
Poisson generator from :mod:`bench_http` against a stock server,
layers a fault-injected error storm on top under known trace ids, and
then reads the plane back out over HTTP:

* ``GET /slo`` must parse, carry every configured objective with its
  window/burn/alert ladder, and reflect the storm in the availability
  error counts;
* ``GET /traces?sampled=1`` must retain **100% of the error traces**
  (by their caller-chosen ``X-Repro-Trace-Id``) while the sampler's
  byte accounting stays under its hard cap.

Artifacts: the run writes ``slo_report.json`` and
``sampled_traces.jsonl`` (override the directory with
``REPRO_BENCH_SLO_DIR``) — CI uploads both — and appends a row to the
``BENCH_obs.json`` trajectory (``REPRO_BENCH_OBS_OUT``).

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_slo.py -q
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import time
from pathlib import Path

import pytest

from bench_http import _SAMPLE, SENTENCES, _BenchServer, _one_request, run_load

RATE = float(os.environ.get("REPRO_SLO_BENCH_RPS", "40.0"))
ERRORS = int(os.environ.get("REPRO_SLO_BENCH_ERRORS", "25"))
_FAULTS = "tokenize:raise:runtime"


def _get(port: int, path: str, headers: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def _faulted_request(port: int, trace_id: str) -> tuple[int, str | None]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", "/translate",
            body=json.dumps({"sentence": SENTENCES[0], "faults": _FAULTS}),
            headers={
                "Content-Type": "application/json",
                "X-Repro-Trace-Id": trace_id,
            },
        )
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        code = (payload.get("result") or payload).get("error_code")
        return response.status, code
    finally:
        conn.close()


@pytest.fixture(scope="module")
def slo_run():
    """One served storm: Poisson good load + a deliberate error burst."""
    error_ids = [f"slo-bench-err-{i}" for i in range(ERRORS)]
    with _BenchServer() as bench:
        for _ in range(2):  # warm the pool
            _one_request(bench.port, SENTENCES[0])
        load = run_load(bench.port, RATE, _SAMPLE)
        for trace_id in error_ids:
            status, code = _faulted_request(bench.port, trace_id)
            assert status == 500 and code == "internal_error", (status, code)
        slo_status, slo_body = _get(bench.port, "/slo")
        traces_status, traces_body = _get(bench.port, "/traces?sampled=1")
    return {
        "error_ids": error_ids,
        "load": load,
        "slo": (slo_status, slo_body),
        "traces": (traces_status, traces_body),
    }


@pytest.fixture(scope="module")
def artifacts_dir():
    path = Path(os.environ.get("REPRO_BENCH_SLO_DIR", "slo-artifacts"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def test_slo_report_reflects_the_storm(benchmark, slo_run, artifacts_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    status, body = slo_run["slo"]
    assert status == 200
    report = json.loads(body)
    (artifacts_dir / "slo_report.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    assert report["scope"] == "gateway"
    by_name = {s["name"]: s for s in report["slos"]}
    assert "availability" in by_name
    availability = by_name["availability"]
    for window in ("5m", "1h", "6h"):
        assert window in availability["windows"]
    assert {a["rule"] for a in availability["alerts"]} == {"fast", "slow"}
    # The deliberate burst landed as availability-bad events.
    assert availability["windows"]["6h"]["bad"] >= len(slo_run["error_ids"])
    # The Poisson load landed as good events (cache misses and repeats).
    assert availability["windows"]["6h"]["good"] >= slo_run["load"]["served"]
    assert report["sampler"]["bytes"] <= report["sampler"]["max_bytes"]


def test_sampled_traces_retain_the_error_storm(
    benchmark, slo_run, artifacts_dir
):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    status, body = slo_run["traces"]
    assert status == 200
    (artifacts_dir / "sampled_traces.jsonl").write_text(body)
    records = [json.loads(line) for line in body.splitlines() if line]
    kept = {record["trace_id"] for record in records}
    missing = set(slo_run["error_ids"]) - kept
    assert not missing, f"{len(missing)} error traces lost: {sorted(missing)[:5]}"
    for record in records:
        if record["trace_id"] in set(slo_run["error_ids"]):
            assert record["verdict"] == "error"
            assert record["error_code"] == "internal_error"


def test_slo_trajectory_row(benchmark, slo_run):
    """Append the lane's headline numbers to the obs trajectory."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report = json.loads(slo_run["slo"][1])
    availability = next(
        s for s in report["slos"] if s["name"] == "availability"
    )
    row = {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "lane": "slo",
        "offered_rps": RATE,
        "served": slo_run["load"]["served"],
        "shed": slo_run["load"]["shed"],
        "errors_injected": len(slo_run["error_ids"]),
        "availability_6h_bad": availability["windows"]["6h"]["bad"],
        "budget_consumed": round(availability["budget_consumed"], 4),
        "sampler_bytes": report["sampler"]["bytes"],
        "python": sys.version.split()[0],
    }
    path = Path(os.environ.get("REPRO_BENCH_OBS_OUT", "BENCH_obs.json"))
    trajectory: list[dict] = []
    if path.exists():
        try:
            trajectory = json.loads(path.read_text())
        except (OSError, ValueError):
            trajectory = []
    trajectory.append(row)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"\nslo lane: {row}")
