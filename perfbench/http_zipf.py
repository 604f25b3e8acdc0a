"""http-zipf: the deployed stack under an open-loop Zipf mix.

The program runs as ``python -m repro serve --http 0 --sheet payroll
--shards 2 --workers 1`` in its own process.  One client sends on an
open-loop Poisson schedule at a fixed rate over two keep-alive
connections, and times each request from when it was due.

Sentences are payroll descriptions of the paper's corpus (seed 2014):
sixteen hot ones, answered once during set-up, and first-seen ones spread
evenly over the ten payroll tasks and over sentence length.  One request
in each block of ten carries the next first-seen sentence; the others
repeat a sentence seen at least a second earlier, drawn with a Zipf skew
over popularity rank (hot ones first, then first-seen order).  The seed
drives the arrival times, the place of each first-seen request in its
block and the repeat draws; the sentences stay the same, because a few
first-seen sentences cost hundreds of milliseconds and which of them a
seed happened to pick would otherwise decide the tail.

Repeats are answered by the cluster's shared cache tier without touching
a worker, so the median measures HTTP, routing and the cache codec.
First-seen sentences are translated by the one worker that owns the
payroll fingerprint and set the tail.  They go out on one connection and
repeats on the other, so a repeat never waits in the client behind a
translation; first-seen sentences wait for each other there, as they
would on the one worker.  With 10% misses the worker stays well under
half busy, p50 is a hit, p95 the median miss and p99 the 90th-percentile
miss, so no reported percentile sits on the hit/miss boundary.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from common import (
    SpanTally, idle_layers, latency_metrics, process_tree_peak_rss_mb,
    quantile,
)

RATE = 50.0  # requests per second offered
MISS_SHARE = 0.10  # share of requests whose sentence is seen first
HOT_SENTENCES = 16  # the hottest repeats, answered during set-up
CORPUS_SEED = 2014  # the sentences come from the paper's corpus
REPEAT_GAP = 1.0  # s: a sentence repeats only this long after it was due
CONNECTIONS = 2
SLO_SECONDS = 0.100
LATE_SECONDS = 0.001  # the generator is late past this after a due time
REQUEST_TIMEOUT = 30.0
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0
TRACER_MAX_SPANS = 200_000
SHEET = "payroll"
SERVE_ARGS = ("serve", "--http", "0", "--sheet", SHEET,
              "--shards", "2", "--workers", "1")


class Plan:
    """The seeded inputs: the hot sentences and the timed schedule."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.cache import normalise_sentence
        from repro.dataset import Corpus

        rng = random.Random(seed)
        descriptions = Corpus.default(CORPUS_SEED).by_sheet(SHEET, "all")
        distinct: dict[str, object] = {}
        for description in _round_robin(descriptions):
            distinct.setdefault(normalise_sentence(description.text),
                                description)
        pool = list(distinct.values())
        hot, rest = pool[:HOT_SENTENCES], pool[HOT_SENTENCES:]
        n = max(1, round(RATE * seconds))
        # One first-seen sentence in each block of ten requests, at a
        # random place in the block: misses stay a Poisson-driven share of
        # the stream without the bunching that would make their queueing
        # on the one worker swing from run to run.
        block = round(1 / MISS_SHARE)
        firsts = {
            start + rng.randrange(block)
            for start in range(0, n - block + 1, block)
        }
        fresh_descriptions = _stratified(rest, len(firsts))
        self.task_of = {d.text: d.task_id for d in hot + fresh_descriptions}
        self.hot = [d.text for d in hot]
        fresh = iter(d.text for d in fresh_descriptions)

        due, t = [], 0.0
        for _ in range(n):
            t += rng.expovariate(RATE)
            due.append(t)
        # Sentences by popularity rank: the hot set, then first-seen order.
        seen = list(self.hot)
        seen_due = [float("-inf")] * len(seen)
        cum_weights = []
        total = 0.0
        for rank in range(len(seen) + len(fresh_descriptions)):
            total += 1.0 / (rank + 1)
            cum_weights.append(total)
        self.due = due
        self.sentences = []
        self.first = []
        for k, at in enumerate(due):
            if k in firsts:
                sentence = next(fresh)
                seen.append(sentence)
                seen_due.append(at)
            else:
                eligible = bisect.bisect_right(seen_due, at - REPEAT_GAP)
                pick = rng.choices(
                    range(eligible), cum_weights=cum_weights[:eligible]
                )[0]
                sentence = seen[pick]
            self.sentences.append(sentence)
            self.first.append(k in firsts)


def _stratified(descriptions: list, count: int) -> list:
    """``count`` descriptions spread evenly over tasks and, within a task,
    over sentence length."""
    return _round_robin(sorted(
        descriptions, key=lambda d: (d.task_id, len(d.text.split()), d.text)
    ), spread=True)[:count]


def _round_robin(descriptions: list, spread: bool = False) -> list:
    """Descriptions interleaved across tasks: each task's first, then
    each task's second, and so on.  With ``spread``, a task's k-th pick
    walks its list by repeated halving (middle, quarters, eighths...), so
    any prefix of the result covers each task's list evenly."""
    by_task: dict[str, list] = {}
    for description in descriptions:
        by_task.setdefault(description.task_id, []).append(description)
    if spread:
        by_task = {
            task: [items[i] for i in _halving_order(len(items))]
            for task, items in by_task.items()
        }
    out = []
    for depth in range(max(len(v) for v in by_task.values())):
        out += [v[depth] for v in by_task.values() if depth < len(v)]
    return out


def _halving_order(n: int) -> list[int]:
    """0..n-1 ordered so every prefix is spread evenly over the range
    (bit-reversed positions)."""
    bits = max(1, (n - 1).bit_length())
    order = []
    for k in range(1 << bits):
        i = int(format(k, f"0{bits}b")[::-1], 2)
        if i < n:
            order.append(i)
    return order


class Server:
    """The program's HTTP server as a child process."""

    def __init__(self, trace_out: str | None) -> None:
        cmd = [sys.executable, "-m", "repro", *SERVE_ARGS]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        # The server stops (and writes its trace) on SIGINT, which a
        # process started in the background inherits as ignored.  A
        # Python-level handler here resets to the default across exec.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            line = self._lines.get(timeout=remaining)
            if line is None:
                raise RuntimeError("server exited before listening")
            if line.startswith("# http up: "):
                return int(line.split()[3].rsplit(":", 1)[1])

    def stop(self) -> None:
        """Interrupt the server (it drains and writes its trace), and kill
        the whole process group if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray workers
        except ProcessLookupError:
            pass
        self._reader.join(timeout=5)


class Connection:
    """One keep-alive client connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )

    def post(self, sentence: str):
        """Returns (status, payload); status is None on a transport error."""
        body = json.dumps({"sentence": sentence})
        try:
            self.conn.request("POST", "/translate", body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return None, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, {"error": "unparseable body"}

    def close(self) -> None:
        self.conn.close()


def main(args, t_start: float) -> dict:
    plan = Plan(args.seed, args.seconds)
    trace_out = None
    if args.trace:
        out_dir = Path(".bench_build") / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_out = str(out_dir / f"http-zipf-trace-{os.getpid()}.jsonl")
        if os.path.exists(trace_out):
            os.remove(trace_out)

    launched = perf_counter()
    server = Server(trace_out)
    conns: list[Connection] = []
    try:
        port = server.port()
        conns = [Connection(port) for _ in range(CONNECTIONS)]
        warm = [conns[0].post(sentence) for sentence in plan.hot]
        setup_s = perf_counter() - launched
        if any(status != 200 for status, _ in warm):
            raise RuntimeError(f"warm-up failed: {warm}")
        if args.setup_only:
            return {"setup_s": setup_s}
        records = _drive(conns, plan)
        peak_rss = process_tree_peak_rss_mb(server.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        server.stop()

    spans = None
    if trace_out is not None:
        with open(trace_out) as handle:
            spans = [json.loads(line) for line in handle]
        os.remove(trace_out)
    return _report(plan, records, setup_s, peak_rss, spans)


def _drive(conns: list[Connection], plan: Plan) -> list:
    """Send the schedule open-loop: first-seen sentences on the first
    connection, repeats on the second.  Returns per-request (due, queued,
    sent, done, status, payload)."""
    lanes = [queue.Queue() for _ in conns]
    records: list = [None] * len(plan.due)
    queued = [0.0] * len(plan.due)
    origin = perf_counter() + 0.05

    def sender(conn: Connection, jobs: queue.Queue) -> None:
        while True:
            k = jobs.get()
            if k is None:
                return
            sent = perf_counter()
            status, payload = conn.post(plan.sentences[k])
            records[k] = (origin + plan.due[k], queued[k], sent,
                          perf_counter(), status, payload)

    threads = [threading.Thread(target=sender, args=(conn, jobs))
               for conn, jobs in zip(conns, lanes)]
    for thread in threads:
        thread.start()
    try:
        for k, offset in enumerate(plan.due):
            delay = origin + offset - perf_counter()
            if delay > 0:
                time.sleep(delay)
            queued[k] = perf_counter()
            lanes[0 if plan.first[k] else 1].put(k)
    finally:
        for jobs in lanes:
            jobs.put(None)
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT + 30)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("client connections did not finish")
    return records


def _reference(plan: Plan) -> dict:
    """In-process top-1 per distinct sentence, and whether it is gold."""
    from repro.dataset import build_sheet
    from repro.evalkit.canonical import canonicalize
    from repro.evalkit.metrics import TaskOracle
    from repro.runtime.service import TranslationService

    oracle = TaskOracle()
    service = TranslationService(build_sheet(SHEET))
    reference = {}
    for sentence in dict.fromkeys(plan.sentences):
        result = service.translate(sentence)
        top = result.candidates[0].program if result.candidates else None
        gold = top is not None and canonicalize(
            top, oracle.workbook(SHEET)
        ) == oracle.gold(plan.task_of[sentence])
        reference[sentence] = (None if top is None else str(top), gold)
    return reference


def _report(plan: Plan, records: list, setup_s: float, peak_rss: float,
            spans: list | None) -> dict:
    from repro.translate.tokenizer import tokenize

    reference = _reference(plan)
    n = len(records)
    failed = top1 = in_slo = 0
    latencies, late, waited = [], [], []
    for sentence, (due, queued, sent, done, status, payload) in zip(
        plan.sentences, records
    ):
        latency = done - due
        latencies.append(latency)
        late.append(max(0.0, queued - due))
        waited.append(max(0.0, sent - due))
        expected, gold = reference[sentence]
        result = payload.get("result") or {}
        programs = result.get("programs") or []
        if status != 200 or not programs or programs[0][0] != expected:
            failed += 1
            continue
        top1 += gold
        in_slo += latency <= SLO_SECONDS
    metrics = latency_metrics(latencies)
    metrics.update(
        top1_frac=top1 / n,
        slo_frac=in_slo / n,
        peak_rss_mb=peak_rss,
    )
    inputs = {
        "input.repeat_frac": 1.0 - sum(plan.first) / n,
        "input.tokens_mean": sum(
            len(tokenize(s)) for s in plan.sentences
        ) / n,
        "gen.late_frac": sum(x > LATE_SECONDS for x in late) / n,
        "gen.late_ms_p99": 1000.0 * quantile(sorted(late), 0.99),
    }
    out = {
        "setup_s": setup_s,
        "attempted": n,
        "failed": failed,
        "checks": {"misses_planned": sum(plan.first)},
        "ok": True,
        "metrics": metrics,
        "inputs": inputs,
        "op_seconds": sum(latencies) / n,
    }
    if spans is not None:
        layers, tally = _layers(records, spans)
        out.update(
            layers=layers,
            # Everything after a request left the client is split across
            # the layers; what remains is the time it waited in the client.
            unattributed_frac=sum(waited) / sum(latencies),
            # The server's tracer keeps at most this many records and
            # drops the rest; a full buffer means the split is incomplete.
            ok=len(spans) < TRACER_MAX_SPANS,
        )
        out["checks"].update(trace_records=len(spans),
                             traced_translations=tally.translations)
    return out


def _layers(records, spans):
    """Per-layer split of the traced run.  Serving blocks give the
    cluster and gateway times per request; the worker's spans, matched to
    the timed requests by trace id, give the translator stages."""
    served = [payload for *_, status, payload in records if status == 200]
    trace_ids = {p.get("trace_id") for p in served}
    tally = SpanTally()
    tally.add([s for s in spans if s.get("trace_id") in trace_ids])
    hits = [p["serving"] for p in served if p["serving"].get("cached")]
    misses = [p["serving"] for p in served if not p["serving"].get("cached")]

    def mean_ms(values):
        values = list(values)
        return 1000.0 * sum(values) / len(values) if values else 0.0

    http_self = [
        (done - sent) - payload["serving"]["total_seconds"]
        for _, _, sent, done, status, payload in records if status == 200
    ]
    from repro.dataset import build_sheet

    layers = tally.translate_layers()
    layers.update({
        "cluster.hit_frac": len(hits) / len(records),
        "cluster.hit_ms": mean_ms(s["total_seconds"] for s in hits),
        "cluster.attempts": sum(
            s.get("attempts", 0) for s in hits + misses
        ) / len(records),
        "gateway.queue_ms": mean_ms(s["queue_seconds"] for s in misses),
        "gateway.worker_ms": mean_ms(s["elapsed"] for s in misses),
        "gateway.overhead_ms": mean_ms(
            s["total_seconds"] - s["queue_seconds"] - s["elapsed"]
            for s in misses
        ),
        "http.self_ms": mean_ms(http_self),
        "sheet.text_cells": build_sheet(SHEET).columnar_index().n_cells(),
    })
    layers.update(idle_layers("sheet", "dsl", "session"))
    return layers, tally
