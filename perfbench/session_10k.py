"""session-10k: programming in steps (§4) on a 10k-row workbook.

One ``NLyzeSession`` runs the steps on the ``repro.dataset.stress``
workbook built with the seed.  Each step asks one ``stress_sentences``
sentence and accepts the top candidate: a closed loop with one caller.
Each accept writes a value and bumps the sheet revision, so the next ask
rebuilds the revision-memoised columnar index; the step time is mostly
the sheet layer and the evaluator, not the DP.

A run is a fixed number of whole cycles of the twelve sentence shapes,
whatever ``seconds`` says: every shape weighs the same in ``top1_frac``,
p95 has ten steps beyond it, and memory, which grows with the session's
step history, is compared over the same number of steps.  A traced run
traces every other cycle, so the untraced cycles in between give the
tracing overhead under the same machine conditions.
"""

from __future__ import annotations

import gc
from time import perf_counter

from common import SpanTally, idle_layers, latency_metrics, self_peak_rss_mb

ROWS = 10_000
CYCLES = 17  # 204 steps
# A step is two interactive responses (the candidate list, then the
# placed value), each allowed 100 ms.
SLO_SECONDS = 0.200

# Each stress_sentences shape with the intent it states: the sentence
# template, the reduction, its column, and the equality filter's column
# and the row its value is read from.
SHAPES = (
    ("sum the amount for the {} orders", "sum", "amount", "region", 0),
    ("average the quantity where the region is {}", "avg", "quantity",
     "region", 7),
    ("count the {} rows", "count", None, "category", 3),
    ("how many orders are from {}", "count", None, "region", 11),
    ("max amount for the {} orders", "max", "amount", "product", 5),
    ("total the amount", "sum", "amount", None, None),
    ("min quantity where category is {}", "min", "quantity", "category", 9),
    ("sum the amount for {}", "sum", "amount", "customer", 2),
    ("average the discount", "avg", "discount", None, None),
    ("count the orders where shipregion is {}", "count", None,
     "shipregion", 4),
    ("sum the quantity for the {} shipments", "sum", "quantity", "courier",
     13),
    ("average amount for {}", "avg", "amount", "product", 17),
)


def main(args, t_start: float) -> dict:
    from repro import NLyzeSession
    from repro.dataset import stress_sentences, stress_workbook
    from repro.dsl.excel import ExcelEmitter
    from repro.obs import Tracer

    gen_start = perf_counter()
    workbook = stress_workbook(ROWS, args.seed)
    sentences = stress_sentences(workbook, len(SHAPES))
    gen_seconds = perf_counter() - gen_start

    tracer = Tracer() if args.trace else None
    session = NLyzeSession(workbook, tracer=tracer)
    session.ask(sentences[0])  # warm-up: builds the index and rule tables
    setup_s = perf_counter() - t_start - gen_seconds
    if args.setup_only:
        return {"setup_s": setup_s}
    if tracer is not None:
        tracer.clear()
    tally = SpanTally()
    timings = dict.fromkeys(("index", "ask", "emit", "accept", "service"), 0.0)
    index_builds = 0
    dropped = 0
    last_index = workbook.columnar_index()
    steps = []
    gc.collect()
    for cycle in range(CYCLES):
        traced = tracer is not None and cycle % 2 == 1
        session.tracer = tracer if traced else None
        for shape, sentence in enumerate(sentences):
            step = _step(session, workbook, ExcelEmitter, sentence)
            steps.append((shape,) + step[:5] + (traced,))
            if traced:
                index, marks = step[5], step[6]
                for key, start, end in zip(
                    ("index", "ask", "emit", "accept"), marks, marks[1:]
                ):
                    timings[key] += end - start
                index_builds += index is not last_index
                last_index = index
                dropped += tracer.dropped
                records = tracer.clear()
                tally.add(records)
                timings["service"] += sum(
                    r["duration"] for r in records
                    if r["name"] == "service.request"
                )
    peak_rss = self_peak_rss_mb()
    return _report(
        workbook, sentences, steps, setup_s, peak_rss,
        tally if args.trace else None, timings, index_builds, dropped,
    )


def _step(session, workbook, emitter_cls, sentence):
    """One step: index fetch, ask, Excel emission of the top candidate,
    accept.  Returns (seconds, top program, result, excel agrees, error
    code, index, time marks)."""
    t0 = perf_counter()
    index = workbook.columnar_index()
    t1 = perf_counter()
    try:
        step = session.ask(sentence)
        t2 = perf_counter()
        if not step.views:
            return (t2 - t0, None, None, False, "empty", index,
                    (t0, t1, t2, t2, t2))
        top = step.views[0]
        excel = emitter_cls(workbook).emit(top.candidate.program)
        t3 = perf_counter()
        result = session.accept(step)
        t4 = perf_counter()
    except Exception as exc:  # noqa: BLE001 - counted, not fatal
        end = perf_counter()
        code = getattr(exc, "code", None) or type(exc).__name__
        return (end - t0, None, None, False, code, index,
                (t0, t1, end, end, end))
    return (t4 - t0, top.candidate.program, result, excel == top.excel, None,
            index, (t0, t1, t2, t3, t4))


def _expected(table, shape) -> float:
    """The value the shape's intent computes, by a plain row walk."""
    _, op, column, filter_column, row = SHAPES[shape]
    names = [c.name for c in table.columns]

    def payload(i, name):
        return table.cell(i, names.index(name)).value.payload

    rows = range(table.n_rows)
    if filter_column is not None:
        wanted = payload(row % table.n_rows, filter_column)
        rows = [i for i in rows if payload(i, filter_column) == wanted]
    if op == "count":
        return float(len(rows))
    values = [float(payload(i, column)) for i in rows]
    return {
        "sum": sum, "min": min, "max": max,
        "avg": lambda v: sum(v) / len(v),
    }[op](values)


def _gold(workbook, shape):
    from repro.dataset import Filter, Intent, build_gold

    _, op, column, filter_column, row = SHAPES[shape]
    table = workbook.default_table
    filters = ()
    if filter_column is not None:
        j = [c.name for c in table.columns].index(filter_column)
        value = table.cell(row % table.n_rows, j).value.payload
        filters = (Filter(filter_column, "eq", value),)
    if op == "count":
        return build_gold(workbook, Intent("count", filters=filters))
    return build_gold(
        workbook, Intent("reduce", reduce_op=op, column=column,
                         filters=filters)
    )


def _sentence(workbook, shape) -> str:
    template, _, _, filter_column, row = SHAPES[shape]
    if filter_column is None:
        return template
    table = workbook.default_table
    j = [c.name for c in table.columns].index(filter_column)
    return template.format(table.cell(row % table.n_rows, j).value.payload)


def _report(workbook, sentences, steps, setup_s, peak_rss, tally, timings,
            index_builds, dropped) -> dict:
    from repro.cache import normalise_sentence
    from repro.evalkit.canonical import canonicalize
    from repro.translate.tokenizer import tokenize

    # The gold pairing is only valid while the generator states the same
    # sentences; a drift must fail the run, not silently mis-score it.
    paired = all(
        _sentence(workbook, k) == sentence
        for k, sentence in enumerate(sentences)
    )
    table = workbook.default_table
    gold = [canonicalize(_gold(workbook, k), workbook)
            for k in range(len(SHAPES))]
    expected = [_expected(table, k) for k in range(len(SHAPES))]
    failed = top1 = in_slo = wrong_values = 0
    for shape, elapsed, program, result, excel_ok, error, _ in steps:
        if error is not None or program is None or not excel_ok:
            failed += 1
            continue
        is_gold = canonicalize(program, workbook) == gold[shape]
        if is_gold:
            value = result.value.payload if result.value else None
            if value is None or abs(float(value) - expected[shape]) > (
                1e-9 * max(1.0, abs(expected[shape]))
            ):
                wrong_values += 1
                failed += 1
                continue
        top1 += is_gold
        in_slo += elapsed <= SLO_SECONDS
    n = len(steps)
    latencies = [step[1] for step in steps]
    metrics = latency_metrics(latencies)
    metrics.update(
        top1_frac=top1 / n,
        slo_frac=in_slo / n,
        peak_rss_mb=peak_rss,
    )
    index = workbook.columnar_index()
    asked = [sentences[step[0]] for step in steps]
    inputs = {
        "input.repeat_frac": 1.0 - len(
            {normalise_sentence(s) for s in asked}
        ) / n,
        "input.tokens_mean": sum(len(tokenize(s)) for s in asked) / n,
        "input.sheet_rows": sum(t.n_rows for t in workbook.tables),
        "input.text_values": index.n_values,
    }
    out = {
        "setup_s": setup_s,
        "attempted": n,
        "failed": failed,
        "checks": {
            "gold_pairing": paired,
            "wrong_values": wrong_values,
            "tracer_dropped": dropped,
        },
        "ok": paired and dropped == 0,
        "metrics": metrics,
        "inputs": inputs,
    }
    if tally is not None:
        traced = [step[1] for step in steps if step[-1]]
        untraced = [step[1] for step in steps if not step[-1]]
        n = len(traced)
        layers = tally.translate_layers()
        layers.update({
            "sheet.index_ms": 1000.0 * timings["index"] / n,
            "sheet.index_builds": index_builds / n,
            "sheet.text_cells": index.n_cells(),
            "dsl.evaluate_ms": 1000.0 * timings["accept"] / n,
            "dsl.emit_ms": 1000.0 * timings["emit"] / n,
            "session.present_ms": 1000.0 * (
                timings["ask"] - timings["service"]
            ) / n,
        })
        layers.update(idle_layers("cluster", "gateway", "http"))
        out.update(
            layers=layers,
            op_seconds=sum(traced) / n,
            untraced_op_seconds=sum(untraced) / len(untraced),
            unattributed_frac=1.0 - sum(
                timings[k] for k in ("index", "ask", "emit", "accept")
            ) / sum(traced),
        )
    return out
