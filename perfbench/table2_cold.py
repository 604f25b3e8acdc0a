"""table2-cold: the paper's Table 2 experiment, translated cold.

Every description of the Table 2 test split is translated once, through
one ``TranslationService`` per sheet, with no result cache and no
deadline: a closed loop with one caller.  This is the workload behind the
paper's one performance number (11 ms average per description, §5), and
it loads the DP; the sheet, cache and serving layers do almost nothing.

The timed phase is the whole split of the paper's corpus (seed 2014,
1071 descriptions), whatever ``seconds`` says: the split is the unit the
paper reports, and ``top1_frac`` matches ``python -m repro.evalkit
table2``.  The run's seed sets the order of the split.  Corpora generated
at other seeds put different long descriptions in the tail, which moved
p99 by a quarter between seeds; the order is what a seed can vary
without that.  A traced run traces every other description, so the
untraced ones in between give the tracing overhead under the same
machine conditions.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

from common import SpanTally, idle_layers, latency_metrics, self_peak_rss_mb

CORPUS_SEED = 2014
SLO_SECONDS = 0.100
WARM_UP = {
    "payroll": "sum the hours",
    "inventory": "sum the quantity",
    "countries": "sum the population",
    "invoices": "sum the total",
}


def main(args, t_start: float) -> dict:
    from repro.dataset import SHEET_ORDER, Corpus, build_sheet
    from repro.obs import Tracer
    from repro.runtime.service import TranslationService

    gen_start = perf_counter()
    corpus = Corpus.default(CORPUS_SEED)
    descriptions = list(corpus.test)
    random.Random(args.seed).shuffle(descriptions)
    gen_seconds = perf_counter() - gen_start

    workbooks = {sheet: build_sheet(sheet) for sheet in SHEET_ORDER}
    services = {
        sheet: TranslationService(workbook)
        for sheet, workbook in workbooks.items()
    }
    # Warm-up builds each translator and the process-wide rule tables, so
    # the timed pass is steady state.  The sentences are fixed so set-up
    # does the same work at every seed.
    for sheet, sentence in WARM_UP.items():
        services[sheet].translate(sentence)
    setup_s = perf_counter() - t_start - gen_seconds
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer() if args.trace else None
    tally = SpanTally()
    last_index = {
        sheet: workbook.columnar_index()
        for sheet, workbook in workbooks.items()
    }
    index_seconds = 0.0
    index_builds = 0
    dropped = 0
    outcomes = []
    gc.collect()
    for i, description in enumerate(descriptions):
        workbook = workbooks[description.sheet_id]
        service = services[description.sheet_id]
        traced = tracer is not None and i % 2 == 1
        start = perf_counter()
        index = workbook.columnar_index()
        indexed = perf_counter()
        top = error = None
        try:
            result = service.translate(
                description.text, tracer=tracer if traced else None
            )
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            error = type(exc).__name__
        else:
            error = result.error_code
            if result.candidates:
                top = result.candidates[0].program
        elapsed = perf_counter() - start
        outcomes.append((elapsed, top, error, traced))
        if traced:
            index_seconds += indexed - start
            index_builds += index is not last_index[description.sheet_id]
            last_index[description.sheet_id] = index
            dropped += tracer.dropped
            tally.add(tracer.clear())
    peak_rss = self_peak_rss_mb()

    return _report(
        descriptions, outcomes, workbooks, setup_s, peak_rss,
        tally if args.trace else None, index_seconds, index_builds, dropped,
    )


def _report(descriptions, outcomes, workbooks, setup_s, peak_rss,
            tally, index_seconds, index_builds, dropped) -> dict:
    from repro.cache import normalise_sentence
    from repro.evalkit.canonical import canonicalize
    from repro.evalkit.metrics import TaskOracle
    from repro.translate.tokenizer import tokenize

    oracle = TaskOracle()
    failed = top1 = in_slo = 0
    for description, (elapsed, top, error_code, _) in zip(
        descriptions, outcomes
    ):
        if error_code is not None or top is None:
            failed += 1
            continue
        gold = oracle.gold(description.task_id)
        top1 += canonicalize(
            top, oracle.workbook(description.sheet_id)
        ) == gold
        in_slo += elapsed <= SLO_SECONDS
    n = len(descriptions)
    latencies = [outcome[0] for outcome in outcomes]
    metrics = latency_metrics(latencies)
    metrics.update(
        top1_frac=top1 / n,
        slo_frac=in_slo / n,
        peak_rss_mb=peak_rss,
    )
    indexes = [wb.columnar_index() for wb in workbooks.values()]
    inputs = {
        "input.repeat_frac": 1.0 - len(
            {normalise_sentence(d.text) for d in descriptions}
        ) / n,
        "input.tokens_mean": sum(
            len(tokenize(d.text)) for d in descriptions
        ) / n,
        "input.sheet_rows": sum(
            t.n_rows for wb in workbooks.values() for t in wb.tables
        ),
        "input.text_values": sum(index.n_values for index in indexes),
    }
    out = {
        "setup_s": setup_s,
        "attempted": n,
        "failed": failed,
        "checks": {"split_size": n, "tracer_dropped": dropped},
        "ok": dropped == 0,
        "metrics": metrics,
        "inputs": inputs,
    }
    if tally is not None:
        traced = [outcome[0] for outcome in outcomes if outcome[3]]
        untraced = [outcome[0] for outcome in outcomes if not outcome[3]]
        n = len(traced)
        layers = tally.translate_layers()
        layers.update({
            "sheet.index_ms": 1000.0 * index_seconds / n,
            "sheet.index_builds": index_builds / n,
            "sheet.text_cells": sum(index.n_cells() for index in indexes),
        })
        layers.update(idle_layers("dsl", "session", "cluster", "gateway",
                                  "http"))
        out.update(
            layers=layers,
            op_seconds=sum(traced) / n,
            untraced_op_seconds=sum(untraced) / len(untraced),
            unattributed_frac=1.0 - (
                tally.seconds["service.request"] + index_seconds
            ) / sum(traced),
        )
    return out
