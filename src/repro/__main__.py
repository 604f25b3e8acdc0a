"""Package CLI.

Usage::

    python -m repro translate "sum the hours" --sheet payroll [--top 3]
    python -m repro translate "total the amount" --csv data.csv [...]
    python -m repro repl [--sheet payroll] [--csv data.csv ...]
    python -m repro serve [--workers N] [--shards N] [--deadline MS]
    python -m repro serve --http PORT [--host ADDR] [...]
    python -m repro batch FILE [--workers N] [--shards N] [--deadline MS] [--repeat K]
    python -m repro corpus --dump out.txt [--seed 2014]
    python -m repro rules [--learned]

``serve`` and ``batch`` route requests through the crash-isolated
:class:`repro.serve.TranslationGateway` (worker pool + admission control
+ per-workbook circuit breakers) instead of an in-process translator.
With ``--shards N`` (N > 1) they route through a
:class:`repro.cluster.ShardedCluster` instead: N gateways behind
rendezvous routing, health-checked failover, and a shared cache tier
(see docs/CLUSTER.md).

Experiments live under ``python -m repro.evalkit`` (see README).
"""

from __future__ import annotations

import argparse
import sys

from .dataset import SHEET_ORDER, build_sheet
from .errors import ReproError
from .session import NLyzeSession
from .sheet import Workbook


def _workbook(args: argparse.Namespace) -> Workbook:
    if getattr(args, "csv", None):
        from .sheet.io import load_workbook

        return load_workbook(args.csv)
    return build_sheet(args.sheet)


def _deadline(args: argparse.Namespace) -> float | None:
    ms = getattr(args, "deadline", None)
    return ms / 1000.0 if ms is not None else None


def _make_tracer(args: argparse.Namespace):
    """A live Tracer when any observability output is requested, else None."""
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        from .obs import Tracer

        return Tracer()
    return None


def _write_obs(args: argparse.Namespace, tracer, registry=None) -> None:
    """Flush ``--trace-out`` / ``--metrics-out`` files, if requested.

    Without a registry of its own (the single-translation path), metrics
    are derived from the trace (``span_seconds`` by span name).
    """
    from .obs import span_duration_metrics, write_metrics, write_trace

    if getattr(args, "trace_out", None) and tracer is not None:
        n = write_trace(tracer, args.trace_out)
        print(f"# wrote {n} trace records to {args.trace_out}", file=sys.stderr)
    if getattr(args, "metrics_out", None):
        if registry is None and tracer is not None:
            registry = span_duration_metrics(tracer)
        if registry is not None:
            write_metrics(registry, args.metrics_out)
            print(f"# wrote metrics to {args.metrics_out}", file=sys.stderr)


def _cmd_translate(args: argparse.Namespace) -> None:
    workbook = _workbook(args)
    tracer = _make_tracer(args)
    session = NLyzeSession(workbook, deadline=_deadline(args), tracer=tracer)
    step = session.ask(args.description)
    print(step.render())
    if args.execute and step.views:
        result = session.accept(step)
        print(f"-> {result.display()}")
    _write_obs(args, tracer)


def _cmd_repl(args: argparse.Namespace) -> None:
    workbook = _workbook(args)
    print(workbook.default_table.render(max_rows=10))
    session = NLyzeSession(workbook, deadline=_deadline(args))
    print("\nDescribe a task (:quit to exit).")
    while True:
        try:
            line = input("nlyze> ").strip()
        except (EOFError, KeyboardInterrupt):
            break
        if not line:
            continue
        if line in (":quit", ":q"):
            break
        try:
            step = session.ask(line)
        except ReproError as exc:  # surface, keep the loop alive
            print(f"error [{exc.code}]: {exc}")
            continue
        print(step.render())
        if step.views:
            result = session.accept(step)
            print(f"-> {result.display()}")


def _render_gateway_result(result) -> str:
    if not result.ok:
        return f"error [{result.error_code}]: {result.error}"
    label = result.tier or "?"
    if result.degraded:
        label += ",degraded"
    formula = result.top_formula or result.top_program or "(no candidates)"
    return f"[{label}] {formula}"


def _print_gateway_stats(gateway) -> None:
    stats = gateway.stats()
    print(
        f"# queue={stats.queue_depth} in_flight={stats.in_flight} "
        f"submitted={stats.submitted} ok={stats.ok} shed={stats.shed} "
        f"crashed={stats.crashed} timed_out={stats.timed_out} "
        f"circuit_open={stats.circuit_rejected} restarts={stats.restarts}"
    )
    if stats.cache is not None:
        print(
            f"#   cache: hits={stats.cache.hits} misses={stats.cache.misses} "
            f"hit_rate={stats.cache.hit_rate:.1%} size={stats.cache.size}/"
            f"{stats.cache.capacity} evictions={stats.cache.evictions} "
            f"invalidated={stats.cache.invalidated}"
        )
    for worker in stats.workers:
        print(
            f"#   worker {worker.worker_id}: alive={worker.alive} "
            f"served={worker.served} restarts={worker.restarts} "
            f"warm={worker.warm_fingerprints}"
        )


def _print_cluster_stats(cluster) -> None:
    stats = cluster.stats()
    print(
        f"# cluster: shards {stats.live_shards}/{len(stats.shards)} live, "
        f"submitted={stats.submitted} ok={stats.ok} failed={stats.failed} "
        f"retries={stats.retries} failovers={stats.failovers} "
        f"rerouted={stats.rerouted} shard_down={stats.shard_down}"
    )
    if stats.shared_cache is not None:
        sc = stats.shared_cache
        print(
            f"#   shared cache: hits={sc.hits} misses={sc.misses} "
            f"puts={sc.puts} size={sc.size}"
        )
    if stats.hot is not None and stats.hot.hot_shards:
        print(f"#   hot shards: {stats.hot.hot_shards}")
    for shard in stats.shards:
        gw = shard.gateway
        print(
            f"#   shard {shard.shard_id} [{shard.state}]: "
            f"queue={gw.queue_depth} in_flight={gw.in_flight} "
            f"ok={gw.ok} crashed={gw.crashed} restarts={gw.restarts}"
        )


def _print_stats(service) -> None:
    if hasattr(service, "shards"):
        _print_cluster_stats(service)
    else:
        _print_gateway_stats(service)


def _make_gateway(args: argparse.Namespace, tracer=None):
    if getattr(args, "shards", 1) > 1:
        from .cluster import ShardedCluster

        return ShardedCluster(
            _workbook(args),
            shards=args.shards,
            workers_per_shard=args.workers,
            queue_limit=args.queue_limit,
            default_deadline=_deadline(args),
            shared_cache=args.cache,
            tracer=tracer,
        )
    from .serve import TranslationGateway

    return TranslationGateway(
        _workbook(args),
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline=_deadline(args),
        cache=args.cache,
        tracer=tracer,
    )


def _serve_http(args: argparse.Namespace, gateway, tracer) -> None:
    """Run the asyncio HTTP front end over the gateway until interrupted."""
    import asyncio

    from .http import HttpServer

    server = HttpServer(gateway, host=args.host, port=args.http)

    async def run() -> None:
        await server.start()
        print(
            f"# http up: http://{args.host}:{server.port} "
            f"(POST /translate, GET /healthz /metrics /stats /traces; "
            f"Ctrl-C to exit)",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass


def _cmd_serve(args: argparse.Namespace) -> None:
    """Line-oriented gateway service: one description in, one result out."""
    tracer = _make_tracer(args)
    gateway = _make_gateway(args, tracer=tracer)
    if args.http is not None:
        try:
            _serve_http(args, gateway, tracer)
        finally:
            gateway.close(drain=True)
            _write_obs(args, tracer, gateway.metrics)
        return
    if args.shards > 1:
        banner = (
            f"# cluster up: {args.shards} shards x {args.workers} workers"
        )
    else:
        banner = f"# gateway up: {args.workers} workers"
    print(
        f"{banner}, queue limit {args.queue_limit} "
        f"(:stats for diagnostics, :quit to exit)",
        flush=True,
    )
    try:
        while True:
            try:
                line = input()
            except (EOFError, KeyboardInterrupt):
                break
            line = line.strip()
            if not line:
                continue
            if line in (":quit", ":q"):
                break
            if line == ":stats":
                _print_stats(gateway)
                continue
            print(_render_gateway_result(gateway.translate(line)), flush=True)
    finally:
        gateway.close(drain=True)
        _write_obs(args, tracer, gateway.metrics)


def _cmd_batch(args: argparse.Namespace) -> None:
    """Push a file of descriptions through the gateway; report serving stats."""
    from .obs.clock import perf

    if args.file == "-":
        lines = [line.strip() for line in sys.stdin]
    else:
        with open(args.file) as handle:
            lines = [line.strip() for line in handle]
    sentences = [line for line in lines if line] * max(1, args.repeat)
    if not sentences:
        print("error [empty_batch]: no descriptions in input", file=sys.stderr)
        sys.exit(2)
    tracer = _make_tracer(args)
    gateway = _make_gateway(args, tracer=tracer)
    try:
        start = perf()
        results = gateway.translate_many(sentences)
        wall = perf() - start
        for sentence, result in zip(sentences, results):
            print(f"{_render_gateway_result(result)}  <- {sentence}")
        latencies = sorted(r.total_seconds for r in results)
        p = lambda q: latencies[min(len(latencies) - 1, int(q * len(latencies)))]
        stats = gateway.stats()
        if hasattr(gateway, "shards"):
            extra = (
                f"retries {stats.retries}, failovers {stats.failovers}, "
                f"shards {stats.live_shards}/{len(stats.shards)} live"
            )
        else:
            extra = f"shed {stats.shed} ({stats.shed_rate:.1%}), crashed {stats.crashed}"
        print(
            f"# {len(results)} requests in {wall:.2f}s "
            f"({len(results) / wall:.1f} req/s), "
            f"ok {sum(r.ok for r in results)}, {extra}, "
            f"cache hits {stats.cache_hits} ({stats.cache_hit_rate:.1%}), "
            f"p50 {p(0.5) * 1000:.1f}ms, p95 {p(0.95) * 1000:.1f}ms"
        )
    finally:
        gateway.close(drain=True)
        _write_obs(args, tracer, gateway.metrics)


def _cmd_corpus(args: argparse.Namespace) -> None:
    from .dataset import Corpus

    corpus = Corpus.default(seed=args.seed)
    lines = [
        f"{d.task_id}\t{d.sheet_id}\t{d.text}" for d in corpus.descriptions
    ]
    if args.dump:
        with open(args.dump, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} descriptions to {args.dump}")
    else:
        print("\n".join(lines[: args.head]))


def _cmd_rules(args: argparse.Namespace) -> None:
    if args.learned:
        from .dataset import Corpus, all_tasks
        from .learning import TrainingExample, learn_rules

        corpus = Corpus.default()
        tasks = {t.task_id: t for t in all_tasks()}
        workbooks = {}
        examples = []
        for d in corpus.train[:400]:
            wb = workbooks.setdefault(d.sheet_id, build_sheet(d.sheet_id))
            examples.append(TrainingExample(
                text=d.text, program=tasks[d.task_id].gold(wb), workbook=wb
            ))
        rules = learn_rules(examples)
    else:
        from .rules import builtin_rules

        rules = builtin_rules()
    for rule in rules:
        print(rule.render())
    print(f"({len(rules)} rules)", file=sys.stderr)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_options(p):
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write spans on exit (.jsonl -> span log, "
                            "else Chrome trace JSON for Perfetto)")
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write Prometheus-style metrics text on exit")

    p = sub.add_parser("translate", help="translate one description")
    p.add_argument("description")
    p.add_argument("--sheet", choices=SHEET_ORDER, default="payroll")
    p.add_argument("--csv", nargs="*", help="CSV files instead of a demo sheet")
    p.add_argument("--execute", action="store_true",
                   help="execute the top candidate")
    p.add_argument("--deadline", type=float, default=None, metavar="MS",
                   help="wall-clock budget per translation (milliseconds)")
    add_obs_options(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("repl", help="interactive session")
    p.add_argument("--sheet", choices=SHEET_ORDER, default="payroll")
    p.add_argument("--csv", nargs="*")
    p.add_argument("--deadline", type=float, default=None, metavar="MS",
                   help="wall-clock budget per translation (milliseconds)")
    p.set_defaults(func=_cmd_repl)

    def add_gateway_options(p):
        p.add_argument("--sheet", choices=SHEET_ORDER, default="payroll")
        p.add_argument("--csv", nargs="*")
        p.add_argument("--workers", type=int, default=2,
                       help="worker processes in the gateway pool "
                            "(per shard when --shards > 1)")
        p.add_argument("--shards", type=int, default=1,
                       help="gateway shards; >1 serves through a "
                            "fingerprint-sharded cluster with failover")
        p.add_argument("--queue-limit", type=int, default=64,
                       help="bounded admission queue depth")
        p.add_argument("--deadline", type=float, default=None, metavar="MS",
                       help="per-request deadline (milliseconds)")
        p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="memoise translation results per "
                            "(sentence, workbook) [default: on]")
        add_obs_options(p)

    p = sub.add_parser(
        "serve", help="line-oriented gateway service on stdin/stdout "
                      "(or HTTP with --http PORT)"
    )
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve HTTP instead of stdin/stdout (0 = ephemeral "
                        "port; see docs/HTTP.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="HTTP bind address [default: 127.0.0.1]")
    add_gateway_options(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "batch", help="run a file of descriptions through the gateway"
    )
    p.add_argument("file", help="one description per line ('-' for stdin)")
    p.add_argument("--repeat", type=int, default=1,
                   help="duplicate the batch K times (load testing)")
    add_gateway_options(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("corpus", help="print or dump the evaluation corpus")
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("--dump", help="write the corpus to a file")
    p.add_argument("--head", type=int, default=20)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("rules", help="print the rule set")
    p.add_argument("--learned", action="store_true",
                   help="learn rules from the training split first")
    p.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ReproError as exc:
        # A library error is a user-facing condition (bad CSV, bad
        # description, budget exhausted...), not a crash: one line, exit 2.
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
