"""Experiment harness: regenerates every table and figure of paper §5.

Each ``run_*`` function returns structured results and has a matching
``format_*`` printer producing rows in the paper's layout.  The CLI
(``python -m repro.evalkit <experiment>``) and the benchmark suite both sit
on top of these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataset import (
    SHEET_ORDER,
    Corpus,
    all_tasks,
    build_sheet,
    generate_descriptions,
    user_study_descriptions,
)
from ..obs.clock import perf
from ..obs.trace import DP_STAGES
from ..translate import TranslatorConfig, ablation_config
from .metrics import Scoreboard, TaskOracle, evaluate_batch

PAPER_TABLE2 = {
    # sheet -> (avg seconds, top1, top3, all) as reported in the paper
    "payroll": (0.010, 0.944, 0.967, 0.975),
    "inventory": (0.015, 0.955, 0.975, 0.991),
    "countries": (0.007, 0.945, 0.973, 0.979),
    "invoices": (0.019, 0.907, 0.967, 0.969),
    "all": (0.011, 0.941, 0.971, 0.982),
}
PAPER_TABLE3 = {
    "rules_only": (0.740, 0.836, 0.898),
    "synthesis_only": (0.674, 0.856, 0.982),
    "combined_prod_only": (0.751, 0.894, 0.982),
    "complete": (0.941, 0.971, 0.982),
}
PAPER_USER_STUDY = (0.903, 0.935, 0.951)
PAPER_CLUSTERS_PER_INTENT = 37.7


@dataclass
class Table2Result:
    per_sheet: dict[str, Scoreboard] = field(default_factory=dict)
    overall: Scoreboard = field(default_factory=Scoreboard)


def run_table2(
    corpus: Corpus | None = None,
    config: TranslatorConfig | None = None,
    limit_per_sheet: int | None = None,
) -> Table2Result:
    """Table 2 — overall performance per sheet on the 30% test split."""
    corpus = corpus or Corpus.default()
    oracle = TaskOracle()
    result = Table2Result()
    for sheet_id in SHEET_ORDER:
        descriptions = corpus.by_sheet(sheet_id, subset="test")
        if limit_per_sheet is not None:
            descriptions = descriptions[:limit_per_sheet]
        board = evaluate_batch(descriptions, config=config, oracle=oracle)
        result.per_sheet[sheet_id] = board
        result.overall.outcomes.extend(board.outcomes)
    return result


def format_table2(result: Table2Result) -> str:
    lines = [
        f"{'Sheet':<12} {'Avg. Time':>10} {'Top Rank':>9} {'Top 3':>7} {'All':>7}",
        "-" * 50,
    ]
    rows = list(result.per_sheet.items()) + [("all", result.overall)]
    for sheet_id, board in rows:
        lines.append(
            f"{sheet_id:<12} {board.avg_seconds:>9.3f}s "
            f"{board.top1_rate:>8.1%} {board.top3_rate:>6.1%} "
            f"{board.recall:>6.1%}"
        )
    overall = result.overall
    lines.append("")
    lines.append(f"F1 (precision=top-1, recall=all): {overall.f1:.1%}")
    return "\n".join(lines)


@dataclass
class Table3Result:
    per_mode: dict[str, Scoreboard] = field(default_factory=dict)


TABLE3_MODES = (
    "rules_only", "synthesis_only", "combined_prod_only", "complete"
)
_MODE_LABELS = {
    "rules_only": "Pattern Rule Only",
    "synthesis_only": "Synthesis Only",
    "combined_prod_only": "Pattern Rule & Synthesis",
    "complete": "Complete Algorithm",
    "no_cover": "Complete w/o CoverSc",
    "no_mix": "Complete w/o MixSc",
}


def run_table3(
    corpus: Corpus | None = None,
    sample: int | None = None,
    modes: tuple[str, ...] = TABLE3_MODES,
) -> Table3Result:
    """Table 3 — component ablation on the test split.

    ``sample`` caps the number of test descriptions (evenly spread across
    the split order) so the quadratic cost of four full runs stays
    tractable for quick checks; ``None`` means the whole split.
    """
    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [
            descriptions[int(k * step)] for k in range(sample)
        ]
    oracle = TaskOracle()
    result = Table3Result()
    for mode in modes:
        board = evaluate_batch(
            descriptions, config=ablation_config(mode), oracle=oracle
        )
        result.per_mode[mode] = board
    return result


def format_table3(result: Table3Result) -> str:
    lines = [
        f"{'Extensions':<26} {'Top Rank':>9} {'Top 3':>7} {'All':>7}",
        "-" * 52,
    ]
    for mode, board in result.per_mode.items():
        label = _MODE_LABELS.get(mode, mode)
        lines.append(
            f"{label:<26} {board.top1_rate:>8.1%} "
            f"{board.top3_rate:>6.1%} {board.recall:>6.1%}"
        )
    return "\n".join(lines)


def run_user_study(config: TranslatorConfig | None = None) -> Scoreboard:
    """§5.2 — the 62-description hard-mode end-user study analog."""
    return evaluate_batch(user_study_descriptions(), config=config)


def format_user_study(board: Scoreboard) -> str:
    return (
        f"end-user study ({board.n} descriptions): "
        f"top-1 {board.top1_rate:.1%}, top-3 {board.top3_rate:.1%}, "
        f"anywhere {board.recall:.1%}"
        f"  (paper: {PAPER_USER_STUDY[0]:.1%} / "
        f"{PAPER_USER_STUDY[1]:.1%} / {PAPER_USER_STUDY[2]:.1%})"
    )


def run_table1(variants_per_task: int = 10) -> dict[str, list[str]]:
    """Table 1 — qualitative variation inventory: sample phrasings of the
    Fig. 1 conditional-sum task plus one description of each other task."""
    tasks = all_tasks()
    flagship = next(t for t in tasks if t.task_id == "payroll-01")
    left = [
        d.text for d in generate_descriptions(flagship, variants_per_task)
    ]
    right = []
    for task in tasks:
        if task.task_id == flagship.task_id:
            continue
        right.append(generate_descriptions(task, 1)[0].text)
    return {"variations": left, "tasks": right[: variants_per_task + 1]}


def format_table1(data: dict[str, list[str]]) -> str:
    lines = ["Variations in language on the same task:"]
    lines += [f"  - {t}" for t in data["variations"]]
    lines.append("")
    lines.append("Variations in task and composition:")
    lines += [f"  - {t}" for t in data["tasks"]]
    return "\n".join(lines)


@dataclass
class ResilienceResult:
    """Deadline sweep over the test split: one scoreboard per deadline."""

    per_deadline: dict[float, Scoreboard] = field(default_factory=dict)


def run_resilience(
    corpus: Corpus | None = None,
    deadlines: tuple[float, ...] = (0.05, 0.5),
    sample: int | None = None,
    config: TranslatorConfig | None = None,
) -> ResilienceResult:
    """Accuracy / latency / degradation under wall-clock deadlines.

    Routes the test split through :class:`~repro.runtime.TranslationService`
    at each deadline (seconds).  Under a tight deadline requests are
    expected to degrade (anytime ranking or cheaper tiers) but never to
    crash; under a generous deadline the numbers must match Table 2.
    """
    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [descriptions[int(k * step)] for k in range(sample)]
    oracle = TaskOracle()
    result = ResilienceResult()
    for deadline in deadlines:
        result.per_deadline[deadline] = evaluate_batch(
            descriptions, config=config, oracle=oracle, deadline=deadline
        )
    return result


def format_resilience(result: ResilienceResult) -> str:
    lines = [
        f"{'Deadline':>9} {'Top Rank':>9} {'All':>7} {'p50':>8} {'p95':>8} "
        f"{'Degraded':>9} {'Errors':>7}",
        "-" * 62,
    ]
    for deadline, board in sorted(result.per_deadline.items()):
        lines.append(
            f"{deadline * 1000:>7.0f}ms {board.top1_rate:>8.1%} "
            f"{board.recall:>6.1%} {board.percentile_seconds(0.5):>7.3f}s "
            f"{board.percentile_seconds(0.95):>7.3f}s "
            f"{board.degraded_rate:>8.1%} {board.error_rate:>6.1%}"
        )
    return "\n".join(lines)


@dataclass
class GatewayReport:
    """One gateway load run: outcomes plus the closing stats snapshot."""

    n: int = 0
    workers: int = 0
    deadline: float | None = None
    wall_seconds: float = 0.0
    outcomes: list = field(default_factory=list)  # GatewayResult, in order
    stats: object | None = None  # closing GatewayStats

    @property
    def throughput(self) -> float:
        return self.n / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def ok_rate(self) -> float:
        return sum(r.ok for r in self.outcomes) / self.n if self.n else 0.0

    @property
    def shed_rate(self) -> float:
        return self.stats.shed_rate if self.stats is not None else 0.0

    def percentile_seconds(self, q: float) -> float:
        if not self.outcomes:
            return 0.0
        latencies = sorted(r.total_seconds for r in self.outcomes)
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    def code_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for outcome in self.outcomes:
            code = outcome.error_code or "ok"
            histogram[code] = histogram.get(code, 0) + 1
        return dict(sorted(histogram.items()))


def run_gateway(
    corpus: Corpus | None = None,
    sample: int | None = 60,
    workers: int = 2,
    deadline: float | None = 5.0,
    queue_limit: int = 256,
    repeat: int = 1,
) -> GatewayReport:
    """Serving throughput/latency through the crash-isolated gateway.

    Routes a test-split sample (all four sheets, so the gateway juggles
    four workbook fingerprints) through
    :class:`~repro.serve.TranslationGateway` and reports throughput, shed
    rate, and latency percentiles — the queue → breaker → pool path the
    chaos tests exercise, measured under healthy load.
    """
    from ..serve import TranslationGateway

    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [descriptions[int(k * step)] for k in range(sample)]
    descriptions = list(descriptions) * max(1, repeat)
    workbooks = {
        sheet_id: build_sheet(sheet_id)
        for sheet_id in {d.sheet_id for d in descriptions}
    }
    report = GatewayReport(
        n=len(descriptions), workers=workers, deadline=deadline
    )
    gateway = TranslationGateway(
        workers=workers, queue_limit=queue_limit, default_deadline=deadline
    )
    try:
        start = perf()
        pendings = [
            gateway.submit(d.text, workbooks[d.sheet_id])
            for d in descriptions
        ]
        report.outcomes = [p.result(timeout=120.0) for p in pendings]
        report.wall_seconds = perf() - start
        report.stats = gateway.stats()
    finally:
        gateway.close(drain=True)
    return report


def format_gateway(report: GatewayReport) -> str:
    stats = report.stats
    lines = [
        f"{report.n} requests / {report.workers} workers / "
        f"deadline {report.deadline * 1000:.0f}ms"
        if report.deadline is not None
        else f"{report.n} requests / {report.workers} workers / no deadline",
        f"throughput {report.throughput:>6.1f} req/s   "
        f"ok {report.ok_rate:.1%}   shed {report.shed_rate:.1%}",
        f"latency p50 {report.percentile_seconds(0.5) * 1000:>7.1f}ms   "
        f"p95 {report.percentile_seconds(0.95) * 1000:>7.1f}ms",
        f"outcomes: {report.code_histogram()}",
    ]
    if stats is not None:
        lines.append(
            f"workers: restarts {stats.restarts}, crashed {stats.crashed}, "
            f"timed out {stats.timed_out}, "
            f"workbooks {stats.registered_workbooks}"
        )
    return "\n".join(lines)


@dataclass
class ShardClusterReport:
    """One sharded-cluster storm: outcomes, failover counts, shard spread."""

    n: int = 0
    shards: int = 0
    workers_per_shard: int = 0
    killed_shard: int | None = None
    wall_seconds: float = 0.0
    outcomes: list = field(default_factory=list)  # ClusterResult, in order
    stats: object | None = None  # closing ClusterStats

    @property
    def throughput(self) -> float:
        return self.n / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def ok_rate(self) -> float:
        return sum(r.ok for r in self.outcomes) / self.n if self.n else 0.0

    def percentile_seconds(self, q: float) -> float:
        if not self.outcomes:
            return 0.0
        latencies = sorted(r.total_seconds for r in self.outcomes)
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    def code_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for outcome in self.outcomes:
            code = outcome.error_code or "ok"
            histogram[code] = histogram.get(code, 0) + 1
        return dict(sorted(histogram.items()))

    def shard_histogram(self) -> dict[object, int]:
        """Requests served per shard (``None`` = the shared cache tier)."""
        histogram: dict[object, int] = {}
        for outcome in self.outcomes:
            histogram[outcome.shard_id] = histogram.get(outcome.shard_id, 0) + 1
        return dict(
            sorted(histogram.items(), key=lambda kv: (kv[0] is None, kv[0]))
        )


def run_cluster(
    corpus: Corpus | None = None,
    sample: int | None = 60,
    shards: int = 3,
    workers_per_shard: int = 2,
    deadline: float | None = 60.0,
    queue_limit: int = 256,
    kill: bool = True,
) -> ShardClusterReport:
    """The sharded cluster under storm load, with an optional shard kill.

    Routes a test-split sample (all four sheets, so rendezvous routing
    spreads fingerprints across shards) through
    :class:`~repro.cluster.ShardedCluster`.  With ``kill=True`` the shard
    serving the most fingerprints is SIGKILLed once it is mid-storm — the
    report then shows the zero-loss failover bar the chaos suite enforces:
    every request resolves, the survivors absorb the victim's share.
    """
    import time as _time

    from ..cluster import ShardedCluster

    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [descriptions[int(k * step)] for k in range(sample)]
    descriptions = list(descriptions)
    workbooks = {
        sheet_id: build_sheet(sheet_id)
        for sheet_id in {d.sheet_id for d in descriptions}
    }
    report = ShardClusterReport(
        n=len(descriptions), shards=shards, workers_per_shard=workers_per_shard
    )
    cluster = ShardedCluster(
        shards=shards,
        workers_per_shard=workers_per_shard,
        queue_limit=queue_limit,
        default_deadline=deadline,
        retry_backoff=0.01,
        retry_backoff_cap=0.2,
    )
    try:
        victim = None
        if kill and shards > 1:
            routed: dict[int, int] = {}
            for workbook in workbooks.values():
                home = cluster.router.route(workbook.fingerprint())
                routed[home] = routed.get(home, 0) + 1
            victim = max(routed, key=routed.get)
        start = perf()
        pendings = [
            cluster.submit(d.text, workbooks[d.sheet_id])
            for d in descriptions
        ]
        if victim is not None:
            gateway = cluster.shards[victim].gateway
            deadline_at = _time.monotonic() + 30.0
            while _time.monotonic() < deadline_at:
                snap = gateway.stats()
                if snap.in_flight >= 1 and any(w.alive for w in snap.workers):
                    break
                _time.sleep(0.002)
            cluster.kill_shard(victim)
            report.killed_shard = victim
        report.outcomes = [p.result(timeout=300.0) for p in pendings]
        report.wall_seconds = perf() - start
        report.stats = cluster.stats()
    finally:
        cluster.close(drain=False)
    return report


def format_cluster(report: ShardClusterReport) -> str:
    stats = report.stats
    kill_note = (
        f"shard {report.killed_shard} SIGKILLed mid-storm"
        if report.killed_shard is not None
        else "no kill"
    )
    lines = [
        f"{report.n} requests / {report.shards} shards x "
        f"{report.workers_per_shard} workers / {kill_note}",
        f"throughput {report.throughput:>6.1f} req/s   "
        f"ok {report.ok_rate:.1%}",
        f"latency p50 {report.percentile_seconds(0.5) * 1000:>7.1f}ms   "
        f"p95 {report.percentile_seconds(0.95) * 1000:>7.1f}ms",
        f"outcomes: {report.code_histogram()}",
        f"served by: {report.shard_histogram()} (None = shared cache)",
    ]
    if stats is not None:
        lines.append(
            f"failover: retries {stats.retries}, failovers {stats.failovers}, "
            f"rerouted {stats.rerouted}, live shards "
            f"{stats.live_shards}/{len(stats.shards)}"
        )
        if stats.shared_cache is not None:
            lines.append(
                f"shared cache: hits {stats.cache_hits}, "
                f"puts {stats.shared_cache.puts}"
            )
    return "\n".join(lines)


@dataclass
class CacheReport:
    """A cold pass vs a warm (fully memoised) pass through one gateway."""

    n: int = 0
    workers: int = 0
    cold_seconds: float = 0.0
    warm_seconds: float = 0.0
    cache_hits: int = 0
    identical: bool = True
    stats: object | None = None  # closing GatewayStats

    @property
    def speedup(self) -> float:
        return (
            self.cold_seconds / self.warm_seconds if self.warm_seconds else 0.0
        )

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.n if self.n else 0.0


def run_cache(
    corpus: Corpus | None = None,
    sample: int | None = 40,
    workers: int = 2,
    queue_limit: int = 256,
) -> CacheReport:
    """The memoisation experiment: the same test-split sample twice
    through a cache-enabled gateway.  The first (cold) pass populates the
    cache through the workers; the second (warm) pass should resolve in
    the gateway front end.  The report records the wall-clock ratio, the
    warm hit rate, and whether both passes ranked byte-identical
    programs — the differential-correctness claim of :mod:`repro.cache`.
    """
    from ..serve import TranslationGateway

    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [descriptions[int(k * step)] for k in range(sample)]
    descriptions = list(descriptions)
    workbooks = {
        sheet_id: build_sheet(sheet_id)
        for sheet_id in {d.sheet_id for d in descriptions}
    }
    report = CacheReport(n=len(descriptions), workers=workers)
    gateway = TranslationGateway(
        workers=workers, queue_limit=queue_limit, cache=True
    )
    try:
        start = perf()
        cold = [
            p.result(timeout=120.0)
            for p in [
                gateway.submit(d.text, workbooks[d.sheet_id])
                for d in descriptions
            ]
        ]
        report.cold_seconds = perf() - start
        start = perf()
        warm = [
            p.result(timeout=120.0)
            for p in [
                gateway.submit(d.text, workbooks[d.sheet_id])
                for d in descriptions
            ]
        ]
        report.warm_seconds = perf() - start
        report.cache_hits = sum(r.cached for r in warm)
        report.identical = all(
            a.programs == b.programs and a.error_code == b.error_code
            for a, b in zip(cold, warm)
        )
        report.stats = gateway.stats()
    finally:
        gateway.close(drain=True)
    return report


def format_cache(report: CacheReport) -> str:
    lines = [
        f"{report.n} requests twice / {report.workers} workers / cache on",
        f"cold pass {report.cold_seconds * 1000:>8.1f}ms   "
        f"warm pass {report.warm_seconds * 1000:>8.1f}ms   "
        f"speedup {report.speedup:>5.1f}x",
        f"warm hit rate {report.hit_rate:.1%}   "
        f"identical rankings: {'yes' if report.identical else 'NO'}",
    ]
    if report.stats is not None and report.stats.cache is not None:
        c = report.stats.cache
        lines.append(
            f"cache: hits {c.hits}, misses {c.misses}, size {c.size}/"
            f"{c.capacity}, avg hit {c.avg_hit_seconds * 1e6:.0f}us, "
            f"avg miss {c.avg_miss_seconds * 1000:.1f}ms"
        )
    return "\n".join(lines)


_PROFILE_STAGES = {
    # span name -> reported stage (the pipeline breakdown of §3.1/§5)
    **{f"translate.{stage}": stage for stage in DP_STAGES},
    "cache.probe": "cache",
    "cache.commit": "cache",
    "gateway.queue": "queue-wait",
    "worker.translate": "worker",
}


@dataclass
class ProfileReport:
    """Per-stage time breakdown of a traced pass over the test split."""

    n: int = 0
    workers: int = 0
    wall_seconds: float = 0.0
    spans: int = 0
    traces: int = 0
    # stage -> (calls, total seconds)
    stages: dict[str, tuple[int, float]] = field(default_factory=dict)
    ok: int = 0

    def stage_seconds(self, stage: str) -> float:
        return self.stages.get(stage, (0, 0.0))[1]


def run_profile(
    corpus: Corpus | None = None,
    sample: int | None = 40,
    workers: int = 2,
    deadline: float | None = None,
) -> ProfileReport:
    """The observability experiment: a traced gateway pass over the
    Table 2 split, aggregated into a per-stage time breakdown.

    Every request flows through the full serving stack (admission →
    queue → worker process → DP translation) with a live
    :class:`~repro.obs.Tracer`; the report folds the stitched span trees
    into seconds-per-stage (seeds / rules / synthesis / rank / cache /
    queue-wait / worker) — where the paper's interactivity budget
    actually goes.
    """
    from ..obs import Tracer
    from ..serve import TranslationGateway

    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [descriptions[int(k * step)] for k in range(sample)]
    descriptions = list(descriptions)
    workbooks = {
        sheet_id: build_sheet(sheet_id)
        for sheet_id in {d.sheet_id for d in descriptions}
    }
    tracer = Tracer()
    report = ProfileReport(n=len(descriptions), workers=workers)
    gateway = TranslationGateway(
        workers=workers, queue_limit=max(256, len(descriptions)),
        default_deadline=deadline, cache=True, tracer=tracer,
    )
    try:
        start = perf()
        pendings = [
            gateway.submit(d.text, workbooks[d.sheet_id])
            for d in descriptions
        ]
        results = [p.result(timeout=120.0) for p in pendings]
        report.wall_seconds = perf() - start
        report.ok = sum(r.ok for r in results)
    finally:
        gateway.close(drain=True)
    records = tracer.finished()
    report.spans = len(records)
    report.traces = len({r["trace_id"] for r in records})
    stages: dict[str, tuple[int, float]] = {}
    for record in records:
        stage = _PROFILE_STAGES.get(record["name"])
        if stage is None:
            continue
        calls, total = stages.get(stage, (0, 0.0))
        stages[stage] = (calls + 1, total + (record.get("duration") or 0.0))
    report.stages = stages
    return report


_PROFILE_ORDER = DP_STAGES + ("cache", "queue-wait", "worker")


def format_profile(report: ProfileReport) -> str:
    worker_total = report.stage_seconds("worker")
    lines = [
        f"{report.n} requests / {report.workers} workers / "
        f"{report.traces} traces, {report.spans} spans, ok {report.ok}",
        f"{'stage':<12} {'calls':>6} {'total':>9} {'mean':>9} {'share':>7}",
    ]
    for stage in _PROFILE_ORDER:
        calls, total = report.stages.get(stage, (0, 0.0))
        mean_ms = (total / calls * 1000) if calls else 0.0
        # Translation stages as a share of total worker-side time; the
        # two non-worker rows (queue-wait and the front-end half of
        # cache) are reported against wall clock instead.
        base = worker_total if stage not in ("queue-wait",) else (
            report.wall_seconds
        )
        share = (total / base) if base else 0.0
        lines.append(
            f"{stage:<12} {calls:>6} {total:>8.3f}s {mean_ms:>7.2f}ms "
            f"{share:>6.1%}"
        )
    lines.append(
        f"{'wall':<12} {'':>6} {report.wall_seconds:>8.3f}s"
    )
    return "\n".join(lines)


def run_fig1() -> str:
    """Fig. 1 — the running example's annotated candidate list."""
    from ..session import NLyzeSession

    workbook = build_sheet("payroll")
    session = NLyzeSession(workbook)
    step = session.ask("sum the totalpay for the capitol hill baristas")
    lines = [workbook.default_table.render(max_rows=6), ""]
    lines.append(step.render())
    return "\n".join(lines)


@dataclass
class SloLaneReport:
    """One telemetry-plane pass: good traffic, an error burst, ``/slo``."""

    n: int = 0
    errors_injected: int = 0
    workers: int = 0
    wall_seconds: float = 0.0
    ok: int = 0
    report: dict = field(default_factory=dict)
    sampled: list = field(default_factory=list)
    error_ids: list = field(default_factory=list)

    @property
    def retained_error_ids(self) -> set:
        import json as _json

        return {
            record["trace_id"]
            for record in map(_json.loads, self.sampled)
            if record.get("verdict") == "error"
        }


def run_slo(
    corpus: Corpus | None = None,
    sample: int | None = 60,
    errors: int = 12,
    workers: int = 2,
) -> SloLaneReport:
    """The telemetry plane end to end: serve a test-split sample through
    a gateway, inject a fault burst under known trace ids,
    and read back the ``/slo`` document and the tail-sampled traces.
    """
    from ..serve import TranslationGateway

    corpus = corpus or Corpus.default()
    descriptions = corpus.test
    if sample is not None and sample < len(descriptions):
        step = len(descriptions) / sample
        descriptions = [descriptions[int(k * step)] for k in range(sample)]
    workbooks = {
        sheet_id: build_sheet(sheet_id)
        for sheet_id in {d.sheet_id for d in descriptions}
    }
    lane = SloLaneReport(
        n=len(descriptions), errors_injected=errors, workers=workers,
        error_ids=[f"slo-err-{i}" for i in range(errors)],
    )
    gateway = TranslationGateway(workers=workers, queue_limit=512)
    try:
        start = perf()
        pendings = [
            gateway.submit(
                d.text, workbooks[d.sheet_id], trace_id=f"slo-good-{i}"
            )
            for i, d in enumerate(descriptions)
        ]
        pendings += [
            gateway.submit(
                descriptions[0].text,
                workbooks[descriptions[0].sheet_id],
                faults="tokenize:raise:runtime",
                trace_id=trace_id,
            )
            for trace_id in lane.error_ids
        ]
        outcomes = [p.result(timeout=120.0) for p in pendings]
        lane.wall_seconds = perf() - start
        lane.ok = sum(1 for r in outcomes if r.ok)
        lane.report = gateway.slo_report()
        lane.sampled = gateway.sampled_traces()
    finally:
        gateway.close(drain=True)
    return lane


def format_slo(lane: SloLaneReport) -> str:
    report = lane.report
    lines = [
        f"{lane.n} requests + {lane.errors_injected} injected errors / "
        f"{lane.workers} workers / wall {lane.wall_seconds:.2f}s / "
        f"ok {lane.ok}",
        f"{'slo':<16} {'objective':>9} {'good':>6} {'bad':>5} "
        f"{'burn(1h)':>9} {'budget':>7}  alerts",
    ]
    for slo in report.get("slos", []):
        windows = slo["windows"]
        fired = [a["rule"] for a in slo["alerts"] if a["fired"]]
        lines.append(
            f"{slo['name']:<16} {slo['objective']:>9.3f} "
            f"{int(windows['6h']['good']):>6} {int(windows['6h']['bad']):>5} "
            f"{windows['1h']['burn_rate']:>9.2f} "
            f"{slo['budget_remaining']:>6.1%}  "
            f"{','.join(fired) if fired else '-'}"
        )
    sampler = report.get("sampler", {})
    retained = lane.retained_error_ids
    lines.append(
        f"sampler: {sampler.get('entries', 0)} traces / "
        f"{sampler.get('bytes', 0)} of {sampler.get('max_bytes', 0)} bytes / "
        f"errors retained {len(retained & set(lane.error_ids))}"
        f"/{len(lane.error_ids)}"
    )
    lines.append(f"healthy: {report.get('healthy')}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Large-sheet stress (the columnar backend's home regime)
# ---------------------------------------------------------------------------


@dataclass
class LargeSheetReport:
    """Cold translation against a generated large workbook.

    "Cold" here is the serving-cold path: a fresh ``Translator`` per
    request (as a gateway worker builds one on first contact with a
    workbook fingerprint), result cache off.  The first request also pays
    the columnar index build — the index is memoised per sheet revision,
    which is exactly the production behaviour being measured.
    """

    rows: int = 0
    n: int = 0
    build_seconds: float = 0.0
    first_ms: float = 0.0          # first request: index build + translate
    median_ms: float = 0.0         # steady-state cold request
    mean_ms: float = 0.0
    answered: int = 0
    distinct_values: int = 0
    text_cells: int = 0


def run_largesheet(
    rows: int = 10_000,
    sample: int | None = None,
    seed: int | None = None,
) -> LargeSheetReport:
    """Translate a deterministic workload against a ``rows``-row stress
    workbook (:mod:`repro.dataset.stress`)."""
    from statistics import mean, median

    from ..dataset.stress import (
        DEFAULT_STRESS_SEED,
        stress_sentences,
        stress_workbook,
    )
    from ..translate import Translator

    report = LargeSheetReport(rows=rows)

    start = perf()
    workbook = stress_workbook(rows, seed=DEFAULT_STRESS_SEED if seed is None else seed)
    report.build_seconds = perf() - start
    sentences = stress_sentences(workbook, count=sample or 12)
    report.n = len(sentences)

    # Warm process-level one-time costs (imports, rule parsing) on a tiny
    # sheet so they do not masquerade as per-request latency; the stress
    # workbook itself stays cold.
    Translator(build_sheet(SHEET_ORDER[0])).translate("sum the hours")

    timings: list[float] = []
    for text in sentences:
        start = perf()
        translator = Translator(workbook)
        candidates = translator.translate(text)
        timings.append((perf() - start) * 1000.0)
        if candidates:
            report.answered += 1
    report.first_ms = timings[0]
    report.median_ms = median(timings[1:] or timings)
    report.mean_ms = mean(timings)
    index = workbook.columnar_index()
    report.distinct_values = index.n_values
    report.text_cells = index.n_cells()
    return report


def format_largesheet(report: LargeSheetReport) -> str:
    lines = [
        f"{report.rows} rows / {report.n} cold requests",
        f"workbook build {report.build_seconds:>6.2f}s   "
        f"first request {report.first_ms:>8.1f}ms (includes index build)",
        f"per request: median {report.median_ms:>7.1f}ms   "
        f"mean {report.mean_ms:>7.1f}ms   "
        f"answered {report.answered}/{report.n}",
        f"index: {report.distinct_values} distinct values over "
        f"{report.text_cells} text cells",
    ]
    return "\n".join(lines)
