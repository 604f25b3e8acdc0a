"""Deadline-aware translation with graceful degradation.

:class:`TranslationService` wraps a :class:`~repro.translate.Translator`
with the guarantees a production front end needs:

* **never raises** — every failure (budget trip, injected fault, genuine
  bug) is converted into a structured :class:`ServiceResult` carrying a
  machine-readable error code;
* **bounded** — a wall-clock ``deadline`` (and optional derivation cap) is
  split across a *degradation ladder*: the full configuration first, then
  a reduced-beam configuration, then rules-only.  A tier that times out
  with no candidates is retried at the next-cheaper tier; a tier whose
  budget trips but whose anytime ranking still found programs returns
  them, marked ``degraded``;
* **diagnosable** — the result records the tier used, elapsed time, budget
  spend, and a per-tier attempt log.

With no deadline and no faults the service is behaviour-preserving: tier 0
runs the ordinary translator with an unlimited budget and returns its exact
ranking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable

from ..cache import CacheKey, ResultCache, normalise_sentence, options_signature
from ..errors import ReproError
from ..obs.clock import perf
from ..obs.log import get_logger
from ..obs.trace import NULL_TRACER
from ..sheet import Workbook
from ..sheet.cell import table_revision
from ..translate import Candidate, Translator, TranslatorConfig
from ..translate.rules import RuleSet
from .budget import Budget
from .faults import FaultPlan, active_plan, installed

__all__ = [
    "AttemptReport",
    "ServiceResult",
    "Tier",
    "TranslationService",
    "degradation_ladder",
]

# Deterministic input rejections: retrying a cheaper tier cannot change the
# outcome, so the ladder stops immediately.
INPUT_ERROR_CODES = frozenset(
    {"empty_description", "description_too_long", "symbols_only"}
)

_UNSET = object()

_log = get_logger("runtime.service")


@dataclass(frozen=True)
class Tier:
    """One rung of the degradation ladder."""

    name: str
    config: TranslatorConfig


def degradation_ladder(config: TranslatorConfig | None = None) -> tuple[Tier, ...]:
    """The default ladder: full fidelity, reduced search, rules-only.

    The reduced tier shrinks the three work knobs (beam, synthesis closure,
    alignment cap) by ~3x — in the beam ablation bench that costs a few
    points of recall but roughly halves latency.  The rules-only tier drops
    the synthesis closure entirely, which is the paper's cheapest ablation
    row (Table 3) and is effectively immune to `CombAll` blow-ups.

    The ladder respects the caller's ablation choices: a config with rules
    disabled never grows a rules-only rung, and rungs whose configuration
    is identical to an earlier one are dropped — re-running the exact same
    search cannot find anything new and only burns deadline (a base config
    that is already rules-only collapses to one or two rungs).
    """
    full = config or TranslatorConfig()
    reduced = replace(
        full,
        beam_size=max(24, full.beam_size // 3),
        synth_max_new=max(16, full.synth_max_new // 3),
        max_alignments=max(4, full.max_alignments // 2),
    )
    rungs = [Tier("full", full), Tier("reduced", reduced)]
    if full.use_rules:
        rungs.append(Tier("rules_only", replace(reduced, use_synthesis=False)))
    tiers: list[Tier] = []
    for rung in rungs:
        if all(rung.config != kept.config for kept in tiers):
            tiers.append(rung)
    return tuple(tiers)


@dataclass
class AttemptReport:
    """Diagnostics for one tier attempt."""

    tier: str
    elapsed: float
    derivations: int
    exhausted: bool
    candidates: int
    error_code: str | None = None
    error: str | None = None
    cached: bool = False


@dataclass
class ServiceResult:
    """Outcome of one service request: candidates plus diagnostics."""

    candidates: list[Candidate]
    tier: str | None
    degraded: bool
    anytime: bool
    elapsed: float
    budget_spent: int
    attempts: list[AttemptReport] = field(default_factory=list)
    error_code: str | None = None
    error: str | None = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error_code is None

    @property
    def top(self) -> Candidate | None:
        return self.candidates[0] if self.candidates else None


class TranslationService:
    """Resilient front end over the translator for one workbook.

    ``deadline`` is the total wall-clock budget in seconds for a request
    across all ladder tiers (``None`` = unbounded); ``max_derivations``
    additionally caps the work per tier attempt.  ``faults`` arms a
    :class:`FaultPlan` for the duration of each request (testing knob; the
    ``REPRO_FAULTS`` env var arms one process-wide instead).

    ``cache`` attaches a :class:`~repro.cache.ResultCache`: each ladder
    rung is memoised independently under ``(normalised sentence, workbook
    fingerprint, rung signature)``, so a repeat request short-circuits at
    the first rung whose result is known — including cheap rungs seeded by
    an earlier degraded request.  Only *clean, fully-searched* rungs are
    committed (no error, budget not exhausted), whose output is provably
    independent of the deadline in force, so a hit is byte-identical to
    recomputing.  When the workbook mutates (its fingerprint changes), the
    service invalidates every entry it cached for the old fingerprint.
    Requests with a fault plan armed bypass the cache entirely.
    """

    def __init__(
        self,
        workbook: Workbook,
        rules: RuleSet | None = None,
        config: TranslatorConfig | None = None,
        deadline: float | None = None,
        max_derivations: int | None = None,
        tiers: tuple[Tier, ...] | None = None,
        faults: FaultPlan | None = None,
        cache: ResultCache | None = None,
        clock: Callable[[], float] = perf,
        tracer=None,
    ) -> None:
        self.workbook = workbook
        self.rules = rules
        self.deadline = deadline
        self.max_derivations = max_derivations
        self.tiers = tiers or degradation_ladder(config)
        self.faults = faults
        self.cache = cache
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # tier name -> (table revision it was built at, translator)
        self._translators: dict[str, tuple[int, Translator]] = {}
        self._translators_lock = threading.Lock()
        # Guards the read-compare-write on _last_fingerprint: two threads
        # translating through one service must not race the mutation
        # detection into a missed (or doubled) invalidation.
        self._fingerprint_lock = threading.Lock()
        self._last_fingerprint: str | None = None
        self._tier_signatures: dict[str, str] = {}
        self._rules_signature = (
            "builtin"
            if rules is None
            else options_signature(*[rule.render() for rule in rules])
        )

    # -- translators ------------------------------------------------------------

    def translator_for(self, tier: Tier) -> Translator:
        """The tier's translator for the sheet as it is now.

        A translator's sheet context and index read table content only,
        so it is rebuilt when the table revision has moved since it was
        built; its type checker clears what it read from other cells
        itself (``TypeChecker.refresh``)."""
        # Double-checked: the dict read is lock-free on the hot path, and
        # the lock ensures concurrent first calls build one translator per
        # tier instead of racing on construction.  The revision is read
        # before building, so a write during the build leaves the entry
        # stale for the next call, never wrongly fresh.
        revision = table_revision()
        cached = self._translators.get(tier.name)
        if cached is None or cached[0] != revision:
            with self._translators_lock:
                cached = self._translators.get(tier.name)
                if cached is None or cached[0] != revision:
                    cached = (revision, Translator(
                        self.workbook, rules=self.rules, config=tier.config
                    ))
                    self._translators[tier.name] = cached
        return cached[1]

    @property
    def context(self):
        """The full-fidelity sheet context (for annotation/explanations)."""
        return self.translator_for(self.tiers[0]).ctx

    # -- cache keying -----------------------------------------------------------

    def _tier_signature(self, tier: Tier) -> str:
        """The options signature for one rung: its full translator config
        plus the rule set (``max_derivations``/``deadline`` are excluded on
        purpose — committed entries come only from runs that never tripped
        a budget, whose output those knobs cannot have influenced)."""
        signature = self._tier_signatures.get(tier.name)
        if signature is None:
            signature = options_signature(
                tier.name, tier.config, self._rules_signature
            )
            self._tier_signatures[tier.name] = signature
        return signature

    # -- the request path -------------------------------------------------------

    def translate(
        self,
        sentence: str,
        tracer=None,
        *,
        deadline: float | None | object = _UNSET,
        on_update: Callable[[str, list[Candidate]], None] | None = None,
    ) -> ServiceResult:
        """Translate under the service guarantees (never raises).

        ``tracer`` overrides the service's tracer for this request (the
        gateway worker passes a per-request tracer whose records travel
        back across the process boundary — docs/OBSERVABILITY.md).

        ``deadline`` overrides the service-level deadline for this request
        only (``None`` = unbounded), so one service instance can serve
        concurrent requests with different budgets without mutating shared
        state — the HTTP streaming path depends on this.

        ``on_update`` is the anytime-improvement hook: called as
        ``on_update(tier_name, candidates)`` with the current (partial)
        ranking each time the translator's DP finishes a width row.  The
        callback runs on the translating thread; exceptions from it are
        logged, never propagated into the ladder (docs/HTTP.md).
        """
        tracer = tracer if tracer is not None else self.tracer
        if deadline is _UNSET:
            deadline = self.deadline
        if self.faults is not None:
            with installed(self.faults):
                return self._translate(sentence, tracer, deadline, on_update)
        return self._translate(sentence, tracer, deadline, on_update)

    def _translate(
        self, sentence: str, tracer, deadline: float | None, on_update
    ) -> ServiceResult:
        start = self.clock()
        attempts: list[AttemptReport] = []
        spent = 0
        # Fault injection can perturb any stage, so an armed plan (per
        # request or process-wide) disables memoisation for this request.
        cache = self.cache if active_plan() is None else None
        normalised = fingerprint = None
        if cache is not None:
            normalised = normalise_sentence(sentence)
            fingerprint = self.workbook.fingerprint()
            with self._fingerprint_lock:
                previous = self._last_fingerprint
                self._last_fingerprint = fingerprint
            if previous not in (None, fingerprint):
                # The workbook mutated since the last request: everything
                # this service committed for the old state is now garbage.
                cache.invalidate(previous)

        with tracer.span("service.request") as root:
            result = self._run_ladder(
                sentence, start, attempts, spent, cache,
                normalised, fingerprint, tracer, deadline, on_update,
            )
            root.set(
                tier=result.tier,
                degraded=result.degraded,
                anytime=result.anytime,
                cached=result.cached,
            )
            if result.error_code is not None:
                root.error(result.error).set(error_code=result.error_code)
            return result

    def _run_ladder(
        self,
        sentence: str,
        start: float,
        attempts: list[AttemptReport],
        spent: int,
        cache: ResultCache | None,
        normalised: str | None,
        fingerprint: str | None,
        tracer,
        deadline: float | None,
        on_update,
    ) -> ServiceResult:
        for k, tier in enumerate(self.tiers):
            key = None
            if cache is not None:
                key = CacheKey(
                    normalised, fingerprint, self._tier_signature(tier)
                )
                with tracer.span("cache.probe", tier=tier.name) as probe:
                    hit = cache.get(key)
                    probe.set(hit=hit is not None)
                if hit is not None:
                    elapsed = self.clock() - start
                    cache.observe_hit(elapsed)
                    attempts.append(
                        AttemptReport(
                            tier=tier.name,
                            elapsed=self.clock() - start,
                            derivations=0,
                            exhausted=False,
                            candidates=len(hit),
                            cached=True,
                        )
                    )
                    return ServiceResult(
                        candidates=list(hit),
                        tier=tier.name,
                        degraded=k > 0,
                        anytime=False,
                        elapsed=self.clock() - start,
                        budget_spent=spent,
                        attempts=attempts,
                        cached=True,
                    )
            budget = self._budget_for(k, start, deadline)
            t0 = self.clock()
            error: str | None = None
            code: str | None = None
            candidates: list[Candidate] = []
            progress = None
            if on_update is not None:
                progress = self._progress_for(tier.name, on_update)
            with tracer.span("service.tier", tier=tier.name) as tier_span:
                try:
                    candidates = self.translator_for(tier).translate(
                        sentence, budget=budget, tracer=tracer,
                        progress=progress,
                    )
                except ReproError as exc:
                    error, code = str(exc), exc.code
                except Exception as exc:  # noqa: BLE001 - the never-crash contract
                    error, code = f"{type(exc).__name__}: {exc}", "internal_error"
                tier_span.set(
                    candidates=len(candidates),
                    derivations=budget.spent_derivations,
                    exhausted=budget.exhausted,
                )
                if code is not None:
                    tier_span.error(error).set(error_code=code)
            spent += budget.spent_derivations
            tier_elapsed = self.clock() - t0
            attempts.append(
                AttemptReport(
                    tier=tier.name,
                    elapsed=tier_elapsed,
                    derivations=budget.spent_derivations,
                    exhausted=budget.exhausted,
                    candidates=len(candidates),
                    error_code=code,
                    error=error,
                )
            )
            if key is not None and code is None and not budget.exhausted:
                # Clean, fully-searched rung: its ranking is a pure
                # function of (sentence, workbook, rung config) —
                # deadline-independent — so it is safe to memoise.  An
                # exhausted (anytime) or errored rung never is.
                with tracer.span("cache.commit", tier=tier.name):
                    cache.put(key, tuple(candidates))
                    cache.observe_miss(tier_elapsed)

            if code is None and candidates:
                return ServiceResult(
                    candidates=candidates,
                    tier=tier.name,
                    degraded=k > 0 or budget.exhausted,
                    anytime=budget.exhausted,
                    elapsed=self.clock() - start,
                    budget_spent=spent,
                    attempts=attempts,
                )
            if code is None and not budget.exhausted:
                # A clean, fully-searched run found nothing; cheaper tiers
                # search strictly less, so stop here.
                return ServiceResult(
                    candidates=[],
                    tier=tier.name,
                    degraded=k > 0,
                    anytime=False,
                    elapsed=self.clock() - start,
                    budget_spent=spent,
                    attempts=attempts,
                )
            if code in INPUT_ERROR_CODES:
                break
            # Timed out empty or faulted: fall through to the next tier.

        last = attempts[-1]
        code = last.error_code or "deadline_exhausted"
        error = last.error or (
            f"no complete translation within the "
            f"{deadline * 1000:.0f} ms deadline"
            if deadline is not None
            else "no complete translation within budget"
        )
        return ServiceResult(
            candidates=[],
            tier=None,
            degraded=True,
            anytime=False,
            elapsed=self.clock() - start,
            budget_spent=spent,
            attempts=attempts,
            error_code=code,
            error=error,
        )

    def _budget_for(
        self, k: int, start: float, deadline: float | None | object = _UNSET
    ) -> Budget:
        """An even split of the remaining deadline over the remaining
        tiers (the last tier inherits everything left)."""
        if deadline is _UNSET:
            deadline = self.deadline
        if deadline is None:
            return Budget(max_derivations=self.max_derivations)
        remaining = max(0.0, deadline - (self.clock() - start))
        slice_ = remaining / (len(self.tiers) - k)
        return Budget(
            deadline=slice_,
            max_derivations=self.max_derivations,
            clock=self.clock,
        )

    @staticmethod
    def _progress_for(tier_name: str, on_update) -> Callable:
        """Wrap the caller's anytime hook: attach the tier name and keep
        callback bugs out of the ladder (they are observability, not
        translation)."""

        def progress(candidates: list[Candidate]) -> None:
            try:
                on_update(tier_name, candidates)
            except Exception:  # noqa: BLE001 - hook must not poison the rung
                _log.exception("anytime on_update hook raised")

        return progress
