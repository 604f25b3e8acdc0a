"""Worker-pool respawn backoff, jitter, quarantine, fork fd hygiene."""

from __future__ import annotations

import random
import signal
import threading
import time

import pytest

from repro.serve import TranslationGateway, WorkerCrashed, WorkerPool

from ..conftest import make_payroll
from .waiters import wait_until


def make_pool(**overrides):
    defaults = dict(
        restart_backoff=0.1, restart_backoff_cap=2.0, restart_jitter=0.5
    )
    defaults.update(overrides)
    return WorkerPool(1, **defaults)


class TestBackoffDelay:
    def test_first_spawn_is_free(self):
        pool = make_pool()
        assert pool.backoff_delay(0) == 0.0

    def test_envelope_doubles_then_caps_with_jitter_off(self):
        pool = make_pool(restart_jitter=0.0)
        assert [pool.backoff_delay(n) for n in range(1, 7)] == [
            0.1, 0.2, 0.4, 0.8, 1.6, 2.0,  # capped at restart_backoff_cap
        ]

    def test_jitter_spreads_within_half_envelope(self):
        """With the default jitter of 0.5, each delay is uniform in
        [envelope/2, envelope] — never above the envelope (backoff still
        bounds the fork rate) and never below half (still a real wait)."""
        pool = make_pool(rng=random.Random(7))
        for n in range(1, 8):
            envelope = min(2.0, 0.1 * 2 ** (n - 1))
            delays = [pool.backoff_delay(n) for _ in range(200)]
            assert all(envelope / 2 <= d <= envelope for d in delays)
            # it really varies: a lockstep herd would see one value
            assert len({round(d, 9) for d in delays}) > 100

    def test_jitter_is_seedable_and_deterministic(self):
        a = make_pool(rng=random.Random(42))
        b = make_pool(rng=random.Random(42))
        assert [a.backoff_delay(3) for _ in range(10)] == [
            b.backoff_delay(3) for _ in range(10)
        ]

    def test_two_seeds_desynchronise_the_herd(self):
        """The point of the jitter: two slots crashing at the same moment
        sleep different amounts and do not re-fork in lockstep."""
        a = make_pool(rng=random.Random(1))
        b = make_pool(rng=random.Random(2))
        assert [a.backoff_delay(4) for _ in range(5)] != [
            b.backoff_delay(4) for _ in range(5)
        ]

    def test_zero_backoff_never_sleeps(self):
        pool = make_pool(restart_backoff=0.0)
        assert pool.backoff_delay(5) == 0.0

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            make_pool(restart_jitter=1.5)
        with pytest.raises(ValueError):
            make_pool(restart_jitter=-0.1)


class TestEnsureBackoff:
    def test_respawn_sleeps_the_jittered_delay(self):
        """``ensure`` after crashes sleeps exactly ``backoff_delay`` —
        verified with an injected clock (recorded sleeps) and a seeded
        rng predicting the jitter."""
        slept: list[float] = []
        pool = WorkerPool(
            1,
            restart_backoff=0.1,
            restart_backoff_cap=2.0,
            restart_jitter=0.5,
            sleep=slept.append,
            rng=random.Random(99),
        )
        try:
            pool.handles[0].consecutive_crashes = 3
            expected = random.Random(99).random()  # the one jitter draw
            pool.ensure(0)
            envelope = 0.4  # 0.1 * 2**(3-1)
            assert slept == [envelope * (1.0 - 0.5 * expected)]
            assert pool.handles[0].alive
        finally:
            pool.shutdown()

    def test_first_spawn_does_not_sleep(self):
        slept: list[float] = []
        pool = WorkerPool(1, sleep=slept.append)
        try:
            pool.ensure(0)
            assert slept == []
        finally:
            pool.shutdown()


class TestQuarantine:
    def test_quarantined_ensure_raises_without_forking(self):
        pool = make_pool()
        try:
            assert pool.quarantine() == 0  # nothing was alive yet
            assert pool.quarantined
            with pytest.raises(WorkerCrashed, match="quarantined"):
                pool.ensure(0)
            assert not pool.handles[0].alive  # no fork happened
        finally:
            pool.shutdown()

    def test_quarantine_kills_live_workers(self):
        pool = make_pool()
        try:
            pool.ensure(0)
            assert pool.handles[0].alive
            assert pool.quarantine() == 1
            # SIGKILL is asynchronous; join via retire on shutdown below
        finally:
            pool.shutdown()
        assert not pool.handles[0].alive


class TestKill:
    def test_killed_worker_reads_dead_at_once_and_respawns(self):
        """``kill`` returns only once the process has exited, so the next
        ``ensure`` respawns instead of handing a request to a dying
        worker."""
        pool = make_pool()
        try:
            first = pool.ensure(0)
            pid = first.pid
            assert pool.kill(0)
            assert not pool.handles[0].alive
            assert first.process.exitcode == -signal.SIGKILL
            handle = pool.ensure(0)
            assert handle.alive
            assert handle.pid != pid
            assert handle.restarts == 1
        finally:
            pool.shutdown()

    def test_kill_of_a_dead_slot_is_a_noop(self):
        pool = make_pool()
        try:
            assert not pool.kill(0)  # never spawned
            pool.ensure(0)
            assert pool.kill(0)
            assert not pool.kill(0)  # already dead
        finally:
            pool.shutdown()

    def test_two_threads_joining_one_killed_worker(self):
        """A runner's ``_retire`` may join the process ``kill`` is
        joining: both return promptly, and the slot reads dead."""
        pool = make_pool()
        try:
            process = pool.ensure(0).process
            start = threading.Barrier(2)

            def join():
                start.wait(timeout=10)
                process.join(timeout=10)

            joiner = threading.Thread(target=join, daemon=True)
            joiner.start()
            start.wait(timeout=10)
            began = time.monotonic()
            assert pool.kill(0)
            joiner.join(timeout=10)
            assert not joiner.is_alive()
            assert time.monotonic() - began < 5.0
            assert not pool.handles[0].alive
            assert process.exitcode == -signal.SIGKILL
        finally:
            pool.shutdown()


class TestForkFdHygiene:
    def test_kill_wakes_in_flight_calls_despite_sibling_pool_forks(self):
        """SIGKILLing a worker must EOF its pipe *promptly* even when
        sibling pools fork workers concurrently in the same parent.

        With the ``fork`` start method a concurrently-forked sibling can
        inherit another worker's child pipe end if its fork lands inside
        the pipe-create → parent-close window; the leaked copy keeps the
        pipe open past the worker's death, so the blocked runner only
        wakes at its full timeout instead of on EOF.  The pool guards the
        window with a process-wide fork lock — this test pins the
        contract at the gateway level: two gateways fork workers at the
        same moment, one is quarantined mid-request, and its hung
        requests must resolve as ``worker_crashed`` long before the
        300-second request timeout.
        """
        a = TranslationGateway(
            make_payroll(), workers=2, request_timeout=300.0, cache=False,
            restart_backoff=0.01, restart_backoff_cap=0.1,
        )
        b = TranslationGateway(
            make_payroll(), workers=2, request_timeout=300.0, cache=False,
            restart_backoff=0.01, restart_backoff_cap=0.1,
        )
        try:
            # Both gateways fork lazily on first dispatch — submitting to
            # them back-to-back makes their runner threads fork workers
            # concurrently, the exact interleaving that used to leak fds.
            hung = [
                a.submit("sum the hours", faults="tokenize:delay:120.0")
                for _ in range(2)
            ]
            warm = [b.submit("sum the hours") for _ in range(2)]
            wait_until(
                lambda: a.stats().in_flight >= 2
                and all(w.alive for w in a.stats().workers),
                timeout=30.0,
                message="hung requests never dispatched on gateway A",
            )
            for pending in warm:
                assert pending.result(timeout=60.0).ok
            start = time.monotonic()
            assert a.quarantine() == 2
            results = [p.result(timeout=30.0) for p in hung]
            woke_after = time.monotonic() - start
            assert woke_after < 15.0, (
                f"EOF after SIGKILL took {woke_after:.1f}s — a leaked "
                "child pipe end is keeping dead workers' pipes open"
            )
            for result in results:
                assert not result.ok
                assert result.error_code == "worker_crashed"
        finally:
            a.close(drain=False)
            b.close(drain=False)
