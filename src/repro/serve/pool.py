"""Crash-isolated worker pool for the translation gateway.

Each pool slot owns at most one OS process running
:func:`repro.serve.worker.worker_main` and the parent end of its pipe.
The slot's :class:`WorkerHandle` is permanent — it survives any number of
process deaths and carries the slot's history (restart count, consecutive
crashes, warm fingerprints) across respawns.

Crash containment contract:

* :meth:`WorkerHandle.call` either returns a reply dict or raises
  :class:`WorkerCrashed` (the process died mid-request: killed, crashed,
  or exited) / :class:`WorkerTimedOut` (no reply within the allotted
  wall clock — a hung worker is killed and treated like a crash);
* a dead slot is respawned lazily by :meth:`WorkerPool.ensure` with
  exponential backoff proportional to the slot's *consecutive* crash
  count (a successful call resets it), so a crash-looping workload
  cannot melt the host with fork storms.  Each delay is jittered
  (``restart_jitter``) so the slots of a crashed shard do not respawn in
  lockstep and re-fork as one thundering herd;
* :meth:`WorkerPool.kill` SIGKILLs a live worker on purpose — the chaos
  tests use it as the external "segfault" injector;
* :meth:`WorkerPool.quarantine` kills every worker *and* refuses all
  future respawns: the pool behaves like a machine that just lost power.
  ``ensure`` on a quarantined pool raises :class:`WorkerCrashed`, which
  flows through the gateway's existing crash containment, so every
  request routed at a dead shard resolves promptly with
  ``worker_crashed`` instead of blocking — the hook
  ``repro.cluster``'s shard-kill chaos rides on.

The pool prefers the ``fork`` start method when the platform offers it
(workers inherit the already-imported translation stack instead of
re-importing it); ``spawn`` works too and is selected automatically
elsewhere.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from ..obs.log import fields as log_fields
from ..obs.log import get_logger
from .worker import worker_main

__all__ = [
    "WorkerCrashed",
    "WorkerHandle",
    "WorkerPool",
    "WorkerTimedOut",
    "pick_start_method",
]


class WorkerCrashed(Exception):
    """The worker process died before replying."""


class WorkerTimedOut(Exception):
    """The worker process failed to reply within the allotted time."""


def pick_start_method(preferred: str | None = None) -> str:
    """``preferred`` if given, else ``fork`` when available, else spawn."""
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} not available (have: {available})"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


_log = get_logger("serve.pool")

# How long a kill, a retire or a shutdown waits for a worker to exit.
_JOIN_SECONDS = 1.0

# Process-wide fork lock, shared by every pool in the parent.  With the
# ``fork`` start method a child inherits every file descriptor open at
# fork time — including the *child* end of another worker's pipe if some
# runner thread is between ``Pipe()`` and its parent-side
# ``child_conn.close()``.  A leaked child end is fatal to crash
# containment: the parent's ``poll()`` on that pipe only sees EOF once
# every copy of the child end is closed, so SIGKILLing the worker no
# longer wakes its runner — the request blocks until its full timeout
# instead of failing over promptly.  Holding this lock from pipe
# creation through the parent-side close makes the window atomic across
# all pools (a multi-shard cluster forks workers from many threads of
# one parent).
_FORK_LOCK = threading.Lock()


@dataclass
class WorkerStats:
    """One slot's diagnostics snapshot."""

    worker_id: int
    alive: bool
    restarts: int
    served: int
    warm_fingerprints: int

    def snapshot(self) -> dict[str, Any]:
        """The ``snapshot()`` protocol (see :mod:`repro.obs.metrics`)."""
        return asdict(self)


@dataclass
class WorkerHandle:
    """Permanent per-slot state wrapping the current (if any) process."""

    slot: int
    process: object | None = None
    conn: object | None = None
    restarts: int = -1  # first spawn brings it to 0
    consecutive_crashes: int = 0
    served: int = 0
    warm: set = field(default_factory=set)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def call(self, request: dict, timeout: float) -> dict:
        """Send one request and wait for its reply (see module docstring)."""
        try:
            self.conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {self.slot}: send failed: {exc}")
        try:
            if not self.conn.poll(timeout):
                raise WorkerTimedOut(
                    f"worker {self.slot}: no reply within {timeout:.2f}s"
                )
            reply = self.conn.recv()
        except WorkerTimedOut:
            raise
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {self.slot}: died mid-request: {exc}")
        if not isinstance(reply, dict) or reply.get("id") != request["id"]:
            raise WorkerCrashed(
                f"worker {self.slot}: protocol violation in reply"
            )
        return reply


class WorkerPool:
    """Spawn, respawn, kill, and drain the gateway's worker processes."""

    def __init__(
        self,
        size: int,
        worker_faults: str | None = None,
        start_method: str | None = None,
        restart_backoff: float = 0.05,
        restart_backoff_cap: float = 2.0,
        restart_jitter: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if not 0.0 <= restart_jitter <= 1.0:
            raise ValueError("restart_jitter must be within [0, 1]")
        self.worker_faults = worker_faults
        self.restart_backoff = restart_backoff
        self.restart_backoff_cap = restart_backoff_cap
        self.restart_jitter = restart_jitter
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._quarantined = False
        self._ctx = multiprocessing.get_context(pick_start_method(start_method))
        self.handles = [WorkerHandle(slot) for slot in range(size)]

    @property
    def size(self) -> int:
        return len(self.handles)

    @property
    def quarantined(self) -> bool:
        return self._quarantined

    # -- lifecycle --------------------------------------------------------------

    def backoff_delay(self, consecutive_crashes: int) -> float:
        """Seconds to sleep before respawning after ``n`` consecutive crashes.

        The deterministic envelope is ``min(cap, backoff * 2**(n-1))``;
        the returned delay is that envelope scaled by a random factor in
        ``[1 - restart_jitter, 1]``.  Without the jitter, every slot of a
        shard whose workers were killed at once would sleep the *same*
        exponential series and re-fork in lockstep — a thundering herd of
        simultaneous forks on an already-struggling host.  The jitter
        spreads the respawns while keeping the exponential growth (the
        factor never drops the delay below half its envelope at the
        default ``restart_jitter=0.5``).
        """
        if consecutive_crashes < 1 or self.restart_backoff <= 0:
            return 0.0
        envelope = min(
            self.restart_backoff_cap,
            self.restart_backoff * 2 ** (consecutive_crashes - 1),
        )
        if self.restart_jitter <= 0.0:
            return envelope
        return envelope * (1.0 - self.restart_jitter * self._rng.random())

    def ensure(self, slot: int) -> WorkerHandle:
        """The slot's handle, respawning the process first if it is dead.

        A respawn after ``n`` consecutive crashes sleeps
        :meth:`backoff_delay` before forking — jittered exponential
        backoff against crash loops.  The very first spawn is free.  A
        quarantined pool (see :meth:`quarantine`) never respawns: the
        call raises :class:`WorkerCrashed` immediately.
        """
        if self._quarantined:
            raise WorkerCrashed(
                f"worker {slot}: pool is quarantined (shard marked dead)"
            )
        handle = self.handles[slot]
        if handle.alive:
            return handle
        self._retire(handle)
        delay = self.backoff_delay(handle.consecutive_crashes)
        if delay > 0:
            _log.warning(
                "respawning crashed worker",
                extra=log_fields(
                    slot=slot,
                    consecutive_crashes=handle.consecutive_crashes,
                    backoff_seconds=delay,
                ),
            )
            self._sleep(delay)
        with _FORK_LOCK:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, self.worker_faults),
                daemon=True,
                name=f"repro-gateway-worker-{slot}",
            )
            process.start()
            child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.restarts += 1
        # A fresh process has a cold service cache regardless of history.
        handle.warm = set()
        return handle

    def note_crash(self, slot: int) -> None:
        """Record a mid-request death and tear the process down."""
        handle = self.handles[slot]
        handle.consecutive_crashes += 1
        _log.warning(
            "worker died mid-request",
            extra=log_fields(
                slot=slot, consecutive_crashes=handle.consecutive_crashes
            ),
        )
        self._retire(handle)

    def note_success(self, slot: int) -> None:
        self.handles[slot].consecutive_crashes = 0

    def kill(self, slot: int) -> bool:
        """SIGKILL a live worker (chaos injection) and wait for it to exit.
        True if one was killed.

        A killed process reads ``is_alive()`` until it has exited and been
        reaped, and ``ensure`` hands a request to a process that reads
        alive.  So ``kill`` returns only once the process is gone (or
        ``_JOIN_SECONDS`` have passed), and the next ``ensure`` respawns.
        A runner thread may join the same process in ``_retire`` at the
        same time.  That is safe: both wait for the process's sentinel,
        one ``waitpid`` reaps it, and the other fails with ECHILD, which
        ``multiprocessing`` reads as "not yet reaped" and returns from.
        """
        handle = self.handles[slot]
        process = handle.process
        if process is None or not process.is_alive():
            return False
        process.kill()
        process.join(timeout=_JOIN_SECONDS)
        return True

    def quarantine(self) -> int:
        """Kill every live worker and refuse all future respawns.

        This is whole-shard death (power loss, OOM-killed host): requests
        already dispatched die with their workers, and every later
        ``ensure`` raises :class:`WorkerCrashed` without forking, so the
        queue drains into prompt ``worker_crashed`` resolutions a cluster
        front end can fail over.  Returns the number of processes killed.
        Irreversible for the life of the pool.
        """
        self._quarantined = True
        killed = 0
        for handle in self.handles:
            if self.kill(handle.slot):
                killed += 1
        _log.warning(
            "pool quarantined",
            extra=log_fields(killed=killed, size=self.size),
        )
        return killed

    def _retire(self, handle: WorkerHandle) -> None:
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=_JOIN_SECONDS)
            handle.process = None
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None

    def shutdown(self) -> None:
        """Politely stop every live worker, then force the stragglers."""
        for handle in self.handles:
            if handle.alive and handle.conn is not None:
                try:
                    handle.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for handle in self.handles:
            if handle.process is not None:
                handle.process.join(timeout=_JOIN_SECONDS)
            self._retire(handle)

    # -- diagnostics -------------------------------------------------------------

    def stats(self) -> list[WorkerStats]:
        return [
            WorkerStats(
                worker_id=h.slot,
                alive=h.alive,
                restarts=max(0, h.restarts),
                served=h.served,
                warm_fingerprints=len(h.warm),
            )
            for h in self.handles
        ]
