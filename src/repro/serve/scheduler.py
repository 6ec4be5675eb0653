"""Work-stealing case pool with single-flight deduplication.

The statically sharded executor (``index % shards``) balances *counts*,
not *costs*: one straggling case idles its whole shard while the others
finish.  This scheduler replaces static assignment inside a process —
each worker thread owns a deque of cases, drains its own from the head
(FIFO), and when it runs dry steals from a victim's **tail** (the
classic Chase-Lev discipline: owners and thieves touch opposite ends, so
a steal grabs the work the owner would reach last).  Worker ``wid``
scans victims in the fixed ring order ``wid+1, wid+2, ...`` and robs
the first non-empty deque.

Results stay bit-identical to a serial run regardless of which worker
executes a case: case seeds derive from fingerprints, never from
execution order (see ``tests/test_property_based.py``).

The second job is **single-flight**: the serve daemon submits many
concurrent, often overlapping, sweep requests.  Every in-flight case is
registered in a live map keyed by fingerprint; submitting a fingerprint
that is already in flight *coalesces* onto the existing execution
instead of queueing a duplicate, so a case is executed at most once no
matter how many concurrent requests want it.  ``submit`` classifies
hit/coalesced/queued under the scheduler lock, closing the race where a
case completes between a caller's cache probe and its submission.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.registry import get_metrics


class SchedulerError(RuntimeError):
    """Misuse of the stealing pool (not a case failure)."""


@dataclass
class _LiveCase:
    """One in-flight case: queued, possibly stolen, not yet completed."""

    case: object
    fingerprint: str
    done: threading.Event = field(default_factory=threading.Event)
    completed: bool = False
    abandoned: bool = False
    error: "BaseException | None" = None


class SweepTicket:
    """One ``submit`` call's view of its cases' progress.

    ``hits`` were already completed at submit time (pre-satisfied via the
    caller's cache probe), ``coalesced`` attached to executions some
    earlier ticket queued, ``queued`` are executions this ticket owns.
    ``wait`` blocks until every non-hit case reaches a terminal state.
    """

    def __init__(self):
        self.fingerprints: "list[str]" = []
        self.hits: "list[str]" = []
        self.coalesced: "list[str]" = []
        self.queued: "list[str]" = []
        self._entries: "list[_LiveCase]" = []

    @property
    def total(self) -> int:
        return len(self.fingerprints)

    def done_count(self) -> int:
        """Cases in a terminal state (hits count as done)."""
        return len(self.hits) + sum(1 for e in self._entries if e.done.is_set())

    def pending_count(self) -> int:
        return self.total - self.done_count()

    def completed(self) -> "set[str]":
        """Fingerprints that finished successfully (hits included)."""
        done = set(self.hits)
        done.update(
            e.fingerprint
            for e in self._entries
            if e.done.is_set() and e.completed
        )
        return done

    def abandoned(self) -> "set[str]":
        """Fingerprints dropped un-run by a scheduler shutdown."""
        return {e.fingerprint for e in self._entries if e.abandoned}

    def errors(self) -> "list[BaseException]":
        """Exceptions ``run_case`` raised (it normally never raises)."""
        return [e.error for e in self._entries if e.error is not None]

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until every case is terminal; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for entry in self._entries:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not entry.done.wait(remaining):
                return False
        return True


class StealScheduler:
    """Per-worker deques + tail stealing + a single-flight live map.

    ``run_case`` is any callable ``case -> bool`` (truthy = the case
    completed with a record); the pool imposes no executor coupling, so
    the sweep executor wraps :class:`~repro.bench.executor.CaseRunner`
    and the serve daemon wraps the same runner plus its cache update.
    ``run_case`` runs on pool threads — it must be thread-safe.
    """

    def __init__(self, run_case, workers: int = 2):
        if workers < 1:
            raise SchedulerError(f"workers must be >= 1 (got {workers})")
        self._run_case = run_case
        self.workers = int(workers)
        self._cond = threading.Condition()
        self._deques = [deque() for _ in range(self.workers)]
        #: fingerprint -> in-flight entry (queued or executing).
        self._live: "dict[str, _LiveCase]" = {}
        self._next_home = 0
        self._threads: "list[threading.Thread]" = []
        self._stop = False
        self._started = False
        #: Cases migrated off a victim's tail.
        self.steals = 0
        #: run_case invocations (each fingerprint at most once per flight).
        self.executed = 0
        #: Submitted fingerprints that attached to an in-flight execution.
        self.coalesced = 0
        #: run_case completions per worker (stolen work counts for the
        #: thief) — the straggler tests assert on this shape.
        self.completions = [0] * self.workers

    # ------------------------------------------------------------------ #
    def start(self) -> "StealScheduler":
        if self._started:
            raise SchedulerError("scheduler already started")
        self._started = True
        for wid in range(self.workers):
            t = threading.Thread(
                target=self._worker,
                args=(wid,),
                name=f"steal-worker-{wid}",
                daemon=True,
            )
            self._threads.append(t)
            t.start()
        return self

    def submit(self, cases, completed=None) -> SweepTicket:
        """Classify and enqueue ``cases``; returns the request's ticket.

        ``completed`` pre-satisfies cache hits: a callable
        ``fingerprint -> truthy`` or a fingerprint container, probed
        **under the scheduler lock** so a case that completed after the
        caller's earlier probe still classifies as a hit rather than
        re-queueing.  Homes round-robin across workers; duplicates within
        one submission coalesce like cross-request duplicates.
        """
        ticket = SweepTicket()
        with self._cond:
            if self._stop:
                raise SchedulerError("scheduler is shut down")
            for case in cases:
                fp = case.fingerprint
                ticket.fingerprints.append(fp)
                if completed is not None and (
                    completed(fp) if callable(completed) else fp in completed
                ):
                    ticket.hits.append(fp)
                    continue
                entry = self._live.get(fp)
                if entry is not None:
                    ticket.coalesced.append(fp)
                    ticket._entries.append(entry)
                    self.coalesced += 1
                    continue
                entry = _LiveCase(case=case, fingerprint=fp)
                self._live[fp] = entry
                self._deques[self._next_home % self.workers].append(entry)
                self._next_home += 1
                ticket.queued.append(fp)
                ticket._entries.append(entry)
            self._cond.notify_all()
        return ticket

    def inflight(self) -> int:
        with self._cond:
            return len(self._live)

    def queued(self) -> int:
        """Cases sitting in worker deques, not yet picked up."""
        with self._cond:
            return sum(len(dq) for dq in self._deques)

    def shutdown(self) -> None:
        """Stop the pool; queued-but-unstarted cases are abandoned.

        Executing cases finish (and their waiters wake); abandoned
        entries wake their waiters with ``completed=False`` and show up
        in :meth:`SweepTicket.abandoned`.  Idempotent.
        """
        with self._cond:
            self._stop = True
            for dq in self._deques:
                while dq:
                    entry = dq.pop()
                    entry.abandoned = True
                    self._live.pop(entry.fingerprint, None)
                    entry.done.set()
            self._cond.notify_all()
        for t in self._threads:
            t.join()
        self._threads = []

    # ------------------------------------------------------------------ #
    def _take(self, wid: int) -> "_LiveCase | None":
        """Next entry for worker ``wid``: own head, else the tail of the
        first non-empty victim in ring order ``wid+1, wid+2, ...``.

        Caller holds the lock.
        """
        own = self._deques[wid]
        if own:
            return own.popleft()
        for step in range(1, self.workers):
            victim = self._deques[(wid + step) % self.workers]
            if victim:
                self.steals += 1
                get_metrics().inc("serve.steals", worker=wid)
                return victim.pop()
        return None

    def _worker(self, wid: int) -> None:
        while True:
            with self._cond:
                entry = self._take(wid)
                while entry is None:
                    if self._stop:
                        return
                    self._cond.wait()
                    entry = self._take(wid)
            ok, error = False, None
            try:
                ok = bool(self._run_case(entry.case))
            except BaseException as exc:  # noqa: BLE001 - surfaced on ticket
                error = exc
            with self._cond:
                entry.completed = ok
                entry.error = error
                # Terminal state is published (and the live map cleared)
                # only *after* run_case returned — the executor/daemon
                # closures journal and cache the record first, so a
                # fingerprint leaving the live map is always findable in
                # the cache: no hit/coalesce/queue gap.
                self._live.pop(entry.fingerprint, None)
                self.executed += 1
                self.completions[wid] += 1
                entry.done.set()
                self._cond.notify_all()
