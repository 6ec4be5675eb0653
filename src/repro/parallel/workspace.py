"""Thread-local dense accumulator arenas for privatizing scatter-add.

The seed COO-Mttkrp-OMP kept a private output copy *per chunk*: every chunk of
a dynamic schedule allocated a fresh dense ``(I_mode, R)`` buffer and the
final reduction summed one buffer per chunk — O(nchunks) full-size
allocations plus an O(nchunks) serial dense reduction, traffic the paper's
OpenMP kernels do not have.  Real privatizing kernels (and the dense
workspaces of Kjolstad et al., arXiv 1802.10574) keep one copy *per worker*:
each worker owns one arena that it reuses across every chunk it executes,
and the final reduction is a fixed ``nthreads``-way tree.

:class:`WorkspacePool` implements that shape for the thread-pool backends:
``acquire()`` hands the calling worker its arena (allocating it zeroed on
first touch), ``reduce_into(out)`` folds the arenas into the shared output
with a pairwise tree, and ``reset()`` re-zeroes the arenas so a pool cached
on the backend can be checked out again without reallocating.

Worker identity
---------------
Arenas are keyed by the backend *worker slot*
(:func:`repro.parallel.slots.current_slot`) when the caller runs inside a
backend-executed chunk, falling back to ``threading.get_ident()`` for
direct callers.  Slot keying is what keeps a pool cached across backend
lifecycles correct: OS thread idents churn when an executor is recycled
(``OpenMPBackend.shutdown()`` + reuse) or when workers die mid-run, and an
ident-keyed pool silently accumulated one stale arena per departed worker
until ``acquire()`` blew the ``max_arenas`` invariant.  Slots are bounded
by construction; leftover ident-keyed arenas of *dead* threads are adopted
(data preserved — the reduction is additive) instead of leaked.

The hard invariant the per-chunk scheme violated: a pool never holds more
than ``max_arenas`` (= the backend's thread count) buffers, regardless of
how many chunks the schedule produces or how many OS threads come and go.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.tracer import current_tracer
from repro.parallel.slots import current_slot


class WorkspacePool:
    """Per-worker reusable dense accumulators for one privatizing loop.

    Parameters
    ----------
    shape, dtype:
        Geometry of the shared output each arena copies.
    max_arenas:
        Upper bound on distinct arenas — the executing backend's thread
        count.  ``acquire`` raises if a loop somehow touches more live
        workers, because that is exactly the unbounded-memory bug this
        class exists to prevent.

    Lifecycle discipline (enforced): ``acquire()``\\* → ``reduce_into()``
    once → ``reset()``.  A second ``reduce_into`` before ``reset`` raises
    instead of silently double-counting the arenas the first reduction
    consumed.
    """

    __slots__ = ("shape", "dtype", "max_arenas", "_arenas", "_lock", "_consumed")

    def __init__(self, shape, dtype, max_arenas: int = 1):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.max_arenas = max(1, int(max_arenas))
        self._arenas: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        self._consumed = False

    @property
    def narenas(self) -> int:
        """Distinct arenas allocated so far (<= ``max_arenas``)."""
        return len(self._arenas)

    def _key(self) -> tuple:
        """The calling worker's arena key: backend slot if inside a chunk,
        OS thread ident otherwise."""
        slot = current_slot()
        if slot is not None:
            return ("slot", int(slot))
        return ("tid", threading.get_ident())

    def _adopt_departed(self) -> "np.ndarray | None":
        """Reclaim the arena of a dead thread (lock held by caller).

        Only ident-keyed arenas can go stale — slot keys are bounded by the
        backend.  The adopted buffer keeps its contents: the pending
        reduction is additive, so the departed worker's partial sums still
        reach the output through its successor.
        """
        alive = {t.ident for t in threading.enumerate()}
        for key in list(self._arenas):
            if key[0] == "tid" and key[1] not in alive:
                return self._arenas.pop(key)
        return None

    def acquire(self) -> np.ndarray:
        """The calling worker's arena, allocated zeroed on first touch.

        Subsequent chunks executed by the same worker slot get the *same*
        buffer back, so their updates accumulate without any per-chunk
        allocation.
        """
        key = self._key()
        tracer = current_tracer()
        allocated = False
        with self._lock:
            if self._consumed:
                raise RuntimeError(
                    "WorkspacePool.acquire() after reduce_into(); call "
                    "reset() before reusing the pool"
                )
            buf = self._arenas.get(key)
            if buf is None:
                if len(self._arenas) >= self.max_arenas:
                    buf = self._adopt_departed()
                if buf is None:
                    if len(self._arenas) >= self.max_arenas:
                        raise RuntimeError(
                            f"WorkspacePool invariant violated: "
                            f"{len(self._arenas) + 1} arenas for "
                            f"max_arenas={self.max_arenas}"
                        )
                    buf = np.zeros(self.shape, dtype=self.dtype)
                    allocated = True
                self._arenas[key] = buf
        if tracer.enabled:
            tracer.count("ws.acquire")
            if allocated:
                tracer.count("ws.arena_alloc")
            tracer.gauge("ws.arena_bytes", buf.nbytes)
        return buf

    def reduce_into(self, out: np.ndarray) -> None:
        """Fold every arena into ``out`` with a pairwise reduction tree.

        The fan-in is bounded by ``max_arenas`` (not the chunk count), so
        the reduction cost is fixed per loop.  Arenas are consumed by the
        tree; the pool refuses a second reduction (which would silently
        double-count) until :meth:`reset`.
        """
        with self._lock:
            if self._consumed:
                raise RuntimeError(
                    "WorkspacePool.reduce_into() called twice without "
                    "reset(); the first reduction consumed the arenas"
                )
            self._consumed = True
            bufs = list(self._arenas.values())
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("ws.reduce")
            tracer.count("ws.reduce_arenas", len(bufs))
        while len(bufs) > 1:
            nxt = []
            for i in range(0, len(bufs) - 1, 2):
                bufs[i] += bufs[i + 1]
                nxt.append(bufs[i])
            if len(bufs) % 2:
                nxt.append(bufs[-1])
            bufs = nxt
        if bufs:
            out += bufs[0]

    def reset(self) -> None:
        """Zero every arena so the pool can back another loop."""
        with self._lock:
            self._consumed = False
            bufs = list(self._arenas.values())
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("ws.reset")
        for buf in bufs:
            buf[...] = 0
