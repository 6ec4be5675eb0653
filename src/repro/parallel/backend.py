"""Execution backend abstraction for the CPU kernels.

The paper's CPU kernels are OpenMP ``parallel for`` loops over non-zeros,
fibers, or blocks, with static/dynamic scheduling.  We reproduce that
structure: a :class:`Backend` provides ``parallel_for(total, body)`` where
``body(lo, hi)`` processes a contiguous range.  Kernels vectorize each
range with NumPy, so a multi-threaded backend gets genuine parallelism
(NumPy releases the GIL inside ufuncs) while the sequential backend runs
the identical decomposition in one thread — results are bit-identical by
construction for race-free kernels.
"""

from __future__ import annotations

import abc
import contextlib
import threading
from typing import Callable

import numpy as np

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer
from repro.parallel.workspace import WorkspacePool

#: A loop body processing the half-open index range [lo, hi).
RangeBody = Callable[[int, int], None]

_REGISTRY: dict[str, "Backend"] = {}

#: Guards the lazy creation of per-backend workspace caches.
_WS_INIT_LOCK = threading.Lock()


class Backend(abc.ABC):
    """Strategy object executing chunked parallel-for loops."""

    #: Logical worker count (1 for sequential).
    nthreads: int = 1

    #: Whether the compiled execution tier may run under this backend.
    #: Correctness backends (race-check, chaos) flip this off: their
    #: checks replay the *chunked* decomposition, which the compiled
    #: tier's fused/JIT loops do not go through.
    supports_compiled: bool = True

    #: Pool class used by :meth:`workspace`; an extension point so the
    #: correctness harness can substitute instrumented pools.
    workspace_cls = WorkspacePool

    @property
    def is_threaded(self) -> bool:
        """Whether kernels should use their multi-worker update strategy
        (per-thread arenas etc.) under this backend.

        The race-check backend overrides this to ``True`` even though it
        executes chunks sequentially, so it replays — and checks — the
        decomposition the threaded kernels actually run.
        """
        return self.nthreads > 1

    @contextlib.contextmanager
    def check_output(self, out, access="atomic"):
        """Declare ``out`` as the shared output of the enclosed parallel
        region, written under the given access contract.

        ``access`` is an output-access contract kind (see
        :mod:`repro.kernels.contract`): ``"atomic"`` (overlapping writes
        mediated by a commutative reduction), ``"owner"`` (chunks own
        disjoint output ranges), ``"workspace"`` (chunks write only
        thread-private arenas, never ``out``), or ``"disjoint"`` (chunks
        write disjoint elements by construction).

        A no-op for executing backends — zero overhead on the hot path.
        ``RaceCheckBackend`` overrides it to record per-chunk write
        footprints on ``out`` and flag contract violations.
        """
        yield

    @abc.abstractmethod
    def parallel_for(
        self,
        total: int,
        body: RangeBody,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> None:
        """Execute ``body`` over ``[0, total)`` split into chunks."""

    def map_ranges(self, ranges, body: RangeBody) -> None:
        """Execute ``body`` over explicit (lo, hi) ranges (fiber partitions)."""
        tracer = current_tracer()
        if tracer.enabled:
            ranges = list(ranges)
            with tracer.span(
                "map_ranges", cat=CAT_REGION, backend=self.name,
                schedule="explicit", nchunks=len(ranges),
                nthreads=self.nthreads,
            ):
                for lo, hi in ranges:
                    with tracer.span(
                        "chunk", cat=CAT_CHUNK, backend=self.name,
                        schedule="explicit", lo=lo, hi=hi,
                    ):
                        body(lo, hi)
            return
        for lo, hi in ranges:
            body(lo, hi)

    @contextlib.contextmanager
    def workspace(self, shape, dtype):
        """Check out a zeroed :class:`WorkspacePool` sized to this backend.

        Pools are cached per ``(shape, dtype)`` on the backend, so repeated
        kernel calls (e.g. the Mttkrps of a CP-ALS sweep) reuse the same
        thread-local arenas instead of reallocating them; the pool is
        re-zeroed when checked back in.  Concurrent checkouts of the same
        geometry get distinct pools, so nested/overlapping kernel calls
        never alias arenas.
        """
        try:
            cache = self._ws_cache
            lock = self._ws_lock
        except AttributeError:
            # First checkout may race from two threads; guard the lazy
            # init so both see one cache and one lock.
            with _WS_INIT_LOCK:
                if not hasattr(self, "_ws_cache"):
                    self._ws_cache = {}
                    self._ws_lock = threading.Lock()
            cache = self._ws_cache
            lock = self._ws_lock
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        with lock:
            free = cache.setdefault(key, [])
            pool = free.pop() if free else self.workspace_cls(shape, dtype, self.nthreads)
        try:
            yield pool
        finally:
            pool.reset()
            with lock:
                cache[key].append(pool)

    @property
    def name(self) -> str:
        return type(self).__name__


def register_backend(key: str, backend: "Backend") -> None:
    """Register a backend instance under a lookup key."""
    _REGISTRY[key.lower()] = backend


def get_backend(spec: "Backend | str | None" = None) -> "Backend":
    """Resolve a backend from an instance, registry key, or default.

    ``None`` resolves to the sequential backend; ``"openmp"`` and
    ``"seq"``/``"sequential"`` are always registered.
    """
    if spec is None:
        return _REGISTRY["sequential"]
    if isinstance(spec, Backend):
        return spec
    key = str(spec).lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown backend {spec!r}; registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]
