"""Race-check backend: a write-footprint sanitizer for parallel kernels.

The suite's three scatter-update strategies (per-thread arenas, owner-
computes, sort-reduce) are *race-free by construction* — but nothing in the
executing backends can verify the construction.  :class:`RaceCheckBackend`
does: it replays the exact chunk decomposition the OpenMP backend would run
(same planner, same schedules, same chunk floors), executes the chunks one
at a time, and diffs every declared output array around each chunk to
recover the chunk's **write footprint**.  Footprints are then checked
against the kernel's declared output-access contract
(:mod:`repro.kernels.contract`):

``owner`` / ``disjoint``
    No two chunks may write the same output element.  Any write-write
    overlap between different chunks is a race the declared decomposition
    promised away — :class:`RaceViolation`.
``workspace``
    Chunks must not touch the shared output at all: every write belongs in
    a thread-private :class:`~repro.parallel.workspace.WorkspacePool`
    arena, and the output changes only in the post-loop reduction.  Any
    chunk-time write to the output is a violation.
``atomic``
    Overlapping writes are permitted — the contract declares them mediated
    by a commutative reduction (``np.add.at`` standing in for
    ``omp atomic``).  The checker records overlap statistics but does not
    flag.

Because chunks execute sequentially on one thread, the checker is
deterministic: a decomposition either is disjoint or it is not, no
scheduling luck involved.  The diff-based footprint has one blind spot —
a chunk that writes a value *bit-identical* to what was already stored is
invisible — which cannot create false positives, only (measure-zero, for
random data) false negatives.

Validated disciplines follow the dense-workspace formulation of Kjolstad
et al. (arXiv 1802.10574) and the per-mode parallel decompositions of
PASTA (arXiv 1902.03317).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.types import Schedule
from repro.obs.tracer import CAT_CHUNK, CAT_REGION, current_tracer
from repro.parallel.backend import Backend, RangeBody
from repro.parallel.partition import plan_ranges
from repro.parallel.slots import bound_slot

#: Access kinds the checker understands (mirrors
#: :class:`repro.kernels.contract.Access`; strings to avoid an import
#: cycle with the kernels package).
ACCESS_KINDS = ("atomic", "owner", "workspace", "disjoint")


class RaceViolation(RuntimeError):
    """A chunk decomposition broke its declared output-access contract."""


def _coerce_access(access) -> str:
    kind = str(getattr(access, "value", access)).lower()
    if kind not in ACCESS_KINDS:
        raise ValueError(
            f"unknown output-access contract {access!r}; "
            f"expected one of {ACCESS_KINDS}"
        )
    return kind


def _coords(flat_indices, shape) -> list[tuple[int, ...]]:
    """Human-readable witness coordinates for violation messages."""
    return [
        tuple(int(c) for c in np.unravel_index(int(i), shape))
        for i in flat_indices[:4]
    ]


@dataclass
class RegionReport:
    """What one parallel region did to one declared output."""

    access: str
    shape: tuple
    nchunks: int = 0
    #: Total elements written (counted once per chunk that wrote them).
    writes: int = 0
    #: Elements written by more than one chunk.
    overlaps: int = 0
    #: ``(earlier_chunk, later_chunk, flat_indices)`` overlap witnesses.
    conflicts: list = field(default_factory=list)


class _Watch:
    """One declared output being footprint-tracked."""

    __slots__ = ("array", "access", "report", "owner_of")

    def __init__(self, array: np.ndarray, access: str):
        self.array = array
        self.access = access
        self.report = RegionReport(access=access, shape=array.shape)
        # First-writer map over the flattened output: -1 = untouched.
        self.owner_of = np.full(array.size, -1, dtype=np.int64)

    def record(self, chunk_index: int, written: np.ndarray) -> None:
        if written.size == 0:
            return
        rep = self.report
        rep.writes += int(written.size)
        if self.access == "workspace":
            # Any chunk-time write to the shared output breaks
            # privatization; owner_of doubles as the witness store.
            rep.conflicts.append((-1, chunk_index, written[:8]))
            rep.overlaps += int(written.size)
            return
        prev = self.owner_of[written]
        clash = prev >= 0
        if clash.any():
            rep.overlaps += int(clash.sum())
            if self.access in ("owner", "disjoint"):
                first = int(prev[clash][0])
                rep.conflicts.append(
                    (first, chunk_index, written[clash][:8])
                )
        self.owner_of[written] = chunk_index

    def violation_message(self) -> "str | None":
        rep = self.report
        if not rep.conflicts:
            return None
        if self.access == "workspace":
            _, chunk, idx = rep.conflicts[0]
            coords = _coords(idx, rep.shape)
            return (
                f"workspace contract violated: chunk {chunk} wrote the "
                f"shared output {rep.shape} directly at {coords} "
                f"({rep.overlaps} element(s) total); arena-backed loops must "
                "write only their WorkspacePool arena"
            )
        a, b, idx = rep.conflicts[0]
        coords = _coords(idx, rep.shape)
        return (
            f"{self.access} contract violated: chunks {a} and {b} both "
            f"wrote output {rep.shape} elements {coords} "
            f"({rep.overlaps} overlapping write(s) across "
            f"{len(rep.conflicts)} chunk pair(s)); the declared "
            "decomposition is not write-disjoint"
        )


class RaceCheckBackend(Backend):
    """Executes kernels under write-footprint checking.

    Drop-in for any ``backend=`` kernel argument: results are exact (the
    real chunk bodies run, in chunk order, on the calling thread), and
    ``is_threaded`` reports ``True`` so kernels take the same multi-worker
    code paths — per-thread arenas, owner partitions — they would take
    under :class:`~repro.parallel.openmp.OpenMPBackend` with ``nthreads``
    workers.

    Parameters
    ----------
    nthreads:
        Width of the replayed decomposition (how many chunks a static
        schedule produces, how many owners a partition gets).
    default_chunk:
        Dynamic/guided chunk floor, as on the OpenMP backend.
    strict:
        Raise :class:`RaceViolation` at the end of an offending region
        (default).  ``strict=False`` only records, for harness surveys.

    After every parallel region executed inside a ``check_output`` scope,
    a :class:`RegionReport` is appended to :attr:`history`.
    """

    #: The compiled tier bypasses chunked decompositions, so it would
    #: erase exactly the footprints this backend exists to check; tier
    #: resolution transparently falls back to the NumPy tier here.
    supports_compiled = False

    def __init__(
        self,
        nthreads: int = 4,
        default_chunk: int = 256,
        strict: bool = True,
    ):
        self.nthreads = max(1, int(nthreads))
        self.default_chunk = int(default_chunk)
        self.strict = bool(strict)
        self._watches: list[tuple[np.ndarray, str]] = []
        self.history: list[RegionReport] = []

    @property
    def is_threaded(self) -> bool:
        return True

    def clear_history(self) -> None:
        self.history.clear()

    @contextlib.contextmanager
    def check_output(self, out, access="atomic"):
        decl = (np.asarray(out), _coerce_access(access))
        self._watches.append(decl)
        try:
            yield
        finally:
            self._watches.pop()

    def plan(
        self,
        total: int,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> list[tuple[int, int]]:
        """Identical decomposition to ``OpenMPBackend.plan``."""
        return plan_ranges(total, schedule, chunk, self.nthreads, self.default_chunk)

    def parallel_for(
        self,
        total: int,
        body: RangeBody,
        schedule: "Schedule | str" = Schedule.STATIC,
        chunk: int | None = None,
    ) -> None:
        self._run(self.plan(total, schedule, chunk), body)

    def map_ranges(self, ranges, body: RangeBody) -> None:
        self._run(list(ranges), body)

    def _run(self, ranges: list[tuple[int, int]], body: RangeBody) -> None:
        # The installed tracer is inherited (it is process-global), so
        # harness replays are as inspectable as real executions; chunk
        # spans carry the replayed chunk index.
        tracer = current_tracer()
        if tracer.enabled:
            inner = body

            def body(lo: int, hi: int, _inner=inner) -> None:
                with tracer.span(
                    "chunk", cat=CAT_CHUNK, backend="racecheck",
                    lo=lo, hi=hi,
                ):
                    _inner(lo, hi)

            region = tracer.span(
                "racecheck", cat=CAT_REGION, backend="racecheck",
                nchunks=len(ranges), nthreads=self.nthreads,
                checked=bool(self._watches),
            )
        else:
            region = contextlib.nullcontext()
        with region:
            self._run_checked(ranges, body)

    def _run_checked(self, ranges: list[tuple[int, int]], body: RangeBody) -> None:
        if not self._watches:
            # Nothing declared: plain sequential execution (still under a
            # worker slot so arena keying matches the executing backends).
            for lo, hi in ranges:
                with bound_slot(0):
                    body(lo, hi)
            return
        # Footprint state is per parallel *region*: a check_output scope
        # may legally enclose several loops over the same output.
        watches = [_Watch(arr, access) for arr, access in self._watches]
        for watch in watches:
            watch.report.nchunks = len(ranges)
        for ci, (lo, hi) in enumerate(ranges):
            before = [w.array.copy() for w in watches]
            with bound_slot(0):
                body(lo, hi)
            for watch, snap in zip(watches, before):
                changed = np.flatnonzero(
                    (watch.array != snap).ravel()
                )
                watch.record(ci, changed)
        for watch in watches:
            self.history.append(watch.report)
            msg = watch.violation_message()
            if msg is not None and self.strict:
                raise RaceViolation(msg)
