"""Wall-clock timing helpers for the benchmark harness.

The paper runs each kernel five times and reports the average; mode-oriented
kernels (Ttv, Ttm, Mttkrp) are further averaged across modes.  These helpers
implement that measurement protocol.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Timer:
    """Context-manager stopwatch accumulating elapsed seconds.

    The timer is not re-entrant: entering an already-running timer would
    silently overwrite its start mark and drop the first interval, so it
    raises ``RuntimeError`` instead.  :meth:`split` reads the running
    total without stopping the clock.

    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(100))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _t0: float = field(default=0.0, repr=False)
    _running: bool = field(default=False, repr=False)

    def __enter__(self) -> "Timer":
        if self._running:
            raise RuntimeError("Timer is not re-entrant: already running")
        self._running = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed += time.perf_counter() - self._t0
        self._running = False

    def split(self) -> float:
        """Elapsed seconds so far, including the in-flight interval."""
        if self._running:
            return self.elapsed + (time.perf_counter() - self._t0)
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated total (only while stopped)."""
        if self._running:
            raise RuntimeError("cannot reset a running Timer")
        self.elapsed = 0.0


@dataclass(frozen=True)
class TimingResult:
    """Statistics from repeated timing of a callable."""

    mean: float
    median: float
    best: float
    worst: float
    repeats: int
    result: Any

    @property
    def seconds(self) -> float:
        """The paper reports the average of five runs."""
        return self.mean


def time_call(
    fn: Callable[[], Any],
    repeats: int = 5,
    warmup: int = 1,
) -> TimingResult:
    """Time ``fn`` with the paper's protocol: warm-up runs then an average.

    Returns the last call's result alongside the statistics so that
    benchmark drivers can validate outputs without re-running.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    result = None
    for _ in range(warmup):
        result = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return TimingResult(
        mean=sum(times) / len(times),
        median=statistics.median(times),
        best=min(times),
        worst=max(times),
        repeats=repeats,
        result=result,
    )
