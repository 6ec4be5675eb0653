"""Execution-tier selection and compile/plan-time accounting.

Every kernel call site resolves an execution tier:

* ``"numpy"``    — the chunked NumPy tier, and the default;
* ``"compiled"`` — the descriptor-lowered tier: Numba ``@njit`` kernels
  when Numba is importable, else the fused single-dispatch NumPy fallback
  (bit-compatible for the deterministic methods).

An unspecified (``tier=None``) call site runs the NumPy tier.  An
explicit ``tier="compiled"`` runs the compiled tier unless

1. the backend replays or perturbs chunk decompositions (race-check,
   chaos) and so advertises ``supports_compiled = False`` — its
   correctness checks need the chunked loops; or
2. the cell has no registered loop-nest descriptor;

in either case the NumPy tier runs instead.

Numba is an *optional* import: :func:`available` probes it without ever
raising, so the suite imports cleanly on machines without the
``compiled`` extra installed.
"""

from __future__ import annotations

import threading

#: Valid tier spellings accepted by kernel call sites.
TIERS = ("numpy", "compiled")

_probe_lock = threading.Lock()
_numba_available: "bool | None" = None

_stats_lock = threading.Lock()
_stats = {
    "jit_compiles": 0,
    "jit_compile_seconds": 0.0,
    "plan_builds": 0,
    "plan_build_seconds": 0.0,
    "calls": 0,
    "fallback_calls": 0,
}


def available() -> bool:
    """Whether the Numba JIT backend can be imported (probed once).

    Never raises: a broken or missing numba install degrades to the
    fused NumPy fallback, not to an ImportError at import time.
    """
    global _numba_available
    if _numba_available is None:
        with _probe_lock:
            if _numba_available is None:
                try:
                    import numba  # noqa: F401

                    _numba_available = True
                except Exception:
                    _numba_available = False
    return _numba_available


def default_tier() -> str:
    """The tier an unspecified (``tier=None``) call site resolves to."""
    return "numpy"


def resolve_tier(
    tier: "str | None",
    *,
    backend=None,
    kernel: str = "",
    fmt: str = "",
    method: str = "",
) -> str:
    """Resolve a call site's tier request to ``"numpy"`` or ``"compiled"``.

    The suite cell (``kernel``, ``fmt``, ``method``) selects the loop-nest
    descriptor; the executing backend contributes its compiled-tier
    capability flag.
    """
    if tier is None:
        tier = default_tier()
    if tier not in TIERS:
        raise ValueError(
            f"unknown execution tier {tier!r}; expected one of {TIERS}"
        )
    if tier == "numpy":
        return "numpy"
    if backend is not None and not getattr(backend, "supports_compiled", True):
        return "numpy"
    from repro.compiled.descriptors import descriptor_for

    if descriptor_for(kernel, fmt, method) is None:
        return "numpy"
    return "compiled"


# ------------------------------------------------------------------ #
# Compile/plan accounting
# ------------------------------------------------------------------ #
def _metrics():
    from repro.obs.registry import get_metrics

    return get_metrics()


def record_jit_compile(seconds: float, kernel: str = "") -> None:
    """Account one JIT compilation (measured around a first call)."""
    with _stats_lock:
        _stats["jit_compiles"] += 1
        _stats["jit_compile_seconds"] += float(seconds)
    _metrics().inc("compiled.jit_compiles", kernel=kernel)
    _metrics().inc("compiled.jit_compile_seconds", float(seconds), kernel=kernel)


def record_plan_build(seconds: float, what: str = "") -> None:
    """Account one fallback plan construction (the fallback's compile)."""
    with _stats_lock:
        _stats["plan_builds"] += 1
        _stats["plan_build_seconds"] += float(seconds)
    _metrics().inc("compiled.plan_builds", what=what)
    _metrics().inc("compiled.plan_build_seconds", float(seconds), what=what)


def record_call(kernel: str, fmt: str, method: str, flavor: str) -> None:
    """Account one compiled-tier kernel execution."""
    with _stats_lock:
        _stats["calls"] += 1
        if flavor.startswith("fused"):
            _stats["fallback_calls"] += 1
    _metrics().inc(
        "compiled.calls", kernel=kernel, fmt=fmt, method=method, flavor=flavor
    )


def compile_stats() -> dict:
    """Snapshot of the process-wide compile/plan accounting.

    ``compile_seconds`` aggregates JIT compilation and fallback plan
    construction — the one number the benchmark harness subtracts from
    its warmup to keep ``median_s`` steady-state.
    """
    with _stats_lock:
        snap = dict(_stats)
    snap["compile_seconds"] = (
        snap["jit_compile_seconds"] + snap["plan_build_seconds"]
    )
    return snap
