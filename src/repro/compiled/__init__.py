"""Compiled kernel tier: loop-nest descriptors + JIT/fused execution.

The suite's second execution tier.  Each (kernel, format, method) cell is
described once by a declarative :class:`~repro.compiled.descriptors.LoopNest`;
the descriptor is lowered either by Numba ``@njit`` kernels (when the
``compiled`` optional extra is installed) or by a fused single-dispatch
NumPy pipeline that is bit-compatible with the NumPy tier for the
deterministic methods.  :func:`resolve_tier` is the single gate every
kernel call site goes through; :func:`available` probes Numba without
ever raising.
"""

from repro.compiled.descriptors import (
    DESCRIPTORS,
    LoopNest,
    describe_all,
    descriptor_for,
)
from repro.compiled.execute import (
    run_elementwise,
    run_fiber_reduce,
    run_mttkrp,
)
from repro.compiled.tier import (
    TIERS,
    available,
    compile_stats,
    default_tier,
    resolve_tier,
)

__all__ = [
    "DESCRIPTORS",
    "LoopNest",
    "TIERS",
    "available",
    "compile_stats",
    "default_tier",
    "describe_all",
    "descriptor_for",
    "resolve_tier",
    "run_elementwise",
    "run_fiber_reduce",
    "run_mttkrp",
]
