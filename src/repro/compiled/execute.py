"""Compiled-tier executor: descriptor -> (Numba | fused-NumPy) dispatch.

Kernel call sites that resolved ``tier="compiled"`` hand their prepared
entry streams here.  The executor picks the execution *flavor* per call:

* ``numba-*`` — the ``@njit`` lowering, used when Numba is importable,
  the tensor is third-order (Mttkrp), and every operand shares one JIT
  dtype (float32/float64).  Variants: ``numba-nnz+arena`` (nnz-parallel
  with per-thread slabs, arena-pooled), ``numba-owner``, ``numba-ew``.
* ``fused-*`` — the single-dispatch NumPy fallback
  (:mod:`repro.compiled.fallback`), bit-compatible with the NumPy tier
  for the deterministic methods: ``fused-csr``, ``fused-segments``,
  ``fused-reduceat``, ``fused-ufunc``.

Every execution is accounted through
:func:`repro.compiled.tier.record_call` with its flavor, so the obs
metrics registry shows exactly which lowering served which cell.
"""

from __future__ import annotations

import numpy as np

from repro.compiled import fallback as fb
from repro.compiled import numba_tier as nb
from repro.compiled.plans import owner_plan
from repro.compiled.tier import record_call


def _gathered(cols, mats):
    """The (index column, factor matrix) pairs actually gathered."""
    return [(c, u) for c, u in zip(cols, mats) if u is not None]


def _jit_mttkrp_ok(gathered, values, out) -> bool:
    """Whether the specialized third-order JIT loops apply: Numba present,
    exactly two gathered matrices, one shared JIT dtype end to end."""
    if not nb.jit_supported(out.dtype) or len(gathered) != 2:
        return False
    dt = out.dtype
    return values.dtype == dt and all(u.dtype == dt for _, u in gathered)


def run_mttkrp(
    x,
    rows: np.ndarray,
    cols,
    values: np.ndarray,
    mats,
    out: np.ndarray,
    *,
    fmt: str,
    method: str,
    backend,
    align: int = 1,
    tag=0,
) -> np.ndarray:
    """Execute one Mttkrp under the compiled tier.

    ``x`` is the tensor (plan-cache host), ``rows``/``cols``/``values``
    the prepared entry stream (canonical int64 columns, ``None`` at the
    product mode), ``tag`` the plan-cache discriminator (the mode).
    """
    gathered = _gathered(cols, mats)

    # The sort method is pinned to the fused reduceat lowering even under
    # Numba: its bit-compatibility contract is the NumPy sort tier's
    # pairwise reduceat schedule, which a linear JIT sum cannot replay.
    if method != "sort" and _jit_mttkrp_ok(gathered, values, out):
        (c1, u1), (c2, u2) = gathered
        if method == "atomic":
            nthr = nb.slab_threads(backend.nthreads)
            # The (T, I, R) slab stack is a pooled backend workspace —
            # zeroed reuse across calls.
            with backend.workspace((nthr,) + out.shape, out.dtype) as pool:
                slab = pool.acquire()
                nb.mttkrp3_nnz(rows, c1, c2, values, u1, u2, slab)
                out += slab.sum(axis=0)
            flavor = "numba-nnz+arena"
        else:  # "owner"
            part = owner_plan(
                x, rows, out.shape[0], backend.nthreads, align, tag
            )
            nb.mttkrp3_owner(
                part.order, part.part_ptr, rows, c1, c2, values, u1, u2, out
            )
            flavor = "numba-owner"
    else:
        fb.mttkrp(x, rows, cols, values, mats, out, method, tag)
        flavor = "fused-segments" if method == "sort" else "fused-csr"

    record_call("mttkrp", fmt, method, flavor)
    return out


def run_fiber_reduce(
    contrib: np.ndarray,
    fptr: np.ndarray,
    out: np.ndarray,
    *,
    kernel: str,
    fmt: str,
    backend,
) -> None:
    """Execute one Ttv/Ttm fiber-segment reduction under the compiled tier.

    Always the fused whole-array reduceat: it is already a single C
    dispatch, and its pairwise per-fiber schedule is the bit-compat
    contract with the chunked NumPy tier (see :mod:`~repro.compiled.numba_tier`).
    """
    fb.fiber_reduce(contrib, fptr, out)
    record_call(kernel, fmt, "fiber", "fused-reduceat")


def run_elementwise(
    op,
    ufunc,
    xv: np.ndarray,
    yv,
    out: np.ndarray,
    *,
    kernel: str,
    fmt: str,
    backend,
    scalar: bool,
) -> None:
    """Execute one Tew/Ts value loop under the compiled tier.

    ``op`` is the :class:`repro.types.OpKind` (or its string value) and
    ``ufunc`` its NumPy realization for the fallback flavor.
    """
    name = str(getattr(op, "value", op))
    jit_ok = (
        nb.jit_supported(out.dtype)
        and name in nb._EW_OPS
        and xv.dtype == out.dtype
        and (scalar or yv.dtype == out.dtype)
    )
    if jit_ok:
        nb.slab_threads(backend.nthreads)
        y = out.dtype.type(yv) if scalar else yv
        nb.elementwise(name, xv, y, out, scalar)
        flavor = "numba-ew"
    else:
        fb.elementwise(ufunc, xv, yv, out)
        flavor = "fused-ufunc"
    record_call(kernel, fmt, "elementwise", flavor)
