"""Numba ``@njit`` lowering of the loop-nest descriptors.

Imported lazily and guarded: when Numba is missing (the ``compiled``
optional extra is not installed) every entry point reports itself
unavailable and the executor stays on the fused NumPy fallback — never an
ImportError.

Lowering shape (prickle's SDDMM idiom from SNIPPETS.md: decompress to a
flat COO entry stream so nnz-parallel loops need no load balancing):

* **nnz-parallel atomic variant** — ``prange`` over non-zeros; each
  iteration accumulates into the slab of its executing thread
  (``numba.get_thread_id()``), the paper's ``omp atomic`` loop realized
  as bounded per-thread privatization.  The slab stack is checked out of
  the backend's :class:`~repro.parallel.workspace.WorkspacePool` cache:
  zeroed reusable buffers, no per-call allocation.
* **owner-computes variant** — ``prange`` over the owner ranges of a
  cached :func:`repro.parallel.ownership.owner_partition`; each owner
  writes its disjoint row slice directly, accumulating linearly in stable
  storage order — exactly ``np.add.at``'s floating-point schedule, so the
  result is bit-identical to the NumPy owner tier (and the sequential
  kernel).
* **elementwise variant** (Tew/Ts) — a flat ``prange`` with the fused
  scalar op; one rounding per element, bit-identical to the ufunc tier.

The ``sort`` method and the Ttv/Ttm fiber loops deliberately stay on the
fused ``np.add.reduceat`` fallback even when Numba is present: reduceat
reduces *pairwise*, and the bit-compatibility contract of those
deterministic paths pins the compiled tier to the NumPy tier's exact
schedule, which a linear JIT accumulation cannot reproduce.

All kernels are compiled ``fastmath=False`` (no reassociation, no FMA
contraction) so the compiled tier's rounding matches the NumPy tier;
dtype specialization is Numba's own per-signature dispatch, and compile
time is measured around first calls and reported through
:func:`repro.compiled.tier.record_jit_compile`.

Only third-order Mttkrp (two gathered factor matrices — every paper
benchmark tensor) gets a JIT loop; other orders fall back to the fused
NumPy pipeline, which handles arbitrary order.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compiled.tier import record_jit_compile

try:  # pragma: no cover - exercised only with the compiled extra
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - default in minimal installs
    numba = None
    njit = prange = None
    HAVE_NUMBA = False

#: Value dtypes the JIT kernels specialize over (others use the fallback).
JIT_DTYPES = (np.float32, np.float64)

_kernels: dict = {}


def _timed(disp, *args, kernel: str = ""):
    """Call a Numba dispatcher, accounting compile time on new signatures."""
    before = len(disp.signatures)
    t0 = time.perf_counter()
    out = disp(*args)
    dt = time.perf_counter() - t0
    if len(disp.signatures) > before:
        record_jit_compile(dt, kernel=kernel)
    return out


def jit_supported(dtype) -> bool:
    return HAVE_NUMBA and np.dtype(dtype).type in JIT_DTYPES


# ------------------------------------------------------------------ #
# Kernel factories (built once, cached; Numba specializes per dtype)
# ------------------------------------------------------------------ #
def _build(name: str, factory):
    k = _kernels.get(name)
    if k is None:
        k = factory()
        _kernels[name] = k
    return k


def _mttkrp3_nnz_factory():
    @njit(parallel=True, fastmath=False, nogil=True)
    def k(rows, c1, c2, vals, u1, u2, stack):
        n = rows.shape[0]
        r = u1.shape[1]
        for idx in prange(n):
            t = numba.get_thread_id()
            i = rows[idx]
            a = c1[idx]
            b = c2[idx]
            v = vals[idx]
            for j in range(r):
                stack[t, i, j] += v * u1[a, j] * u2[b, j]

    return k


def _mttkrp3_owner_factory():
    @njit(parallel=True, fastmath=False, nogil=True)
    def k(order, part_ptr, rows, c1, c2, vals, u1, u2, out):
        nparts = part_ptr.shape[0] - 1
        r = u1.shape[1]
        for p in prange(nparts):
            for jj in range(part_ptr[p], part_ptr[p + 1]):
                idx = order[jj]
                i = rows[idx]
                a = c1[idx]
                b = c2[idx]
                v = vals[idx]
                for j in range(r):
                    out[i, j] += v * u1[a, j] * u2[b, j]

    return k


_EW_OPS = ("add", "sub", "mul", "div")


def _ew_factory(op: str, scalar: bool):
    if op == "add":
        combine = njit(lambda a, b: a + b)
    elif op == "sub":
        combine = njit(lambda a, b: a - b)
    elif op == "mul":
        combine = njit(lambda a, b: a * b)
    else:
        combine = njit(lambda a, b: a / b)

    if scalar:

        def factory():
            @njit(parallel=True, fastmath=False, nogil=True)
            def k(xv, s, out):
                for i in prange(xv.shape[0]):
                    out[i] = combine(xv[i], s)

            return k

    else:

        def factory():
            @njit(parallel=True, fastmath=False, nogil=True)
            def k(xv, yv, out):
                for i in prange(xv.shape[0]):
                    out[i] = combine(xv[i], yv[i])

            return k

    return factory


# ------------------------------------------------------------------ #
# Entry points used by the executor
# ------------------------------------------------------------------ #
def _nthreads(limit: int) -> int:
    maxn = numba.config.NUMBA_NUM_THREADS
    n = min(int(limit), maxn) if limit else maxn
    n = max(1, n)
    try:
        numba.set_num_threads(n)
    except Exception:
        n = numba.get_num_threads()
    return n


def mttkrp3_nnz(rows, c1, c2, vals, u1, u2, stack) -> None:
    """nnz-parallel atomic variant into a ``(T, I, R)`` slab stack."""
    k = _build("mttkrp3_nnz", _mttkrp3_nnz_factory)
    _timed(k, rows, c1, c2, vals, u1, u2, stack, kernel="mttkrp/nnz")


def mttkrp3_owner(order, part_ptr, rows, c1, c2, vals, u1, u2, out) -> None:
    """Owner-computes variant over cached ownership partitions."""
    k = _build("mttkrp3_owner", _mttkrp3_owner_factory)
    _timed(
        k, order, part_ptr, rows, c1, c2, vals, u1, u2, out,
        kernel="mttkrp/owner",
    )


def elementwise(op: str, xv, yv, out, scalar: bool) -> None:
    """Tew (array-array) / Ts (array-scalar) fused value loop."""
    name = f"ew_{op}_{'s' if scalar else 'v'}"
    k = _build(name, _ew_factory(op, scalar))
    _timed(k, xv, yv, out, kernel=name)


def slab_threads(backend_nthreads: int) -> int:
    """Thread/slab count for the per-thread-slab nnz-parallel variant."""
    return _nthreads(int(backend_nthreads) if backend_nthreads else 0)
