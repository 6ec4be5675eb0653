"""Tests for the compiled execution tier (``repro.compiled``).

The load-bearing contract is *bit-compatibility by floating-point
schedule*: the compiled tier's deterministic lowerings replay the exact
summation order of their NumPy-tier partners (``atomic``/``owner`` ->
linear per-row accumulation, ``sort``/fibers -> pairwise ``reduceat``,
elementwise -> one rounding per element), so the equivalence matrix below
asserts ``array_equal``, not ``allclose`` — except the ``atomic`` method,
whose per-thread slab reduction legitimately reassociates on both tiers.

Everything here runs without Numba (the fused fallback *is* the compiled
tier then); the Numba-specific tests skip cleanly via ``importorskip``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiled import (
    DESCRIPTORS,
    TIERS,
    available,
    compile_stats,
    default_tier,
    describe_all,
    descriptor_for,
    resolve_tier,
)
from repro.compiled.plans import cached_plan, scatter_plan
from repro.kernels import (
    coo_mttkrp,
    coo_tew,
    coo_ts,
    coo_ttm,
    coo_ttv,
    hicoo_mttkrp,
    hicoo_tew,
    hicoo_ts,
    hicoo_ttm,
    hicoo_ttv,
)
from repro.parallel import ChaosBackend, OpenMPBackend, RaceCheckBackend
from repro.sptensor import COOTensor, HiCOOTensor
from tests.conftest import random_mats

RANK = 5


@pytest.fixture
def omp():
    be = OpenMPBackend(nthreads=4)
    yield be
    be.shutdown()


def _tensor(dtype):
    return COOTensor.random((40, 30, 20), nnz=900, rng=7).astype(dtype).sort()


# ------------------------------------------------------------------ #
# Descriptor registry
# ------------------------------------------------------------------ #
class TestDescriptors:
    def test_registry_covers_issue_matrix(self):
        for fmt in ("coo", "hicoo"):
            for method in ("atomic", "sort", "owner"):
                assert descriptor_for("mttkrp", fmt, method) is not None
            assert descriptor_for("tew", fmt, "elementwise") is not None
            assert descriptor_for("ts", fmt, "elementwise") is not None
        for fmt in ("coo", "hicoo", "ghicoo"):
            assert descriptor_for("ttv", fmt, "fiber") is not None
            assert descriptor_for("ttm", fmt, "fiber") is not None

    def test_unknown_cell_has_no_descriptor(self):
        assert descriptor_for("mttkrp", "csf", "atomic") is None
        assert descriptor_for("nope", "coo", "atomic") is None

    def test_describe_all_renders_every_nest(self):
        text = describe_all()
        assert len(text.splitlines()) >= len(DESCRIPTORS)
        assert "mttkrp" in text and "dense-rows" in text


# ------------------------------------------------------------------ #
# Tier resolution and gating
# ------------------------------------------------------------------ #
class TestTierResolution:
    def test_default_tier_is_numpy_when_env_unset(self):
        assert default_tier() == "numpy"
        for kernel, fmt, method in DESCRIPTORS:
            assert resolve_tier(None, kernel=kernel, fmt=fmt,
                                method=method) == "numpy"
            assert resolve_tier("compiled", kernel=kernel, fmt=fmt,
                                method=method) == "compiled"

    def test_unknown_tier_rejected(self):
        for tier in ("fortran", "auto"):
            with pytest.raises(ValueError, match="unknown execution tier"):
                resolve_tier(tier, kernel="mttkrp", fmt="coo",
                             method="atomic")
        assert TIERS == ("numpy", "compiled")

    def test_cells_without_descriptor_stay_numpy(self):
        assert resolve_tier("compiled", kernel="mttkrp", fmt="csf",
                            method="atomic") == "numpy"

    def test_racecheck_and_chaos_backends_refuse_compiled(self):
        rc = RaceCheckBackend(nthreads=2, default_chunk=64)
        ch = ChaosBackend(OpenMPBackend(nthreads=2))
        for be in (rc, ch):
            assert not be.supports_compiled
            assert resolve_tier("compiled", backend=be, kernel="mttkrp",
                                fmt="coo", method="atomic") == "numpy"

    def test_available_probe_never_raises(self):
        assert available() in (True, False)


# ------------------------------------------------------------------ #
# Equivalence matrix: compiled vs NumPy tier
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestMttkrpEquivalence:
    @pytest.mark.parametrize("fmt", ["coo", "hicoo"])
    @pytest.mark.parametrize("method", ["atomic", "sort", "owner"])
    def test_matrix(self, fmt, method, dtype, omp):
        x = _tensor(dtype)
        mats = random_mats(x.shape, RANK, seed=3, dtype=dtype)
        if fmt == "hicoo":
            x = HiCOOTensor.from_coo(x, block_size=8)
            fn = hicoo_mttkrp
        else:
            fn = coo_mttkrp
        want = fn(x, mats, 0, omp, method=method, tier="numpy")
        got = fn(x, mats, 0, omp, method=method, tier="compiled")
        if method == "atomic":
            # Atomic is the one reassociating method on *both* tiers:
            # the NumPy tier reduces per-thread slabs in thread order,
            # the Numba tier in its own — only tolerance comparison holds.
            rtol = 1e-5 if dtype == np.float32 else 1e-12
            np.testing.assert_allclose(got, want, rtol=rtol)
        else:
            # Deterministic lowerings replay the NumPy tier's exact
            # floating-point schedule.
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_unsorted_modes_coo(self, mode, dtype, omp):
        # Modes 1/2 scatter an unsorted row stream: exercises the
        # stable-argsort plan path, still bit-identical for owner.
        x = _tensor(dtype)
        mats = random_mats(x.shape, RANK, seed=4, dtype=dtype)
        want = coo_mttkrp(x, mats, mode, omp, method="owner", tier="numpy")
        got = coo_mttkrp(x, mats, mode, omp, method="owner", tier="compiled")
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestFiberAndValueEquivalence:
    def test_ttv(self, dtype, omp):
        x = _tensor(dtype)
        h = HiCOOTensor.from_coo(x, block_size=8)
        vec = np.random.default_rng(5).random(x.shape[1]).astype(dtype)
        for fn, t in ((coo_ttv, x), (hicoo_ttv, h)):
            want = fn(t, vec, 1, omp, tier="numpy")
            got = fn(t, vec, 1, omp, tier="compiled")
            assert np.array_equal(got.values, want.values)

    def test_ttm(self, dtype, omp):
        x = _tensor(dtype)
        h = HiCOOTensor.from_coo(x, block_size=8)
        u = np.random.default_rng(6).random((x.shape[1], RANK)).astype(dtype)
        for fn, t in ((coo_ttm, x), (hicoo_ttm, h)):
            want = fn(t, u, 1, omp, tier="numpy")
            got = fn(t, u, 1, omp, tier="compiled")
            assert np.array_equal(got.values, want.values)

    def test_tew(self, dtype, omp):
        x = _tensor(dtype)
        h = HiCOOTensor.from_coo(x, block_size=8)
        for fn, t in ((coo_tew, x), (hicoo_tew, h)):
            for op in ("add", "mul"):
                want = fn(t, t, op, omp, assume_same_pattern=True,
                          tier="numpy")
                got = fn(t, t, op, omp, assume_same_pattern=True,
                         tier="compiled")
                assert np.array_equal(got.values, want.values)

    def test_ts(self, dtype, omp):
        x = _tensor(dtype)
        h = HiCOOTensor.from_coo(x, block_size=8)
        for fn, t in ((coo_ts, x), (hicoo_ts, h)):
            want = fn(t, 1.5, "mul", omp, tier="numpy")
            got = fn(t, 1.5, "mul", omp, tier="compiled")
            assert np.array_equal(got.values, want.values)


class TestSequentialBitIdentity:
    def test_compiled_owner_matches_sequential(self):
        # The paper-level invariant the bench asserts: owner-computes
        # accumulates linearly in storage order on every tier.
        x = _tensor(np.float32)
        mats = random_mats(x.shape, RANK, seed=8, dtype=np.float32)
        ref = coo_mttkrp(x, mats, 0, "sequential")
        got = coo_mttkrp(x, mats, 0, "sequential", method="owner",
                         tier="compiled")
        assert np.array_equal(got, ref)


# ------------------------------------------------------------------ #
# Contract backends still verify the compiled call sites
# ------------------------------------------------------------------ #
class TestContractBackends:
    def test_racecheck_passes_under_compiled_request(self):
        # tier="compiled" degrades to the chunked NumPy tier under the
        # race checker, so its replay contracts still run (and pass).
        rc = RaceCheckBackend(nthreads=4, default_chunk=64)
        x = _tensor(np.float64)
        mats = random_mats(x.shape, RANK, seed=9)
        got = coo_mttkrp(x, mats, 0, rc, method="atomic", tier="compiled")
        want = coo_mttkrp(x, mats, 0, "sequential")
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_chaos_passes_under_compiled_request(self):
        ch = ChaosBackend(OpenMPBackend(nthreads=4), churn=1.0)
        x = _tensor(np.float64)
        got = coo_ttv(x, np.ones(x.shape[1]), 1, ch, tier="compiled")
        want = coo_ttv(x, np.ones(x.shape[1]), 1, "sequential")
        np.testing.assert_allclose(got.values, want.values, rtol=1e-10)


# ------------------------------------------------------------------ #
# Plan cache and accounting
# ------------------------------------------------------------------ #
class TestPlansAndStats:
    def test_plan_cached_per_tensor_and_tag(self):
        x = _tensor(np.float64)
        rows = x.indices[:, 0].astype(np.int64)
        p1 = scatter_plan(x, rows, x.shape[0], np.dtype(np.float64), tag=0)
        p2 = scatter_plan(x, rows, x.shape[0], np.dtype(np.float64), tag=0)
        assert p1 is p2
        p3 = scatter_plan(x, x.indices[:, 1].astype(np.int64), x.shape[1],
                          np.dtype(np.float64), tag=1)
        assert p3 is not p1

    def test_sort_invalidates_coo_plan_cache(self):
        x = COOTensor.random((20, 20, 20), nnz=300, rng=11)
        built = []
        cached_plan(x, ("probe",), lambda: built.append(1) or object())
        x.sort()
        cached_plan(x, ("probe",), lambda: built.append(1) or object())
        assert len(built) == 2

    def test_cache_survives_on_foreign_objects(self):
        # Tensors without the _plan_cache slot degrade to build-per-call.
        class Bare:
            __slots__ = ()

        built = []
        cached_plan(Bare(), ("k",), lambda: built.append(1) or object())
        cached_plan(Bare(), ("k",), lambda: built.append(1) or object())
        assert len(built) == 2

    def test_compiled_calls_are_accounted(self, omp):
        x = _tensor(np.float32)
        mats = random_mats(x.shape, RANK, seed=12, dtype=np.float32)
        before = compile_stats()
        coo_mttkrp(x, mats, 0, omp, method="owner", tier="compiled")
        after = compile_stats()
        assert after["calls"] == before["calls"] + 1
        assert after["compile_seconds"] >= before["compile_seconds"]
        if not available():
            # Fallback flavors count as fallback executions.
            assert after["fallback_calls"] == before["fallback_calls"] + 1

    def test_presorted_stream_needs_no_permutation(self):
        x = _tensor(np.float64)
        rows = x.indices[:, 0].astype(np.int64)  # sorted: mode-0 stream
        plan = scatter_plan(x, rows, x.shape[0], np.dtype(np.float64), tag=0)
        assert plan.presorted and plan.order is None


# ------------------------------------------------------------------ #
# Numba-specific behavior (skips cleanly without the compiled extra)
# ------------------------------------------------------------------ #
class TestNumbaTier:
    def test_jit_kernels_execute_and_account(self, omp):
        pytest.importorskip("numba")
        from repro.compiled import numba_tier as nb

        assert nb.HAVE_NUMBA and available()
        x = _tensor(np.float32)
        mats = random_mats(x.shape, RANK, seed=13, dtype=np.float32)
        before = compile_stats()
        got = coo_mttkrp(x, mats, 0, omp, method="atomic", tier="compiled")
        want = coo_mttkrp(x, mats, 0, omp, method="atomic", tier="numpy")
        np.testing.assert_allclose(got, want, rtol=1e-5)
        # First execution compiles at least one @njit signature.
        assert compile_stats()["jit_compiles"] >= before["jit_compiles"]

    def test_unsupported_dtype_uses_fallback(self, omp):
        pytest.importorskip("numba")
        from repro.compiled import numba_tier as nb

        assert not nb.jit_supported(np.int64)
        assert nb.jit_supported(np.float32)
        assert nb.jit_supported(np.float64)

    def test_elementwise_jit_bit_identical(self, omp):
        pytest.importorskip("numba")
        x = _tensor(np.float64)
        want = coo_ts(x, 3.0, "mul", omp, tier="numpy")
        got = coo_ts(x, 3.0, "mul", omp, tier="compiled")
        assert np.array_equal(got.values, want.values)
