"""Tests for the benchmark runner and experiment reports."""

import numpy as np
import pytest

from repro.bench import (
    Report,
    RunnerConfig,
    SuiteRunner,
    TensorBundle,
    derive_case_seed,
    figure3,
    figure3_series,
    figure_perf,
    table1,
    table2,
    table3,
    table4,
)
from repro.roofline import BLUESKY, DGX_1V, get_platform
from repro.sptensor import COOTensor
from repro.types import Format, Kernel


@pytest.fixture(scope="module")
def tensor():
    return COOTensor.random((150, 120, 30), nnz=4000, rng=0)


@pytest.fixture(scope="module")
def cpu_runner():
    return SuiteRunner(BLUESKY, RunnerConfig(repeats=1, measure_host=True))


@pytest.fixture(scope="module")
def gpu_runner():
    return SuiteRunner(DGX_1V, RunnerConfig(measure_host=False))


class TestRunner:
    def test_bundle_preparation(self, tensor):
        b = TensorBundle.prepare("x", tensor, RunnerConfig(block_size=16))
        assert b.coo.sort_order is not None
        assert b.hicoo.nnz == tensor.nnz
        assert len(b.vectors) == 3 and len(b.matrices) == 3
        assert b.matrices[0].shape == (150, 16)

    def test_cpu_records_complete(self, cpu_runner, tensor):
        records = cpu_runner.run_tensor("demo", tensor)
        assert len(records) == 10  # 5 kernels x 2 formats
        for r in records:
            assert r.platform == "Bluesky"
            assert r.gflops > 0
            assert r.bound_gflops > 0
            assert r.host_seconds > 0  # host measurement enabled
            assert r.seconds > 0

    def test_host_timed_records_say_what_was_timed(self, tensor):
        cfg = RunnerConfig(
            repeats=1, warmup=0, kernels=(Kernel.MTTKRP, Kernel.TTV),
            formats=(Format.COO,),
        )
        mttkrp, ttv = SuiteRunner(BLUESKY, cfg).run_tensor("t", tensor)
        assert mttkrp.extra["method"] == "atomic"
        assert mttkrp.extra["tier"] == "numpy"
        assert ttv.extra["tier"] == "numpy"
        assert "method" not in ttv.extra

    def test_modeled_records_carry_no_host_tags(self, tensor):
        # Modeled records are every line a default sweep journals; their
        # wire form must not grow the host-timing tags.
        cfg = RunnerConfig(
            measure_host=False, kernels=(Kernel.MTTKRP,), formats=(Format.COO,)
        )
        (rec,) = SuiteRunner(BLUESKY, cfg).run_tensor("t", tensor)
        assert set(rec.extra) == {
            "memory_s", "fiber_s", "atomic_s", "cache_resident", "roofline",
        }

    def test_gpu_records_simulated(self, gpu_runner, tensor):
        rec = gpu_runner.run_kernel(
            TensorBundle.prepare("g", tensor, gpu_runner.config),
            Kernel.MTTKRP,
            Format.COO,
        )
        assert rec.platform == "DGX-1V"
        assert rec.seconds > 0
        assert rec.host_seconds == 0.0

    def test_cache_scale_shrinks_llc(self, tensor):
        runner = SuiteRunner(BLUESKY, RunnerConfig(cache_scale=1000, measure_host=False))
        assert runner.platform.llc_bytes < BLUESKY.llc_bytes

    def test_kernel_subset(self, tensor):
        cfg = RunnerConfig(
            kernels=(Kernel.TS,), formats=(Format.COO,), measure_host=False
        )
        records = SuiteRunner(BLUESKY, cfg).run_tensor("t", tensor)
        assert len(records) == 1
        assert records[0].kernel == "ts"

    def test_run_dataset(self, tensor):
        cfg = RunnerConfig(
            kernels=(Kernel.TEW,), formats=(Format.COO,), measure_host=False
        )
        runner = SuiteRunner(BLUESKY, cfg)
        recs = runner.run_dataset({"a": tensor, "b": tensor})
        assert {r.tensor for r in recs} == {"a", "b"}


class TestSeeding:
    """Bundle inputs derive from (config seed, tensor name) only.

    The sharded executor re-runs any case in isolation and expects a
    bit-identical record, so the factor matrices/vectors a bundle draws
    must not depend on how many tensors ran before it in the sweep.
    """

    def test_derived_seed_is_pinned(self):
        # Regression pin: changing the derivation silently invalidates
        # every stored run; this must only move with STORE_VERSION.
        assert derive_case_seed(0, "bundle", "vast") == 2564662850791965524

    def test_bundle_inputs_depend_on_name_and_seed(self, tensor):
        cfg = RunnerConfig(measure_host=False)
        a1 = TensorBundle.prepare("a", tensor, cfg)
        a2 = TensorBundle.prepare("a", tensor, cfg)
        for m1, m2 in zip(a1.matrices, a2.matrices):
            np.testing.assert_array_equal(m1, m2)
        for v1, v2 in zip(a1.vectors, a2.vectors):
            np.testing.assert_array_equal(v1, v2)
        b = TensorBundle.prepare("b", tensor, cfg)
        assert not np.array_equal(a1.matrices[0], b.matrices[0])
        reseeded = TensorBundle.prepare("a", tensor, RunnerConfig(
            measure_host=False, seed=1,
        ))
        assert not np.array_equal(a1.matrices[0], reseeded.matrices[0])

    def test_dataset_records_are_order_independent(self, tensor):
        cfg = RunnerConfig(
            kernels=(Kernel.MTTKRP, Kernel.TTV),
            formats=(Format.COO,),
            measure_host=False,
        )
        other = COOTensor.random((60, 50, 20), nnz=900, rng=5)
        runner = SuiteRunner(BLUESKY, cfg)

        def keyed(records):
            return {(r.tensor, r.kernel, r.fmt): r for r in records}

        forward = keyed(runner.run_dataset({"a": tensor, "b": other}))
        reverse = keyed(runner.run_dataset({"b": other, "a": tensor}))
        solo = keyed(runner.run_tensor("b", other))
        assert forward == reverse
        for key, record in solo.items():
            assert forward[key] == record


class TestReports:
    def test_table1_report(self):
        rep = table1()
        assert len(rep.rows) == 5
        text = rep.render()
        assert "mttkrp" in text and "1/12" in text

    def test_table2_report(self):
        rep = table2(scale=1000)
        assert len(rep.rows) == 15
        assert rep.rows[0][1] == "vast"

    def test_table3_report(self):
        rep = table3(scale=1000)
        assert len(rep.rows) == 15
        assert rep.rows[0][1] == "regS"

    def test_table4_report(self):
        rep = table4()
        names = [row[0] for row in rep.rows]
        assert names == ["Bluesky", "Wingtip", "DGX-1P", "DGX-1V"]

    def test_figure3_report(self):
        rep = figure3()
        assert len(rep.rows) == 20
        assert all(row[-1] for row in rep.rows)

    def test_figure3_series(self):
        rep = figure3_series("Bluesky")
        ois = [row[0] for row in rep.rows]
        assert ois == sorted(ois)

    def test_report_csv(self, tmp_path):
        rep = table4()
        p = tmp_path / "t4.csv"
        rep.save_csv(p)
        assert p.read_text().startswith("platform,")

    def test_figure_perf_small(self):
        rep = figure_perf(
            "fig4",
            dataset="synthetic",
            scale=20000,
            keys=["irrS"],
            config=RunnerConfig(measure_host=False, cache_scale=20000),
        )
        assert len(rep.records) == 10
        assert all(r.platform == "Bluesky" for r in rep.records)

    def test_figure_perf_gpu(self):
        rep = figure_perf(
            "fig7",
            dataset="synthetic",
            scale=20000,
            keys=["irrS"],
            config=RunnerConfig(measure_host=False, cache_scale=20000),
        )
        assert all(r.platform == "DGX-1V" for r in rep.records)

    def test_unknown_dataset_kind(self):
        with pytest.raises(ValueError):
            figure_perf("fig4", dataset="imaginary", scale=20000)

    def test_render_chart_on_perf_report(self):
        rep = figure_perf(
            "fig4",
            dataset="synthetic",
            scale=20000,
            keys=["irrS"],
            config=RunnerConfig(measure_host=False, cache_scale=20000),
        )
        chart = rep.render_chart()
        assert "irrS" in chart
        assert "█" in chart
        assert "roofline" in chart

    def test_render_chart_falls_back_without_records(self):
        rep = table4()
        assert rep.render_chart() == rep.render()
