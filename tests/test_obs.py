"""Tests for the span tracer, analytics and exporters (repro.obs)."""

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    CAT_CHUNK,
    CAT_KERNEL,
    CAT_REGION,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Trace,
    Tracer,
    analyze,
    chrome_trace,
    current_tracer,
    flame_summary,
    imbalance_factor,
    load_chrome,
    save_chrome,
    worker_busy,
    write_jsonl,
)
from repro.parallel import OpenMPBackend


def _chunk(t0, t1, slot, name="chunk", **attrs):
    """Hand-built chunk span with the worker identity already resolved."""
    return SpanEvent(
        name=name, cat=CAT_CHUNK, t0=t0, t1=t1, slot=slot, depth=0,
        path=(name,), attrs=attrs, worker=f"worker-{slot}", tid=slot,
    )


class TestTracerSpans:
    def test_span_records_bounds_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", cat=CAT_KERNEL, fmt="coo", mode=1):
            pass
        trace = tracer.freeze()
        (span,) = trace.spans()
        assert span.name == "work"
        assert span.cat == CAT_KERNEL
        assert span.t1 >= span.t0
        assert span.attrs == {"fmt": "coo", "mode": 1}

    def test_nesting_depth_and_path(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        trace = tracer.freeze()
        by_name = {s.name: s for s in trace.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].path == ("outer",)
        assert by_name["inner"].depth == 1
        assert by_name["inner"].path == ("outer", "inner")
        # The inner span closes first and starts inside the outer one.
        assert by_name["outer"].t0 <= by_name["inner"].t0
        assert by_name["inner"].t1 <= by_name["outer"].t1

    def test_annotate_enriches_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(entries=7)
        by_name = {s.name: s for s in tracer.freeze().spans()}
        assert by_name["inner"].attrs == {"entries": 7}
        assert "entries" not in by_name["outer"].attrs
        tracer.annotate(ignored=True)  # outside any span: silent no-op

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.freeze().spans()
        assert span.attrs["error"] == "ValueError"

    def test_counters_gauges_and_instants(self):
        tracer = Tracer()
        tracer.count("nnz", 10)
        tracer.count("nnz", 5)
        tracer.gauge("bytes", 64)
        tracer.gauge("bytes", 128)  # gauge keeps the last value
        tracer.instant("launch", cat="gpu", nblocks=3)
        trace = tracer.freeze()
        assert trace.counter_total("nnz") == 15.0
        assert trace.counter_total("missing") == 0.0
        assert list(trace.gauges["bytes"].values()) == [128.0]
        (ev,) = [e for e in trace.events if e.instant]
        assert ev.name == "launch" and ev.t0 == ev.t1
        assert ev.attrs == {"nblocks": 3}

    def test_clear_drops_everything(self):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.count("c")
        tracer.clear()
        trace = tracer.freeze()
        assert trace.events == () and trace.counters == {}


class TestInstall:
    def test_install_uninstall_restores_previous(self):
        assert current_tracer() is NULL_TRACER
        outer, inner = Tracer(), Tracer()
        with outer:
            assert current_tracer() is outer
            with inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_is_noop(self):
        null = NullTracer()
        assert not null.enabled
        # Disabled spans hand out one shared null context — no per-call
        # allocation on the disabled path.
        assert null.span("a") is null.span("b", cat="chunk", x=1)
        with null.span("a"):
            pass
        null.count("c", 5)
        null.gauge("g", 1)
        null.instant("i")
        null.annotate(x=1)

    def test_default_global_is_disabled(self):
        assert isinstance(current_tracer(), NullTracer)
        assert not current_tracer().enabled


class TestConcurrentBuffers:
    def test_openmp_chunks_are_slot_tagged_and_complete(self):
        nthreads = 4
        backend = OpenMPBackend(nthreads=nthreads)
        tracer = Tracer()
        seen = []
        lock = threading.Lock()

        def body(lo, hi):
            with lock:
                seen.append((lo, hi))

        try:
            with tracer:
                backend.parallel_for(1000, body, schedule="dynamic")
        finally:
            backend.shutdown()
        trace = tracer.freeze()
        chunks = trace.spans(CAT_CHUNK)
        # One span per executed chunk, each tagged with a valid slot.
        assert len(chunks) == len(seen)
        assert all(0 <= c.slot < nthreads for c in chunks)
        ranges = sorted((c.attrs["lo"], c.attrs["hi"]) for c in chunks)
        assert ranges == sorted(seen)
        # Chunks reassemble the full iteration space exactly once.
        covered = 0
        for lo, hi in ranges:
            assert lo == covered
            covered = hi
        assert covered == 1000
        regions = trace.spans(CAT_REGION)
        assert [r.name for r in regions] == ["parallel_for"]
        assert regions[0].attrs["schedule"] == "dynamic"

    def test_per_slot_buffer_counters_stay_separate(self):
        backend = OpenMPBackend(nthreads=2)
        tracer = Tracer()

        def body(lo, hi):
            tracer.count("iters", hi - lo)

        try:
            with tracer:
                backend.parallel_for(100, body, schedule="static")
        finally:
            backend.shutdown()
        trace = tracer.freeze()
        assert trace.counter_total("iters") == 100.0
        for worker in trace.counters["iters"]:
            assert worker.startswith("worker-")


class TestAnalytics:
    def _hand_built(self):
        # worker-0: two 1s chunks (busy 2.0); worker-1: one 1s chunk.
        events = (
            SpanEvent(
                name="parallel_for", cat=CAT_REGION, t0=0.0, t1=2.0,
                slot=-1, depth=0, path=("parallel_for",), attrs={},
                worker="thread-0", tid=1000,
            ),
            _chunk(0.0, 1.0, 0),
            _chunk(1.0, 2.0, 0),
            _chunk(0.0, 1.0, 1),
        )
        return Trace(events=events, counters={}, gauges={})

    def test_imbalance_on_hand_built_trace(self):
        stats = analyze(self._hand_built())
        assert stats.nworkers == 2
        assert stats.nchunks == 3
        assert stats.wall_s == pytest.approx(2.0)
        assert stats.total_busy_s == pytest.approx(3.0)
        # max busy 2.0 over mean busy 1.5.
        assert stats.imbalance == pytest.approx(2.0 / 1.5)
        assert stats.chunk_imbalance == pytest.approx(1.0)
        assert stats.busy_frac == pytest.approx(3.0 / (2 * 2.0))
        # Region covers the whole wall: no serial tail.
        assert stats.critical_path_s == pytest.approx(2.0)

    def test_worker_busy_and_factor_helpers(self):
        busy = worker_busy(self._hand_built())
        assert busy == {"worker-0": pytest.approx(2.0),
                        "worker-1": pytest.approx(1.0)}
        assert imbalance_factor({}) == 1.0
        assert imbalance_factor({"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_render_mentions_imbalance(self):
        text = analyze(self._hand_built()).render()
        assert "load imbalance" in text
        assert "worker-0" in text and "worker-1" in text

    def test_as_dict_is_json_serializable(self):
        d = analyze(self._hand_built()).as_dict()
        json.dumps(d)
        assert d["imbalance"] == pytest.approx(2.0 / 1.5)
        assert set(d["busy_per_worker"]) == {"worker-0", "worker-1"}


class TestExport:
    def _traced_run(self):
        backend = OpenMPBackend(nthreads=2)
        tracer = Tracer(meta={"note": "test"})
        try:
            with tracer:
                with tracer.span("kernel", cat=CAT_KERNEL, fmt="coo"):
                    backend.parallel_for(
                        64, lambda lo, hi: tracer.count("iters", hi - lo)
                    )
        finally:
            backend.shutdown()
        return tracer.freeze()

    def test_chrome_roundtrip_schema(self, tmp_path):
        trace = self._traced_run()
        path = str(tmp_path / "trace.json")
        save_chrome(trace, path)
        doc = load_chrome(path)
        assert doc["otherData"]["exporter"] == "repro.obs"
        assert doc["otherData"]["note"] == "test"
        events = doc["traceEvents"]
        chunks = [e for e in events if e.get("name") == "chunk" and e["ph"] == "X"]
        assert chunks, "expected one X event per executed chunk"
        for c in chunks:
            assert c["args"]["slot"] >= 0
            assert c["tid"] == c["args"]["slot"]
            assert c["ts"] >= 0 and c["dur"] >= 0
        assert any(e["ph"] == "C" and e["name"] == "iters" for e in events)
        names = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in names} >= {"worker-0"}

    def test_load_chrome_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="trace-event"):
            load_chrome(str(path))

    def test_jsonl_events_plus_trailer(self, tmp_path):
        trace = self._traced_run()
        path = str(tmp_path / "events.jsonl")
        write_jsonl(trace, path)
        lines = [json.loads(l) for l in open(path)]
        assert len(lines) == len(trace.events) + 1
        assert lines[-1]["meta"] == {"note": "test"}
        assert lines[-1]["counters"]["iters"]
        assert all("t0_s" in l for l in lines[:-1])

    def test_flame_summary_folds_paths(self):
        trace = self._traced_run()
        text = flame_summary(trace)
        assert "chunk" in text and "kernel" in text
        assert flame_summary(Trace((), {}, {})) == "(no spans recorded)"


class TestKernelIntegration:
    def test_traced_mttkrp_emits_spans_and_counters(self):
        from repro.generate import powerlaw_tensor
        from repro.kernels import coo_mttkrp

        x = powerlaw_tensor((80, 60, 10), nnz=2000, seed=5).sort()
        rng = np.random.default_rng(0)
        mats = [rng.random((s, 4)).astype(np.float32) for s in x.shape]
        backend = OpenMPBackend(nthreads=2)
        tracer = Tracer()
        try:
            with tracer:
                out = coo_mttkrp(x, mats, 0, backend, method="atomic")
        finally:
            backend.shutdown()
        ref = coo_mttkrp(x, mats, 0)
        np.testing.assert_allclose(out, ref, rtol=1e-4)
        trace = tracer.freeze()
        kernels = [s for s in trace.spans(CAT_KERNEL) if s.name == "mttkrp"]
        assert len(kernels) == 1
        assert kernels[0].attrs["nnz"] == x.nnz
        assert trace.spans(CAT_CHUNK)
        assert trace.counter_total("kernel.nnz_processed") == float(x.nnz)
        assert trace.counter_total("kernel.flops") == pytest.approx(3.0 * x.nnz * 4)

    def test_disabled_tracer_records_nothing(self):
        from repro.generate import powerlaw_tensor
        from repro.kernels import coo_ttv

        x = powerlaw_tensor((50, 40, 8), nnz=500, seed=7).sort()
        v = np.ones(x.shape[1], dtype=np.float32)
        probe = Tracer()  # never installed: kernels see the null tracer
        coo_ttv(x, v, 1)
        assert probe.freeze().events == ()
        assert current_tracer() is NULL_TRACER

    def test_gpu_costmodel_emits_launch_instants(self):
        from repro.generate import powerlaw_tensor
        from repro.gpu.device import DeviceSpec
        from repro.gpu.kernels import gpu_coo_mttkrp
        from repro.roofline import PLATFORMS

        gpu = next(p for p in PLATFORMS if p.is_gpu)
        dev = DeviceSpec.from_platform(gpu)
        x = powerlaw_tensor((60, 50, 8), nnz=1000, seed=3).sort()
        rng = np.random.default_rng(0)
        mats = [rng.random((s, 4)).astype(np.float32) for s in x.shape]
        tracer = Tracer()
        with tracer:
            gpu_coo_mttkrp(x, mats, 0, dev)
        trace = tracer.freeze()
        launches = [e for e in trace.events if e.name == "gpu_launch"]
        assert launches and all(e.instant for e in launches)
        assert trace.counter_total("gpu.launches") == len(launches)
        assert trace.counter_total("gpu.atomics_issued") > 0


class TestGaugeRollup:
    def test_tracer_tracks_gauge_peaks(self):
        tracer = Tracer()
        tracer.gauge("bytes", 256)
        tracer.gauge("bytes", 64)  # re-set lower: last wins, peak stays
        trace = tracer.freeze()
        assert list(trace.gauges["bytes"].values()) == [64.0]
        assert list(trace.gauge_peaks["bytes"].values()) == [256.0]

    def test_rollup_is_max_per_worker_then_sum(self):
        from repro.obs import rollup_gauges

        # Two workers, each re-setting the gauge across "regions": the
        # rollup must sum each worker's peak, not the per-observation sum
        # (which double-counts) nor the shrunken last values.
        trace = Trace(
            events=(),
            counters={},
            gauges={"ws.arena_bytes": {"worker-0": 100.0, "worker-1": 50.0}},
            gauge_peaks={"ws.arena_bytes": {"worker-0": 400.0, "worker-1": 300.0}},
        )
        assert rollup_gauges(trace) == {"ws.arena_bytes": 700.0}
        assert analyze(trace).gauges == {"ws.arena_bytes": 700.0}

    def test_rollup_falls_back_to_last_values(self):
        from repro.obs import rollup_gauges

        # Hand-built traces (and old snapshots) carry no peaks: the last
        # values stand in, preserving the one-arena-per-slot sum.
        trace = Trace(
            events=(), counters={},
            gauges={"g": {"worker-0": 10.0, "worker-1": 20.0}},
        )
        assert rollup_gauges(trace) == {"g": 30.0}

    def test_analyze_uses_peaks_not_last_values(self):
        tracer = Tracer()
        tracer.gauge("ws.arena_bytes", 4096)
        tracer.gauge("ws.arena_bytes", 1024)  # arena shrank between regions
        stats = analyze(tracer.freeze())
        assert stats.gauges["ws.arena_bytes"] == 4096.0
