"""Tests for distributed trace-context propagation (repro.obs.context).

Covers the context dataclass and its wire round-trips, thread-local
vs process-global scoping for both contexts and tracers, the Trace
serialization that carries worker-subprocess spans home in verdicts,
multi-process trace merging, registry absorption, and the end-to-end
regression that a sharded process-isolation sweep's merged Chrome trace
contains the worker subprocesses' kernel spans — the telemetry that used
to be silently lost.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.bench import (
    ExecutorConfig,
    RunnerConfig,
    RunStore,
    SuiteExecutor,
    enumerate_cases,
)
from repro.obs import (
    MetricsRegistry,
    Trace,
    Tracer,
    get_metrics,
    merge_traces,
    set_metrics,
)
from repro.obs.context import (
    ContextError,
    TraceContext,
    activate_context,
    current_context,
    derive_span_id,
    install_context,
    new_trace_id,
)
from repro.obs.tracer import CAT_KERNEL, current_tracer, scoped_tracer
from repro.types import Format, Kernel

from test_executor import TINY_SPEC, tiny_cases


@pytest.fixture(autouse=True)
def _clean_scopes():
    """No test may leak an installed context/tracer into the next."""
    yield
    install_context(None)


# ---------------------------------------------------------------------- #
# TraceContext
# ---------------------------------------------------------------------- #


class TestTraceContext:
    def test_round_trips_through_dict(self):
        ctx = TraceContext(
            trace_id="cafe", parent_span="beef", baggage={"op": "sweep"}
        )
        back = TraceContext.from_dict(json.loads(json.dumps(ctx.to_dict())))
        assert back == ctx
        assert back.trace_id == "cafe"
        assert back.parent_span == "beef"
        assert dict(back.baggage) == {"op": "sweep"}

    def test_empty_trace_id_rejected(self):
        with pytest.raises(ContextError):
            TraceContext(trace_id="")
        with pytest.raises(ContextError):
            TraceContext.from_dict({"trace_id": "x", "surprise": 1})

    def test_child_rebases_parent_span(self):
        ctx = TraceContext(trace_id="cafe", parent_span="old")
        kid = ctx.child("new")
        assert kid.trace_id == "cafe"
        assert kid.parent_span == "new"
        assert ctx.parent_span == "old"  # frozen; child does not mutate

    def test_new_trace_id_is_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_derive_span_id_deterministic(self):
        a = derive_span_id("cafe", "fp", 0)
        assert a == derive_span_id("cafe", "fp", 0)
        assert a != derive_span_id("cafe", "fp", 1)
        assert a != derive_span_id("feed", "fp", 0)
        assert len(a) == 16


class TestContextScoping:
    def test_default_is_none(self):
        assert current_context() is None

    def test_activate_restores_previous(self):
        outer = TraceContext(trace_id="aa")
        inner = TraceContext(trace_id="bb")
        with activate_context(outer):
            assert current_context() == outer
            with activate_context(inner):
                assert current_context() == inner
            assert current_context() == outer
        assert current_context() is None

    def test_install_is_global_and_returns_previous(self):
        ctx = TraceContext(trace_id="aa")
        assert install_context(ctx) is None
        assert current_context() == ctx
        seen = []
        t = threading.Thread(target=lambda: seen.append(current_context()))
        t.start()
        t.join()
        assert seen == [ctx]  # global fallback crosses threads
        assert install_context(None) == ctx
        assert current_context() is None

    def test_thread_scope_overrides_global(self):
        glob = TraceContext(trace_id="aa")
        local = TraceContext(trace_id="bb")
        install_context(glob)
        with activate_context(local):
            assert current_context() == local
            seen = []
            t = threading.Thread(target=lambda: seen.append(current_context()))
            t.start()
            t.join()
            assert seen == [glob]  # the overlay is thread-local
        assert current_context() == glob


class TestTracerScoping:
    def test_scoped_tracer_overlays_installed(self):
        installed = Tracer(trace_id="aa").install()
        scoped = Tracer(trace_id="bb")
        try:
            assert current_tracer() is installed
            with scoped_tracer(scoped):
                assert current_tracer() is scoped
                seen = []
                t = threading.Thread(
                    target=lambda: seen.append(current_tracer())
                )
                t.start()
                t.join()
                assert seen == [installed]
            assert current_tracer() is installed
        finally:
            installed.uninstall()


# ---------------------------------------------------------------------- #
# Trace wire format and multi-process merge
# ---------------------------------------------------------------------- #


def worker_trace(trace_id="cafe", parent_span="feed", t_shift=0.0):
    tracer = Tracer(
        trace_id=trace_id,
        meta={"process": "worker fp0", "parent_span": parent_span},
    )
    with tracer:
        with tracer.span("run.mttkrp", cat=CAT_KERNEL, tensor="tiny"):
            tracer.count("kernel.nnz_processed", 64)
    trace = tracer.freeze()
    if t_shift:
        object.__setattr__(trace, "epoch_offset_s", trace.epoch_offset_s + t_shift)
    return trace


class TestTraceWire:
    def test_trace_round_trips_through_json(self):
        trace = worker_trace()
        back = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert len(back.events) == len(trace.events)
        got, want = back.events[0], trace.events[0]
        assert (got.name, got.cat, got.t0, got.t1, got.attrs) == (
            want.name, want.cat, want.t0, want.t1, want.attrs
        )
        assert back.counters == trace.counters
        assert back.meta == trace.meta
        assert back.epoch_offset_s == trace.epoch_offset_s

    def test_adopted_children_survive_freeze_and_wire(self):
        parent = Tracer(trace_id="cafe", meta={"process": "daemon"})
        with parent:
            with parent.span("serve.sweep", cat="request", span_id="feed"):
                parent.adopt(worker_trace())
        root = parent.freeze()
        assert len(root.children) == 1
        back = Trace.from_dict(json.loads(json.dumps(root.to_dict())))
        assert len(back.children) == 1
        assert back.children[0].meta["process"] == "worker fp0"

    def test_merge_rebases_cross_process_timestamps(self):
        parent = Tracer(trace_id="cafe", meta={"process": "daemon"})
        with parent:
            with parent.span("serve.sweep", cat="request", span_id="feed"):
                pass
        # A child whose wall-clock anchor sits 5s later than the parent's
        # must land 5s later on the merged timeline, whatever its raw
        # perf_counter values were.
        kid = worker_trace(t_shift=5.0)
        doc = merge_traces(parent.freeze(), children=[kid])
        spans = {e["pid"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert set(spans) == {0, 1}
        assert spans[1]["ts"] - spans[0]["ts"] >= 4.9e6  # microseconds

    def test_merge_without_children_is_single_process(self):
        tracer = Tracer(meta={"process": "main"})
        with tracer:
            with tracer.span("outer", cat=CAT_KERNEL):
                pass
        doc = merge_traces(tracer.freeze())
        assert doc["otherData"]["processes"] == 1
        assert all(e["pid"] == 0 for e in doc["traceEvents"])
        assert not [e for e in doc["traceEvents"] if e.get("cat") == "flow"]


# ---------------------------------------------------------------------- #
# Registry quantiles and cross-process absorption
# ---------------------------------------------------------------------- #


class TestRegistryQuantiles:
    def test_quantiles_from_observation_window(self):
        reg = MetricsRegistry()
        for v in (0.01, 0.02, 0.03):
            reg.observe("case_s", v, kernel="ttv")
        q = reg.histogram_quantiles("case_s", kernel="ttv")
        assert q["p50"] == pytest.approx(0.02)
        assert q["p95"] >= q["p50"]
        assert reg.histogram_quantiles("case_s") == q  # pooled across labels

    def test_quantiles_none_when_empty(self):
        reg = MetricsRegistry()
        assert reg.histogram_quantiles("missing") is None
        reg.inc("some.counter")
        assert reg.histogram_quantiles("some.counter") is None

    def test_absorbed_histograms_merge_but_carry_no_window(self):
        worker = MetricsRegistry()
        worker.inc("exec.completed", 2, kernel="ts")
        worker.observe("case_s", 0.04, buckets=(0.01, 0.1), kernel="ts")
        parent = MetricsRegistry()
        parent.observe("case_s", 0.02, buckets=(0.01, 0.1), kernel="ts")
        parent.absorb_dict(json.loads(json.dumps(worker.as_dict())))
        dump = parent.as_dict()
        assert dump["counters"]["exec.completed"][0]["value"] == 2
        (series,) = dump["histograms"]["case_s"]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(0.06)
        # The bounded quantile reservoir is local-only: absorbing a dump
        # merges buckets, not samples.
        q = parent.histogram_quantiles("case_s", kernel="ts")
        assert q["p50"] == pytest.approx(0.02)

    def test_as_dict_exposes_quantiles(self):
        reg = MetricsRegistry()
        reg.observe("case_s", 0.02, kernel="ts")
        (series,) = reg.as_dict()["histograms"]["case_s"]
        assert series["quantiles"]["p50"] == pytest.approx(0.02)


# ---------------------------------------------------------------------- #
# Worker verdict telemetry (the worker's line loop, in process)
# ---------------------------------------------------------------------- #


def run_worker(tmp_path, *payloads):
    """Drive the worker's line loop over in-memory streams."""
    from repro.bench import worker

    out = io.StringIO()
    lines = io.StringIO("".join(json.dumps(p) + "\n" for p in payloads))
    # The loop clears its process registry after every verdict.
    prev = get_metrics()
    set_metrics(MetricsRegistry())
    try:
        assert worker.serve(lines, out) == 0
    finally:
        set_metrics(prev)
    verdicts = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(verdicts) == len(payloads)
    return verdicts[0] if len(verdicts) == 1 else verdicts


class TestWorkerVerdictTelemetry:
    def test_untraced_verdict_is_unchanged(self, tmp_path):
        case = tiny_cases()[0]
        verdict = run_worker(tmp_path, {"case": case.to_dict(), "attempt": 0})
        assert verdict["ok"] is True
        assert set(verdict) == {
            "ok", "fingerprint", "seed", "record", "elapsed_s"
        }

    def test_traced_verdict_carries_spans_and_metrics(self, tmp_path):
        case = tiny_cases()[0]
        ctx = TraceContext(trace_id="cafe", parent_span="feed")
        verdict = run_worker(
            tmp_path,
            {"case": case.to_dict(), "attempt": 0, "trace": ctx.to_dict()},
        )
        assert verdict["ok"] is True
        trace = Trace.from_dict(verdict["trace"])
        assert trace.meta["trace_id"] == "cafe"
        assert trace.meta["parent_span"] == "feed"
        kernel_spans = trace.spans(CAT_KERNEL)
        assert any(s.name.startswith("run.") for s in kernel_spans)
        assert isinstance(verdict["metrics"], dict)

    def test_each_verdict_ships_only_its_attempts_metrics(self, tmp_path, monkeypatch):
        from repro.bench.runner import SuiteRunner

        original = SuiteRunner.run_kernel

        def counted(self, bundle, kernel, fmt):
            get_metrics().inc("test.kernel_runs")
            return original(self, bundle, kernel, fmt)

        monkeypatch.setattr(SuiteRunner, "run_kernel", counted)
        ctx = TraceContext(trace_id="cafe").to_dict()
        cases = tiny_cases(kernels=(Kernel.TS, Kernel.TTV))
        verdicts = run_worker(
            tmp_path,
            *({"case": c.to_dict(), "attempt": 0, "trace": ctx} for c in cases),
        )
        # A running sum would ship 1, then 2: the parent would count 3.
        for verdict in verdicts:
            (series,) = verdict["metrics"]["counters"]["test.kernel_runs"]
            assert series["value"] == 1.0


# ---------------------------------------------------------------------- #
# End-to-end: sharded process-isolation sweep folds worker spans home
# ---------------------------------------------------------------------- #


class TestSweepTraceFold:
    def sweep(self, tmp_path, traced: bool):
        cases = tiny_cases(names=("a", "b"))
        store = RunStore(tmp_path / ("traced.jsonl" if traced else "plain.jsonl"))
        executor = SuiteExecutor(
            cases, store, ExecutorConfig(isolation="process", timeout_s=120.0)
        )
        tracer = None
        if traced:
            ctx = TraceContext(trace_id=new_trace_id())
            tracer = Tracer(
                trace_id=ctx.trace_id, meta={"process": "sweep"}
            ).install()
            install_context(ctx)
        try:
            report = executor.run()
        finally:
            if tracer is not None:
                tracer.uninstall()
                install_context(None)
        assert len(report.completed) == len(cases)
        return store.load(), tracer

    def test_merged_trace_contains_worker_kernel_spans(self, tmp_path):
        prev = get_metrics()
        set_metrics(MetricsRegistry())
        try:
            _state, tracer = self.sweep(tmp_path, traced=True)
        finally:
            set_metrics(prev)
        root = tracer.freeze()
        # Regression: worker-subprocess telemetry used to be dropped on
        # the floor. Every executed case's subprocess trace must have
        # been adopted, carrying its kernel spans.
        assert len(root.children) == 2
        for kid in root.children:
            assert kid.meta["trace_id"] == root.meta["trace_id"]
            assert any(
                s.name.startswith("run.") for s in kid.spans(CAT_KERNEL)
            )
        doc = merge_traces(root, trace_id=root.meta["trace_id"])
        assert doc["otherData"]["processes"] == 3
        kernel_spans = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == CAT_KERNEL and e["pid"] != 0
        ]
        assert kernel_spans, "no worker kernel spans in the merged trace"
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert {e["ph"] for e in flows} == {"s", "f"}
        assert len(flows) == 4  # one s/f pair per worker process

    def test_tracing_off_changes_no_records(self, tmp_path):
        prev = get_metrics()
        set_metrics(MetricsRegistry())
        try:
            plain, _ = self.sweep(tmp_path, traced=False)
            traced, _ = self.sweep(tmp_path, traced=True)
        finally:
            set_metrics(prev)
        assert sorted(plain.records) == sorted(traced.records)
        for fp in plain.records:
            assert plain.records[fp]["record"] == traced.records[fp]["record"]


    def test_counters_equal_the_case_count(self, tmp_path):
        # One warm worker runs a four-case group; a worker that shipped
        # running sums would inflate every absorbed counter.
        cases = enumerate_cases(
            {"tiny": TINY_SPEC},
            RunnerConfig(
                measure_host=True, repeats=1, warmup=0,
                kernels=(Kernel.TTV, Kernel.MTTKRP),
                formats=(Format.COO, Format.HICOO),
            ),
        )

        def traced_run(isolation):
            registry = MetricsRegistry()
            prev = get_metrics()
            set_metrics(registry)
            tracer = Tracer(trace_id=new_trace_id()).install()
            try:
                report = SuiteExecutor(
                    cases, RunStore(tmp_path / f"{isolation}.jsonl"),
                    ExecutorConfig(isolation=isolation),
                ).run()
            finally:
                tracer.uninstall()
                set_metrics(prev)
            assert len(report.completed) == len(cases)
            return registry.counter_totals(prefix="exec."), tracer.freeze()

        counters, root = traced_run("process")
        assert counters == {
            "exec.completed": len(cases), "exec.worker_spawns": 1.0,
        }
        assert len(root.children) == len(cases)
        _, inline_root = traced_run("inline")
        for name in ("kernel.nnz_processed", "kernel.flops"):
            want = inline_root.counter_total(name)
            assert want > 0
            assert sum(kid.counter_total(name) for kid in root.children) == want


class TestAbsorbVerdict:
    def test_malformed_telemetry_is_tolerated(self):
        from repro.bench.executor import CaseRunner

        runner = CaseRunner(ExecutorConfig(isolation="inline"))
        tracer = Tracer(trace_id="cafe").install()
        try:
            # Garbage shapes must not raise — they log and move on.
            runner._absorb_verdict({"trace": {"events": "nope"}})
            runner._absorb_verdict({"metrics": "nope"})
            runner._absorb_verdict({})
        finally:
            tracer.uninstall()
