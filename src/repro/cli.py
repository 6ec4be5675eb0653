"""Command-line interface: ``python -m repro`` / ``pasta-bench``.

Subcommands
-----------
``info``      — suite version, platforms, host ERT characterization.
``generate``  — synthesize a tensor (Kronecker / power-law / a Table 2
                surrogate / a Table 3 config) to ``.tns`` or ``.npz``.
``bench``     — reproduce a paper table or figure (``--exp table1 ...
                fig7 observations``), print it, optionally save CSV.
``convert``   — convert a tensor file between ``.tns`` and ``.npz`` and
                print format statistics (COO/HiCOO sizes, block stats).
``trace``     — run one kernel under the span tracer and export a Chrome
                trace plus per-worker busy-time / load-imbalance analytics.
``sweep``     — resilient sharded suite sweep: tensor-grouped cases on
                warm worker subprocesses, per-case timeout, retry with
                backoff, quarantine, and an append-only JSONL run store
                supporting ``--resume`` and ``--merge``.
``report``    — fold a run store into paper-style Observation 1-5
                tables (GFLOPS ranges, bound-fraction distributions,
                HiCOO-vs-COO ratios) as text, markdown, or JSON.
``regress``   — statistical perf-regression sentinel: compare two run
                stores case-for-case by fingerprint, per-group geomean
                time ratios with bootstrap CIs; exits nonzero on a
                confident regression.
``serve``     — benchmark-as-a-service daemon on a local socket: answers
                ``sweep``/``report``/``regress``/``status`` requests
                from many concurrent clients, cache hits served straight
                from the run store by case fingerprint, misses executed
                once (single-flight) on a work-stealing pool.
``client``    — send one request to a running ``serve`` daemon and print
                the result payload as JSON (progress lines to stderr);
                ``--trace`` propagates a client-minted trace context so
                the daemon's merged Chrome trace carries one trace_id
                end to end.
``health``    — scrape a running daemon's live health telemetry (uptime,
                cache hit rate, pool state, request latency quantiles).
``metrics``   — dump the metrics registry (Prometheus text or JSON),
                optionally reconstructed from a run store.

Diagnostics throughout go through :mod:`repro.obs.log` (``REPRO_LOG=json|
text|off``) on stderr, so machine-readable stdout (``client``, ``regress
--json``, ``ingest-bench --json``) stays clean under any log mode.
``ingest-bench`` — live FireHose ingestion benchmark: a seeded generator
                races concurrent window ingestion and periodic kernel
                queries; reports throughput, p50/p95/p99 latency, and
                roofline attribution, with optional chaos injection,
                run-store journaling, and bit-exact ``--verify``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs.log import get_logger

_LOG = get_logger("repro.cli")


def _cmd_info(args) -> int:
    import repro
    from repro.roofline import PLATFORMS, RooflineModel, measure_host

    from repro.compiled import available as compiled_available
    from repro.compiled import default_tier

    print(f"repro {repro.__version__} — parallel sparse tensor benchmark suite")
    print(f"kernels: tew ts ttv ttm mttkrp | formats: coo hicoo ghicoo scoo shicoo csf")
    jit = "numba JIT" if compiled_available() else "fused-NumPy fallback"
    print(f"default tier: {default_tier()} | tier=\"compiled\" runs: {jit}")
    print()
    for p in PLATFORMS:
        model = RooflineModel(p)
        print(
            f"  {p.name:8s} {p.processor:24s} peak {p.peak_sp_gflops:>8.0f} GF "
            f"ERT-DRAM {p.ert_dram_bw_gbs:>6.1f} GB/s ridge OI {p.ridge_oi:.2f}"
        )
    if args.ert:
        print("\nhost ERT characterization (NumPy micro-kernels):")
        host = measure_host()
        print(
            f"  GEMM {host.peak_sp_gflops:.1f} GFLOPS, "
            f"triad DRAM {host.ert_dram_bw_gbs:.1f} GB/s, "
            f"LLC/DRAM ratio {host.llc_bw_ratio:.2f}"
        )
    return 0


def _cmd_generate(args) -> int:
    from repro.sptensor import save_npz, write_tns

    if args.kind == "kron":
        from repro.generate import kronecker_tensor

        tensor = kronecker_tensor(args.shape, args.nnz, seed=args.seed)
    elif args.kind == "pl":
        from repro.generate import powerlaw_tensor

        tensor = powerlaw_tensor(
            args.shape, args.nnz, alpha=args.alpha,
            dense_modes=args.dense_modes or (), seed=args.seed,
        )
    elif args.kind == "table3":
        from repro.generate import get_synthetic

        tensor = get_synthetic(args.name).generate(scale=args.scale, seed=args.seed)
    elif args.kind == "table2":
        from repro.datasets import make_surrogate

        tensor = make_surrogate(args.name, scale=args.scale, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    out = args.output
    if out.endswith(".npz"):
        save_npz(tensor, out)
    else:
        write_tns(tensor, out)
    print(f"wrote {tensor!r} -> {out}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import EXPERIMENTS

    kwargs = {"scale": args.scale}
    if args.exp in ("fig4", "fig5", "fig6", "fig7"):
        kwargs["dataset"] = args.dataset
        kwargs["seed"] = args.seed
        if args.tensors:
            kwargs["keys"] = args.tensors
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(meta={"exp": args.exp, "scale": args.scale}).install()
    try:
        report = EXPERIMENTS[args.exp](**kwargs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.chart and report.records:
        print(report.render_chart())
    else:
        print(report.render())
    if args.csv:
        os.makedirs(os.path.dirname(args.csv) or ".", exist_ok=True)
        report.save_csv(args.csv)
        print(f"\nsaved CSV -> {args.csv}")
    if tracer is not None:
        from repro.obs import save_chrome

        os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
        trace = tracer.freeze()
        save_chrome(trace, args.trace)
        print(f"saved Chrome trace ({len(trace.events)} events) -> {args.trace}")
    return 0


def _cmd_sweep(args) -> int:
    import json

    from repro.bench import (
        ExecutorConfig,
        RunnerConfig,
        RunStore,
        SuiteExecutor,
        build_sweep_cases,
        merge_stores,
    )
    from repro.metrics.perf import PERF_HEADERS
    from repro.util.tables import render_table

    def show_state(state, title):
        records = state.perf_records()
        if records:
            rows = [r.as_row() for r in records]
            print(render_table(PERF_HEADERS, rows, title=title))
        else:
            print(f"{title}: no records")
        for fp, line in sorted(state.quarantined.items()):
            case = line["case"]
            print(
                f"  quarantined {fp} "
                f"({case['tensor']}/{case['kernel']}/{case['fmt']}"
                f"@{case['platform']}): "
                + "; ".join(f["detail"] for f in line["failures"])
            )
        if state.truncated_lines:
            print(f"  note: {state.truncated_lines} truncated line(s) ignored")

    if args.merge:
        state = merge_stores(args.merge, out_path=args.store)
        print(
            f"merged {len(args.merge)} store(s): {len(state.records)} records, "
            f"{len(state.quarantined)} quarantined -> {args.store}"
        )
        show_state(state, "merged sweep")
        return 1 if (args.strict and state.quarantined) else 0

    store = RunStore(args.store)
    if args.report:
        state = store.load()
        show_state(state, f"sweep store {args.store}")
        return 1 if (args.strict and state.quarantined) else 0

    config = RunnerConfig(
        rank=args.rank,
        measure_host=args.measure_host,
        cache_scale=args.scale,
        seed=args.seed,
    )
    cases = build_sweep_cases(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        keys=args.tensors,
        platforms=args.platforms,
        config=config,
    )
    faults = {}
    if args.faults:
        if args.faults.lstrip().startswith("{"):
            faults = json.loads(args.faults)
        else:
            with open(args.faults) as f:
                faults = json.load(f)
    executor = SuiteExecutor(
        cases,
        store,
        ExecutorConfig(
            shards=args.shards,
            shard_index=args.shard_index,
            timeout_s=args.timeout,
            retries=args.retries,
            resume=args.resume,
            isolation=args.isolation,
            faults=faults,
            workers=args.workers,
        ),
    )
    shard = executor.shard_cases()
    print(
        f"sweep: {len(cases)} case(s) enumerated, "
        f"shard {args.shard_index + 1}/{args.shards} covers {len(shard)}"
    )
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        from repro.obs.context import (
            TraceContext,
            install_context,
            new_trace_id,
        )

        context = TraceContext(trace_id=new_trace_id())
        tracer = Tracer(
            trace_id=context.trace_id,
            meta={"process": "sweep", "shard": args.shard_index},
        ).install()
        prev_context = install_context(context)
    try:
        report = executor.run()
    finally:
        if tracer is not None:
            from repro.obs import merge_traces, save_chrome

            tracer.uninstall()
            install_context(prev_context)
            trace = tracer.freeze()
            os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
            save_chrome(merge_traces(trace), args.trace)
            print(
                f"merged Chrome trace ({1 + len(trace.children)} process(es), "
                f"trace {context.trace_id}) -> {args.trace}"
            )
    print(report.render())
    print(f"run store -> {store.path}")
    if args.metrics:
        from repro.obs import get_metrics

        os.makedirs(os.path.dirname(args.metrics) or ".", exist_ok=True)
        with open(args.metrics, "w") as f:
            f.write(get_metrics().render_prometheus())
        print(f"metrics (Prometheus text) -> {args.metrics}")
    return 1 if (args.strict and report.quarantined) else 0


def _cmd_report(args) -> int:
    from repro.bench.report import report_from_store

    report = report_from_store(args.store)
    if report.nrecords == 0:
        _LOG.error("report.empty_store", store=args.store)
        return 1
    print(report.render(args.format))
    return 0


def _cmd_regress(args) -> int:
    import json

    from repro.bench.regress import RegressError, compare_paths

    try:
        report = compare_paths(
            args.a,
            args.b,
            threshold=args.threshold,
            confidence=args.confidence,
            resamples=args.resamples,
            min_pairs=args.min_pairs,
            seed=args.seed,
        )
    except RegressError as exc:
        _LOG.error("regress.failed", error=str(exc))
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _cmd_serve(args) -> int:
    import json

    from repro.serve import BenchService, ServeConfig

    faults = {}
    if args.faults:
        if args.faults.lstrip().startswith("{"):
            faults = json.loads(args.faults)
        else:
            with open(args.faults) as f:
                faults = json.load(f)
    service = BenchService(
        ServeConfig(
            socket_path=args.socket,
            store_path=args.store,
            workers=args.workers,
            isolation=args.isolation,
            timeout_s=args.timeout,
            retries=args.retries,
            faults=faults,
            metrics_port=args.metrics_port,
            trace_dir=args.trace_dir,
        )
    )

    def ready():
        records, quarantined = service.cache.counts()
        print(
            f"serving on {args.socket} (store {args.store}: {records} cached "
            f"record(s), {quarantined} quarantined; {args.workers} worker(s))",
            flush=True,
        )
        if args.trace_dir:
            print(f"request traces -> {args.trace_dir}", flush=True)
        if service.metrics_port_bound is not None:
            print(
                f"metrics (Prometheus) on http://127.0.0.1:"
                f"{service.metrics_port_bound}/metrics",
                flush=True,
            )

    service.serve_forever(ready=ready)
    return 0


def _cmd_client(args) -> int:
    import json

    from repro.serve import ServeError, wait_for_socket
    from repro.serve.client import ServeClient

    params = json.loads(args.params) if args.params else {}
    if args.wait:
        wait_for_socket(args.socket, timeout_s=args.wait)

    trace = None
    if args.trace or args.trace_id:
        from repro.obs.context import TraceContext, new_trace_id

        trace = TraceContext(
            trace_id=args.trace_id or new_trace_id()
        ).to_dict()
        _LOG.info("client.trace", trace_id=trace["trace_id"], op=args.op)

    def on_progress(payload):
        _LOG.info(
            "client.progress", op=args.op, done=payload["done"],
            total=payload["total"], hits=payload["hits"],
            pending=payload["pending"],
        )

    try:
        with ServeClient(args.socket, timeout_s=args.timeout) as client:
            payload = client.request(
                args.op, params, on_progress=on_progress, trace=trace
            )
    except ServeError as exc:
        _LOG.error("client.failed", op=args.op, error=str(exc))
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    # A regress verdict propagates like ``repro regress`` would exit.
    if args.op == "regress":
        return int(payload.get("exit_code", 0))
    return 0


def _cmd_health(args) -> int:
    import json

    from repro.serve import ServeError, wait_for_socket
    from repro.serve.client import ServeClient

    if args.wait:
        wait_for_socket(args.socket, timeout_s=args.wait)
    try:
        with ServeClient(args.socket, timeout_s=args.timeout) as client:
            health = client.request("health")
    except ServeError as exc:
        _LOG.error("health.failed", error=str(exc))
        return 2
    if args.json:
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0

    def pct(v):
        return f"{v * 100.0:.1f}%" if v is not None else "n/a"

    def ms(v):
        return f"{v * 1e3:.2f}ms" if v is not None else "n/a"

    lat = health["request_seconds"]
    print(f"daemon on {args.socket} (protocol v{health['protocol']})")
    print(
        f"  uptime   {health['uptime_s']:.1f}s | store {health['store']}: "
        f"{health['records']} record(s), {health['quarantined']} quarantined"
    )
    print(
        f"  cache    {health['cache_hits']} hit(s) / "
        f"{health['cache_misses']} miss(es) "
        f"(hit rate {pct(health['cache_hit_rate'])})"
    )
    print(
        f"  pool     {health['workers']} worker(s), "
        f"{health['inflight']} in flight, {health['queued']} queued, "
        f"{health['steals']} steal(s)"
    )
    print(
        f"  requests {health['requests']} served, {health['errors']} error(s)"
    )
    print(
        f"  latency  n={lat['count']} p50 {ms(lat['p50'])} "
        f"p95 {ms(lat['p95'])} p99 {ms(lat['p99'])} "
        f"(total {lat['sum']:.3f}s)"
    )
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.obs import MetricsRegistry, get_metrics

    registry = get_metrics()
    if args.store:
        # Rebuild sweep counters/latencies from a journal, so the dump
        # works offline (a fresh CLI process has an empty registry).
        from repro.bench import RunStore

        registry = MetricsRegistry()
        state = RunStore(args.store).load()
        for line in state.records.values():
            case = line["case"]
            labels = {
                "kernel": case["kernel"], "fmt": case["fmt"],
                "platform": case["platform"],
            }
            registry.inc("exec.completed", **labels)
            registry.observe(
                "exec.case_seconds", float(line.get("elapsed_s", 0.0)), **labels
            )
        for line in state.quarantined.values():
            case = line["case"]
            registry.inc(
                "exec.quarantined", kernel=case["kernel"], fmt=case["fmt"],
                platform=case["platform"],
            )
    if args.format == "json":
        print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(registry.render_prometheus())
    return 0


def _cmd_convert(args) -> int:
    from repro.sptensor import (
        HiCOOTensor,
        block_stats,
        load_npz,
        read_tns,
        save_npz,
        summarize,
        write_tns,
    )

    tensor = load_npz(args.input) if args.input.endswith(".npz") else read_tns(args.input)
    s = summarize(tensor, os.path.basename(args.input))
    print(
        f"{s.name}: order {s.order}, shape {s.shape}, nnz {s.nnz}, "
        f"density {s.density:.3e}, fibers/mode {s.fibers_per_mode}"
    )
    h = HiCOOTensor.from_coo(tensor, args.block_size)
    bs = block_stats(h)
    print(
        f"COO {tensor.nbytes} B | HiCOO {h.nbytes} B "
        f"(ratio {h.compression_ratio():.2f}, nb {bs.nblocks}, "
        f"alpha {bs.alpha:.2f})"
    )
    if args.output:
        if args.output.endswith(".npz"):
            save_npz(tensor, args.output)
        else:
            write_tns(tensor, args.output)
        print(f"wrote -> {args.output}")
    return 0


def _cmd_trace(args) -> int:
    import numpy as np

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
    from repro.obs import (
        Tracer,
        analyze,
        flame_summary,
        merge_traces,
        save_chrome,
        write_jsonl,
    )
    from repro.parallel import OpenMPBackend
    from repro.sptensor import HiCOOTensor, load_npz, read_tns
    from repro.util.prng import rng_from_seed

    if args.input:
        coo = (
            load_npz(args.input)
            if args.input.endswith(".npz")
            else read_tns(args.input)
        ).sort()
        name = os.path.basename(args.input)
    else:
        from repro.generate import powerlaw_tensor

        coo = powerlaw_tensor(
            args.shape, args.nnz, dense_modes=(len(args.shape) - 1,),
            seed=args.seed,
        ).sort()
        name = f"powerlaw{tuple(args.shape)}"
    x = coo if args.fmt == "coo" else HiCOOTensor.from_coo(coo, args.block_size)
    rng = rng_from_seed(args.seed)
    mats = [rng.random((s, args.rank)).astype(np.float32) for s in coo.shape]
    vec = rng.random(coo.shape[args.mode]).astype(np.float32)

    backend = OpenMPBackend(nthreads=args.nthreads)
    tier = args.tier
    kernels = {
        "mttkrp": {
            "coo": lambda be: coo_mttkrp(
                coo, mats, args.mode, be,
                method=args.method, schedule=args.schedule, tier=tier,
            ),
            "hicoo": lambda be: hicoo_mttkrp(
                x, mats, args.mode, be,
                method=args.method, schedule=args.schedule, tier=tier,
            ),
        },
        "ttv": {
            "coo": lambda be: coo_ttv(
                coo, vec, args.mode, be, schedule=args.schedule, tier=tier
            ),
            "hicoo": lambda be: hicoo_ttv(
                x, vec, args.mode, be, schedule=args.schedule, tier=tier
            ),
        },
        "ttm": {
            "coo": lambda be: coo_ttm(
                coo, mats[args.mode], args.mode, be,
                schedule=args.schedule, tier=tier,
            ),
            "hicoo": lambda be: hicoo_ttm(
                x, mats[args.mode], args.mode, be,
                schedule=args.schedule, tier=tier,
            ),
        },
        "tew": {
            "coo": lambda be: coo_tew(
                coo, coo, "add", be, assume_same_pattern=True, tier=tier
            ),
            "hicoo": lambda be: hicoo_tew(
                x, x, "add", be, assume_same_pattern=True, tier=tier
            ),
        },
        "ts": {
            "coo": lambda be: coo_ts(coo, 1.5, "mul", be, tier=tier),
            "hicoo": lambda be: hicoo_ts(x, 1.5, "mul", be, tier=tier),
        },
    }
    fn = kernels[args.kernel][args.fmt]
    tracer = Tracer(
        meta={
            "tensor": name,
            "kernel": args.kernel,
            "fmt": args.fmt,
            "nthreads": args.nthreads,
            "schedule": args.schedule,
            "tier": tier or "default",
        }
    )
    try:
        with tracer:
            for _ in range(args.repeats):
                fn(backend)
    finally:
        backend.shutdown()
    trace = tracer.freeze()
    stats = analyze(trace)

    # Stamp roofline attribution onto the kernel spans so the Chrome
    # export shows bound-fraction / boundedness per span.
    from repro.obs import CAT_KERNEL, attach_to_trace, attribute
    from repro.roofline import RooflineModel, get_platform
    from repro.roofline.oi import cost_for, extract_features
    from repro.types import Format, Kernel

    attribution = None
    kernel_spans = trace.spans(CAT_KERNEL)
    if kernel_spans:
        features = extract_features(
            coo, name, args.block_size,
            x if args.fmt == "hicoo" else None,
        )
        cost = cost_for(
            features, Kernel.coerce(args.kernel), Format.coerce(args.fmt),
            args.rank,
        )
        host_s = sum(s.duration_s for s in kernel_spans) / len(kernel_spans)
        attribution = attribute(
            RooflineModel(get_platform(args.platform)), cost, host_s, host_s
        )
        attach_to_trace(trace, attribution)

    print(
        f"traced {args.kernel}/{args.fmt} on {name} "
        f"(nnz {coo.nnz}, {args.nthreads} threads, {args.schedule})"
    )
    print()
    print(stats.render())
    if attribution is not None:
        print()
        print(
            f"roofline ({attribution.platform}): host-time bound fraction "
            f"{attribution.bound_fraction:.3f} of {attribution.bound_gflops:.2f} "
            f"GFLOPS bound, {attribution.boundedness}-bound "
            f"(OI {attribution.oi:.3f} vs ridge {attribution.ridge_oi:.2f}), "
            f"effective DRAM bw {attribution.effective_bw_gbs:.2f} GB/s"
        )
    if args.flame:
        print()
        print(flame_summary(trace))
    os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
    save_chrome(merge_traces(trace), args.output)
    print(f"\nsaved Chrome trace ({len(trace.events)} events) -> {args.output}")
    print("  (open in Perfetto / chrome://tracing)")
    if args.jsonl:
        os.makedirs(os.path.dirname(args.jsonl) or ".", exist_ok=True)
        write_jsonl(trace, args.jsonl)
        print(f"saved JSON-lines events -> {args.jsonl}")
    return 0


def _cmd_ingest_bench(args) -> int:
    import json as _json

    from repro.ingest import (
        IngestConfig,
        IngestError,
        run_ingest_bench,
        verify_window_state,
    )
    from repro.obs import Tracer, get_metrics, save_chrome

    config = IngestConfig(
        shape=tuple(args.shape),
        events=args.events,
        batch=args.batch,
        window=args.window,
        workers=args.workers,
        queue_depth=args.queue_depth,
        query_every=args.query_every,
        rank=args.rank,
        alpha=args.alpha,
        seed=args.seed,
        block_size=args.block_size,
        worker_lifetime=args.worker_lifetime,
        platform=args.platform,
        fail_at_batch=args.fail_at_batch,
    )
    query_backend = None
    if args.chaos:
        from repro.parallel import ChaosBackend

        query_backend = ChaosBackend(
            seed=args.chaos_seed, churn=True, failure_rate=args.chaos_fail
        )
    tracer = Tracer(meta={"bench": "ingest", "fingerprint": config.fingerprint})
    rc = 0
    try:
        with tracer:
            result = run_ingest_bench(
                config,
                store=args.store,
                resume=args.resume,
                query_backend=query_backend,
            )
    except IngestError as exc:
        _LOG.error("ingest_bench.failed", error=str(exc))
        if args.store:
            _LOG.warn(
                "ingest_bench.quarantined", store=args.store,
                hint="re-run with --resume to retry and clear it",
            )
        return 1
    finally:
        if args.trace:
            os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
            save_chrome(tracer.freeze(), args.trace)
            _LOG.info("ingest_bench.trace_saved", path=args.trace)
        if args.metrics:
            os.makedirs(os.path.dirname(args.metrics) or ".", exist_ok=True)
            with open(args.metrics, "w") as f:
                f.write(get_metrics().render_prometheus())
            _LOG.info("ingest_bench.metrics_saved", path=args.metrics)
    # In --json mode stdout carries only the JSON document; everything
    # else (verify verdicts, journaling notes) becomes structured log
    # records on stderr so stdout stays machine-readable.
    if args.verify:
        ok, detail = verify_window_state(result)
        if not ok:
            if args.json:
                _LOG.error("ingest_bench.verify_failed", detail=detail)
            else:
                print(f"VERIFY FAILED: window state diverged: {detail}")
            rc = 1
        elif args.json:
            _LOG.info("ingest_bench.verified", detail=detail)
        else:
            print(f"verify: window state matches serial replay — {detail}")
    if args.json:
        print(_json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if args.store:
        if args.json:
            _LOG.info(
                "ingest_bench.journaled",
                records=len(result.records), store=args.store,
            )
        else:
            print(f"journaled {len(result.records)} records -> {args.store}")
    return rc


def _cmd_tune(args) -> int:
    from repro.roofline import get_platform
    from repro.sptensor import load_npz, read_tns
    from repro.tune import recommend_format

    tensor = (
        load_npz(args.input)
        if args.input.endswith(".npz")
        else read_tns(args.input)
    )
    rec = recommend_format(
        tensor, kernels=args.kernels, platform=get_platform(args.platform)
    )
    print(rec)
    return 0


def _cmd_selfcheck(args) -> int:
    from repro.sptensor import COOTensor, load_npz, read_tns
    from repro.validate import validate_tensor

    if args.input:
        tensor = (
            load_npz(args.input)
            if args.input.endswith(".npz")
            else read_tns(args.input)
        )
        name = os.path.basename(args.input)
    else:
        tensor = COOTensor.random(args.shape, args.nnz, rng=args.seed)
        name = f"random{tuple(args.shape)}"
    report = validate_tensor(tensor, name=name, seed=args.seed)
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pasta-bench",
        description="Parallel sparse tensor benchmark suite (PPoPP'20 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="suite and platform information")
    p_info.add_argument("--ert", action="store_true", help="run host ERT micro-kernels")
    p_info.set_defaults(func=_cmd_info)

    p_gen = sub.add_parser("generate", help="generate a synthetic tensor")
    p_gen.add_argument("--kind", choices=["kron", "pl", "table3", "table2"], required=True)
    p_gen.add_argument("--shape", type=int, nargs="+", help="dimensions (kron/pl)")
    p_gen.add_argument("--nnz", type=int, help="non-zeros (kron/pl)")
    p_gen.add_argument("--alpha", type=float, default=2.0, help="power-law exponent")
    p_gen.add_argument("--dense-modes", type=int, nargs="*", help="uniform modes (pl)")
    p_gen.add_argument("--name", help="registry name for table2/table3 kinds")
    p_gen.add_argument("--scale", type=float, default=1000.0, help="downscale factor")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True, help=".tns or .npz path")
    p_gen.set_defaults(func=_cmd_generate)

    p_bench = sub.add_parser("bench", help="reproduce a paper table/figure")
    p_bench.add_argument(
        "--exp",
        required=True,
        choices=[
            "table1", "table2", "table3", "table4",
            "fig3", "fig4", "fig5", "fig6", "fig7", "observations",
            "sweep-nnz", "sweep-rank", "sweep-density", "sweep-blocksize",
        ],
    )
    p_bench.add_argument("--scale", type=float, default=1000.0)
    p_bench.add_argument("--dataset", choices=["real", "synthetic", "both"], default="both")
    p_bench.add_argument("--tensors", nargs="*", help="restrict to these tensors")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", help="also save the rows to this CSV path")
    p_bench.add_argument(
        "--chart", action="store_true",
        help="render performance figures as ASCII bar charts",
    )
    p_bench.add_argument(
        "--trace", metavar="PATH",
        help="record a span trace of the experiment and save it in Chrome "
        "trace-event format to PATH",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        help="run one kernel under the span tracer; export a Chrome trace "
        "and print per-worker busy time / load imbalance",
    )
    p_trace.add_argument("input", nargs="?", help=".tns/.npz file (optional)")
    p_trace.add_argument(
        "--kernel", default="mttkrp",
        choices=["tew", "ts", "ttv", "ttm", "mttkrp"],
    )
    p_trace.add_argument("--fmt", choices=["coo", "hicoo"], default="coo")
    p_trace.add_argument("--mode", type=int, default=0)
    p_trace.add_argument("--rank", type=int, default=16)
    p_trace.add_argument(
        "--method", default="atomic", choices=["atomic", "sort", "owner"],
        help="Mttkrp scatter method",
    )
    p_trace.add_argument("--nthreads", type=int, default=4)
    p_trace.add_argument(
        "--schedule", default="dynamic",
        choices=["static", "dynamic", "guided"],
    )
    p_trace.add_argument("--block-size", type=int, default=128)
    p_trace.add_argument(
        "--tier", default=None, choices=["numpy", "compiled"],
        help="execution tier (default: numpy)",
    )
    p_trace.add_argument("--repeats", type=int, default=1)
    p_trace.add_argument(
        "--platform", default="Bluesky",
        help="paper platform whose roofline attributes the kernel spans",
    )
    p_trace.add_argument("--shape", type=int, nargs="+", default=[500, 400, 30])
    p_trace.add_argument("--nnz", type=int, default=20000)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "-o", "--output", default="trace.json",
        help="Chrome trace-event JSON output path",
    )
    p_trace.add_argument("--jsonl", help="also write raw events as JSON lines")
    p_trace.add_argument(
        "--flame", action="store_true",
        help="print a folded-stack flame summary",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_ingest = sub.add_parser(
        "ingest-bench",
        help="live streaming-ingestion benchmark: seeded generator vs "
        "concurrent window ingestion vs periodic kernel queries, with "
        "backpressure, churn, chaos, and run-store journaling",
    )
    p_ingest.add_argument(
        "--shape", type=int, nargs="+", default=[512, 512, 16]
    )
    p_ingest.add_argument(
        "--events", type=int, default=100_000,
        help="total events the generator emits",
    )
    p_ingest.add_argument(
        "--batch", type=int, default=4096, help="events per batch"
    )
    p_ingest.add_argument(
        "--window", type=int, default=8, help="live window length in batches"
    )
    p_ingest.add_argument(
        "--workers", type=int, default=4, help="concurrent ingest workers"
    )
    p_ingest.add_argument(
        "--queue-depth", type=int, default=8,
        help="bounded generator queue depth (backpressure bound)",
    )
    p_ingest.add_argument(
        "--query-every", type=int, default=8,
        help="batches between query rounds (0 disables queries)",
    )
    p_ingest.add_argument("--rank", type=int, default=8)
    p_ingest.add_argument("--alpha", type=float, default=2.0)
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--block-size", type=int, default=32)
    p_ingest.add_argument(
        "--worker-lifetime", type=int, default=0,
        help="batches per worker before it retires and a replacement "
        "spawns (worker churn; 0 = stable workers)",
    )
    p_ingest.add_argument("--platform", default="Bluesky")
    p_ingest.add_argument(
        "--chaos", action="store_true",
        help="run queries on a ChaosBackend (adversarial scheduling plus "
        "injected query failures)",
    )
    p_ingest.add_argument("--chaos-fail", type=float, default=0.0)
    p_ingest.add_argument("--chaos-seed", type=int, default=0)
    p_ingest.add_argument(
        "--fail-at-batch", type=int, default=0,
        help="inject an ingest failure at this 1-based batch (CI smoke)",
    )
    p_ingest.add_argument(
        "--store", help="journal PerfRecords to this run-store JSONL"
    )
    p_ingest.add_argument(
        "--resume", action="store_true",
        help="serve a completed scenario from --store without re-running",
    )
    p_ingest.add_argument(
        "--verify", action="store_true",
        help="check the final window against a serial replay "
        "(bit-exact); exit 1 on divergence",
    )
    p_ingest.add_argument("--trace", help="write a Chrome trace to PATH")
    p_ingest.add_argument(
        "--metrics", help="write the metrics registry (Prometheus text) to PATH"
    )
    p_ingest.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )
    p_ingest.set_defaults(func=_cmd_ingest_bench)

    p_sweep = sub.add_parser(
        "sweep",
        help="resilient sharded suite sweep: warm worker subprocesses, "
        "timeout, retry/quarantine, JSONL checkpoint store with resume/merge",
    )
    p_sweep.add_argument(
        "--dataset", choices=["real", "synthetic", "both"], default="synthetic"
    )
    p_sweep.add_argument(
        "--tensors", nargs="*",
        help="restrict to these registry keys/names (r1.., s1.., vast, irrS, ...)",
    )
    p_sweep.add_argument("--platforms", nargs="+", default=["Bluesky"])
    p_sweep.add_argument("--scale", type=float, default=1000.0)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--rank", type=int, default=16)
    p_sweep.add_argument(
        "--shards", type=int, default=1,
        help="partition the case list into this many disjoint shards",
    )
    p_sweep.add_argument(
        "--shard-index", type=int, default=0,
        help="which shard this invocation runs (0-based)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-case wall-clock budget in seconds (worker is killed past it)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=2,
        help="re-attempts (exponential backoff) before quarantining a case",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1,
        help="concurrent case workers inside this shard (> 1 enables the "
        "work-stealing pool; records stay bit-identical to --workers 1)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip cases already journaled in --store",
    )
    p_sweep.add_argument(
        "--store", default="results/sweep.jsonl",
        help="append-only JSONL run store (checkpoint journal)",
    )
    p_sweep.add_argument(
        "--isolation", choices=["process", "inline"], default="process",
        help="process = warm worker subprocess per executor thread "
        "(default); inline = in-process",
    )
    p_sweep.add_argument(
        "--faults", metavar="JSON",
        help="fault-injection table (inline JSON object or a path to one) "
        "for resilience testing/CI smoke",
    )
    p_sweep.add_argument(
        "--measure-host", action="store_true",
        help="also measure host wall-clock (off by default: nondeterministic "
        "timings break shard/resume record equality)",
    )
    p_sweep.add_argument(
        "--merge", nargs="+", metavar="STORE",
        help="merge these shard stores into --store and print the report",
    )
    p_sweep.add_argument(
        "--report", action="store_true",
        help="print the report of an existing --store without running",
    )
    p_sweep.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any case is quarantined",
    )
    p_sweep.add_argument(
        "--metrics", metavar="PATH",
        help="after the run, write the metrics registry (Prometheus text) "
        "to PATH",
    )
    p_sweep.add_argument(
        "--trace", metavar="PATH",
        help="run the sweep under a minted trace context and write one "
        "merged Chrome trace (parent + adopted worker-subprocess spans) "
        "to PATH",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser(
        "report",
        help="fold a run store into paper-style Observation 1-5 tables",
    )
    p_report.add_argument(
        "--store", required=True,
        help="run-store JSONL journal to report on",
    )
    p_report.add_argument(
        "--format", choices=["text", "markdown", "json"], default="text",
    )
    p_report.set_defaults(func=_cmd_report)

    p_regress = sub.add_parser(
        "regress",
        help="compare two run stores per (kernel, fmt, method) group; "
        "exit nonzero on a confident regression",
    )
    p_regress.add_argument("a", help="baseline run store (JSONL)")
    p_regress.add_argument("b", help="candidate run store (JSONL)")
    p_regress.add_argument(
        "--threshold", type=float, default=1.05,
        help="geomean-ratio band edge: regressed if the CI sits wholly "
        "above this (default 1.05 = 5%% slower)",
    )
    p_regress.add_argument(
        "--confidence", type=float, default=0.95,
        help="bootstrap confidence level (default 0.95)",
    )
    p_regress.add_argument(
        "--resamples", type=int, default=1000,
        help="bootstrap resamples per group (default 1000)",
    )
    p_regress.add_argument(
        "--min-pairs", type=int, default=2,
        help="fewer matched pairs than this = insufficient-data (never gates)",
    )
    p_regress.add_argument("--seed", type=int, default=0, help="bootstrap RNG seed")
    p_regress.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    p_regress.set_defaults(func=_cmd_regress)

    p_serve = sub.add_parser(
        "serve",
        help="benchmark-as-a-service daemon: fingerprint-keyed result "
        "cache over a run store, single-flight deduplication, and a "
        "work-stealing execution pool behind a local-socket JSON-lines "
        "protocol",
    )
    p_serve.add_argument(
        "--socket", required=True, help="Unix socket path to listen on"
    )
    p_serve.add_argument(
        "--store", default="results/serve.jsonl",
        help="run-store JSONL journal backing the result cache",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="work-stealing pool width for cache-miss execution",
    )
    p_serve.add_argument(
        "--isolation", choices=["process", "inline"], default="inline",
        help="per-case isolation of executed cases (inline default: the "
        "daemon is long-lived and local)",
    )
    p_serve.add_argument("--timeout", type=float, default=120.0)
    p_serve.add_argument("--retries", type=int, default=2)
    p_serve.add_argument(
        "--faults", metavar="JSON",
        help="fault-injection table (inline JSON or a path), as for sweep",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="expose Prometheus metrics over HTTP on this TCP port "
        "(0 = ephemeral)",
    )
    p_serve.add_argument(
        "--trace-dir", metavar="DIR",
        help="trace every request and write one merged Chrome trace "
        "(daemon + scheduler + worker-subprocess spans) per request "
        "into DIR",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="send one request to a running serve daemon; prints the "
        "result payload as JSON (progress to stderr)",
    )
    p_client.add_argument(
        "--socket", required=True, help="Unix socket of the daemon"
    )
    p_client.add_argument(
        "op", choices=["sweep", "report", "regress", "status", "health"],
    )
    p_client.add_argument(
        "--trace", action="store_true",
        help="mint a trace context and send it with the request, so a "
        "daemon running --trace-dir folds this request into one "
        "client-correlated merged trace",
    )
    p_client.add_argument(
        "--trace-id", metavar="ID",
        help="propagate this exact trace id instead of minting one "
        "(implies --trace)",
    )
    p_client.add_argument(
        "--params", metavar="JSON",
        help='request params as inline JSON, e.g. \'{"tensors": ["r1"]}\'',
    )
    p_client.add_argument(
        "--timeout", type=float, default=None,
        help="socket timeout in seconds (default: block indefinitely)",
    )
    p_client.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to this long for the daemon socket to accept",
    )
    p_client.set_defaults(func=_cmd_client)

    p_health = sub.add_parser(
        "health",
        help="scrape live health telemetry from a running serve daemon: "
        "uptime, cache hit rate, pool state, request latency p50/p95/p99",
    )
    p_health.add_argument(
        "--socket", required=True, help="Unix socket of the daemon"
    )
    p_health.add_argument(
        "--timeout", type=float, default=None,
        help="socket timeout in seconds (default: block indefinitely)",
    )
    p_health.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to this long for the daemon socket to accept",
    )
    p_health.add_argument(
        "--json", action="store_true", help="print the raw payload as JSON"
    )
    p_health.set_defaults(func=_cmd_health)

    p_metrics = sub.add_parser(
        "metrics",
        help="dump the metrics registry (Prometheus text or JSON), "
        "optionally reconstructed from a run store",
    )
    p_metrics.add_argument(
        "--store",
        help="rebuild sweep counters/latency histograms from this run-store "
        "journal instead of dumping the (empty) in-process registry",
    )
    p_metrics.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_conv = sub.add_parser("convert", help="convert/inspect a tensor file")
    p_conv.add_argument("input", help=".tns or .npz file")
    p_conv.add_argument("-o", "--output", help="output .tns or .npz path")
    p_conv.add_argument("--block-size", type=int, default=128)
    p_conv.set_defaults(func=_cmd_convert)

    p_tune = sub.add_parser(
        "tune",
        help="recommend a format and block size for a tensor file",
    )
    p_tune.add_argument("input", help=".tns or .npz file")
    p_tune.add_argument(
        "--kernels", nargs="+", default=["mttkrp"],
        choices=["tew", "ts", "ttv", "ttm", "mttkrp"],
    )
    p_tune.add_argument("--platform", default="Bluesky")
    p_tune.set_defaults(func=_cmd_tune)

    p_check = sub.add_parser(
        "selfcheck",
        help="cross-format/kernel consistency check on a tensor file or "
        "a generated tensor",
    )
    p_check.add_argument("input", nargs="?", help=".tns/.npz file (optional)")
    p_check.add_argument("--shape", type=int, nargs="+", default=[60, 50, 40])
    p_check.add_argument("--nnz", type=int, default=2000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.kind in ("kron", "pl"):
        if not args.shape or not args.nnz:
            parser.error("--shape and --nnz are required for kron/pl generation")
    if args.command == "generate" and args.kind in ("table2", "table3") and not args.name:
        parser.error("--name is required for table2/table3 generation")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
