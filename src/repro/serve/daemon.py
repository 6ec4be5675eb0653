"""The benchmark daemon: an asyncio cache front over the sweep executor.

``BenchService`` listens on a local Unix socket speaking the JSON-lines
protocol (:mod:`repro.serve.protocol`).  Many clients connect at once
and each connection multiplexes many in-flight requests; every request
is served from three layers:

1. **cache** — fingerprints with a journaled record answer straight from
   the :class:`~repro.serve.cache.ResultCache` (O(1), no execution);
2. **single-flight** — fingerprints already executing for another
   request coalesce onto that execution;
3. **pool** — genuinely new fingerprints queue onto the work-stealing
   pool (:class:`~repro.serve.scheduler.StealScheduler`), which drives
   them through the same :class:`~repro.bench.executor.CaseRunner`
   retry/quarantine state machine as ``repro sweep``.

Every execution journals through the :class:`~repro.bench.runstore.RunStore`
*before* the cache and the scheduler publish it, so a daemon killed
mid-sweep loses nothing journaled: restart it on the same store and the
journaled cases are cache hits while the rest re-execute — the final
store is identical to an uninterrupted run (case seeds derive from
fingerprints, never from scheduling).

Observability: ``serve.*`` counters and the ``serve.request_seconds``
histogram stream through the process metrics registry, scrapeable live
from the optional HTTP endpoint (``metrics_port``) in Prometheus text
format, and summarized by the ``status`` op.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.bench.executor import CaseRunner, ExecutorConfig, build_sweep_cases
from repro.bench.runner import RunnerConfig
from repro.bench.runstore import RunStore
from repro.obs.context import TraceContext, activate_context, derive_span_id, new_trace_id
from repro.obs.export import merge_traces
from repro.obs.log import get_logger
from repro.obs.registry import get_metrics
from repro.obs.tracer import CAT_REQUEST, CAT_SCHED, Tracer, scoped_tracer
from repro.serve import protocol
from repro.serve.cache import ResultCache
from repro.serve.scheduler import StealScheduler


@dataclass
class ServeConfig:
    """Daemon wiring: where to listen, where to journal, how to execute."""

    socket_path: str
    store_path: str = "results/serve.jsonl"
    #: Work-stealing pool width.
    workers: int = 2
    #: ``"inline"`` (default: the daemon is long-lived and cases are
    #: trusted) or ``"process"``: each pool thread runs its cases in a
    #: warm worker subprocess, closed at daemon shutdown.
    isolation: str = "inline"
    timeout_s: float = 120.0
    retries: int = 2
    #: Fault-injection table, forwarded to the executor (tests/CI smoke).
    faults: dict = field(default_factory=dict)
    #: Seconds between streamed ``progress`` lines of a pending sweep.
    progress_interval_s: float = 0.25
    #: TCP port of the Prometheus scrape endpoint (``None`` disables,
    #: ``0`` picks an ephemeral port).
    metrics_port: "int | None" = None
    #: Directory receiving one merged Chrome trace per request
    #: (``None`` disables request tracing entirely — the default, so an
    #: untraced daemon pays nothing).
    trace_dir: "str | None" = None

    def executor_config(self) -> ExecutorConfig:
        return ExecutorConfig(
            timeout_s=self.timeout_s,
            retries=self.retries,
            isolation=self.isolation,
            faults=dict(self.faults),
            workers=self.workers,
        )


@dataclass
class _RequestTrace:
    """Per-request tracing state while a traced request is in flight."""

    #: The request's tracer; pool threads bind it via scoped_tracer().
    tracer: Tracer
    #: Context handed to executions: parent_span = the request span.
    context: TraceContext
    #: Span id of the ``serve.<op>`` request span.
    root_span: str
    #: Monotonic per-daemon sequence number (names the trace file).
    seq: int


async def _skip_line(reader, consumed: int) -> None:
    """Discard an over-limit line through its newline.

    ``readline`` would drop only the buffered part of such a line, and
    its tail would then parse as a second, bogus request; ``readuntil``
    leaves the bytes in place, so exactly the oversized line is skipped.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return  # EOF inside the line: the read loop sees it next


class BenchService:
    """One daemon instance: socket front end + cache + stealing pool."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = RunStore(config.store_path)
        self.cache = ResultCache(self.store)  # raises on a stale store
        self.runner = CaseRunner(config.executor_config())
        self._store_lock = threading.Lock()
        self.scheduler = StealScheduler(self._execute_case, workers=config.workers)
        self.metrics = get_metrics()
        self._stop = None  # asyncio.Event, created inside run()
        self._loop = None
        self._server = None
        self._connections = set()  # live (task, writer) pairs
        self._metrics_server = None
        #: Actual Prometheus endpoint port once bound (ephemeral-capable).
        self.metrics_port_bound: "int | None" = None
        self._log = get_logger("repro.serve")
        #: fingerprint -> (_RequestTrace, submit perf_counter) while a
        #: traced sweep's cases are in flight; read by pool threads.
        self._trace_routes: dict = {}
        self._trace_seq = 0
        self._started_monotonic: "float | None" = None

    # ------------------------------------------------------------------ #
    # execution (pool threads)
    # ------------------------------------------------------------------ #
    def _execute_case(self, case) -> bool:
        """Pool callback: run, journal, cache — in that order.

        The cache absorbs the journal line *before* this returns, i.e.
        before the scheduler removes the fingerprint from its live map —
        so at every instant a submitted fingerprint is a cache hit, an
        in-flight coalesce, or a fresh queue: never silently lost.

        When the fingerprint was registered by a traced request, the
        request's tracer and context bind to this pool thread for the
        duration, so the case/worker spans land in that request's trace.
        A coalesced case traces to whichever request queued it first.
        """
        route = self._trace_routes.get(case.fingerprint)
        if route is None:
            outcome = self.runner.run_case(
                case, self.store, store_lock=self._store_lock
            )
        else:
            rctx, t_submit = route
            with scoped_tracer(rctx.tracer), activate_context(rctx.context):
                with rctx.tracer.span(
                    "sched.execute",
                    cat=CAT_SCHED,
                    fingerprint=case.fingerprint,
                    wait_s=round(time.perf_counter() - t_submit, 6),
                ):
                    outcome = self.runner.run_case(
                        case, self.store, store_lock=self._store_lock
                    )
        self.cache.add(outcome.line)
        if not outcome.completed:
            self.metrics.inc("serve.quarantined")
            self._log.warn(
                "case.quarantined", fingerprint=case.fingerprint
            )
        return outcome.completed

    # ------------------------------------------------------------------ #
    # request handlers (asyncio)
    # ------------------------------------------------------------------ #
    async def _handle_sweep(self, params: dict, send, rctx=None) -> dict:
        scale = float(params.get("scale", 1000.0))
        seed = int(params.get("seed", 0))
        runner_config = RunnerConfig(
            rank=int(params.get("rank", 16)),
            measure_host=False,  # serving requires deterministic records
            cache_scale=scale,
            seed=seed,
        )
        cases = await asyncio.to_thread(
            build_sweep_cases,
            dataset=params.get("dataset", "synthetic"),
            scale=scale,
            seed=seed,
            keys=params.get("tensors"),
            platforms=tuple(params.get("platforms", ("Bluesky",))),
            config=runner_config,
        )
        # Route this request's tracer to the pool threads that will
        # execute its cases — registered *before* submit so no case can
        # start untraced; unregistered in the finally (own entries only,
        # so a concurrent request's routes survive).
        registered = []
        if rctx is not None:
            t_submit = time.perf_counter()
            for case in cases:
                if case.fingerprint not in self._trace_routes:
                    self._trace_routes[case.fingerprint] = (rctx, t_submit)
                    registered.append(case.fingerprint)
        try:
            # Hits / coalesces / queues classify atomically under the
            # scheduler lock (the cache probe runs inside submit), so a
            # case completing concurrently is a hit, never a duplicate
            # execution.
            ticket = self.scheduler.submit(cases, completed=self.cache.has)
            self.metrics.inc("serve.cache_hits", len(ticket.hits))
            self.metrics.inc(
                "serve.cache_misses", len(ticket.coalesced) + len(ticket.queued)
            )
            self.metrics.inc("serve.coalesced", len(ticket.coalesced))
            self.metrics.inc("serve.executed", len(ticket.queued))
            while True:
                finished = await asyncio.to_thread(
                    ticket.wait, self.config.progress_interval_s
                )
                if finished:
                    break
                await send(
                    {
                        "total": ticket.total,
                        "hits": len(ticket.hits),
                        "done": ticket.done_count(),
                        "pending": ticket.pending_count(),
                    }
                )
            completed, quarantined, records = [], [], []
            for fp in ticket.fingerprints:
                line = self.cache.lookup(fp)
                if line is not None:
                    completed.append(fp)
                    records.append(line["record"])
                else:
                    quarantined.append(fp)
            return {
                "total": ticket.total,
                "hits": len(ticket.hits),
                "misses": len(ticket.coalesced) + len(ticket.queued),
                "coalesced": len(ticket.coalesced),
                "executed": len(ticket.queued),
                "completed": completed,
                "quarantined": quarantined,
                "fingerprints": list(ticket.fingerprints),
                "records": records,
            }
        finally:
            for fp in registered:
                entry = self._trace_routes.get(fp)
                if entry is not None and entry[0] is rctx:
                    self._trace_routes.pop(fp, None)

    async def _handle_report(self, params: dict, send, rctx=None) -> dict:
        from repro.bench.report import build_report

        fmt = params.get("format", "text")
        records = self.cache.perf_records()
        report = await asyncio.to_thread(build_report, records)
        body = report.as_dict() if fmt == "json" else report.render(fmt)
        return {"format": fmt, "nrecords": len(records), "report": body}

    async def _handle_regress(self, params: dict, send, rctx=None) -> dict:
        from repro.bench.regress import compare_paths

        report = await asyncio.to_thread(
            compare_paths,
            params["baseline"],
            self.store.path,
            threshold=float(params.get("threshold", 1.05)),
            confidence=float(params.get("confidence", 0.95)),
            resamples=int(params.get("resamples", 1000)),
            min_pairs=int(params.get("min_pairs", 2)),
            seed=int(params.get("seed", 0)),
        )
        return {
            "baseline": params["baseline"],
            "candidate": self.store.path,
            "exit_code": report.exit_code,
            "report": report.as_dict(),
        }

    async def _handle_status(self, params: dict, send, rctx=None) -> dict:
        from repro.bench.runner import fingerprint_schema_version

        nrecords, nquarantined = self.cache.counts()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "store": self.store.path,
            "fingerprint_schema": fingerprint_schema_version(),
            "records": nrecords,
            "quarantined": nquarantined,
            "inflight": self.scheduler.inflight(),
            "workers": self.config.workers,
            "isolation": self.config.isolation,
            "counters": self.metrics.counter_totals(prefix="serve."),
        }

    async def _handle_health(self, params: dict, send, rctx=None) -> dict:
        nrecords, nquarantined = self.cache.counts()
        counters = self.metrics.counter_totals(prefix="serve.")
        hits = counters.get("serve.cache_hits", 0.0)
        misses = counters.get("serve.cache_misses", 0.0)
        lookups = hits + misses
        live = self.scheduler.inflight()
        queued = self.scheduler.queued()
        hist = self.metrics.as_dict()["histograms"].get(
            "serve.request_seconds", ()
        )
        quantiles = self.metrics.histogram_quantiles("serve.request_seconds")
        uptime = (
            0.0
            if self._started_monotonic is None
            else time.monotonic() - self._started_monotonic
        )
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": round(uptime, 3),
            "store": self.store.path,
            "records": nrecords,
            "quarantined": nquarantined,
            "inflight": max(0, live - queued),
            "queued": queued,
            "workers": self.config.workers,
            "steals": int(counters.get("serve.steals", 0.0)),
            "requests": int(counters.get("serve.requests", 0.0)),
            "errors": int(counters.get("serve.errors", 0.0)),
            "cache_hits": int(hits),
            "cache_misses": int(misses),
            # null, not a fake 0.0, before the first sweep touches the
            # cache (same convention as the stats helpers).
            "cache_hit_rate": (hits / lookups) if lookups else None,
            "request_seconds": {
                "count": int(sum(s["count"] for s in hist)),
                "sum": round(float(sum(s["sum"] for s in hist)), 6),
                **(quantiles or {"p50": None, "p95": None, "p99": None}),
            },
        }

    _HANDLERS = {
        protocol.OP_SWEEP: _handle_sweep,
        protocol.OP_REPORT: _handle_report,
        protocol.OP_REGRESS: _handle_regress,
        protocol.OP_STATUS: _handle_status,
        protocol.OP_HEALTH: _handle_health,
    }

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #
    def _request_trace(self, request: dict) -> "_RequestTrace | None":
        """Tracing state for one request, or ``None`` when disabled.

        With ``trace_dir`` set every request is traced: a client-provided
        context (the optional ``trace`` request field) joins the client's
        trace_id; without one the daemon mints a fresh id, so plain
        clients still produce complete merged traces.
        """
        if self.config.trace_dir is None:
            return None
        raw = request.get("trace")
        ctx = (
            TraceContext.from_dict(raw)
            if raw
            else TraceContext(trace_id=new_trace_id())
        )
        self._trace_seq += 1
        seq = self._trace_seq
        root_span = derive_span_id(ctx.trace_id, "request", seq, request["id"])
        tracer = Tracer(
            trace_id=ctx.trace_id,
            meta={"process": "daemon", "parent_span": ctx.parent_span},
        )
        return _RequestTrace(
            tracer=tracer, context=ctx.child(root_span),
            root_span=root_span, seq=seq,
        )

    def _write_trace(self, op: str, rctx: _RequestTrace) -> str:
        os.makedirs(self.config.trace_dir, exist_ok=True)
        trace = rctx.tracer.freeze()
        doc = merge_traces(trace, trace_id=rctx.tracer.trace_id)
        path = os.path.join(
            self.config.trace_dir,
            f"req-{rctx.seq:06d}-{op}-{rctx.tracer.trace_id}.json",
        )
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        return path

    async def _dispatch(self, request: dict, send) -> None:
        rid, op = request["id"], request["op"]
        self.metrics.inc("serve.requests", op=op)
        t0 = time.perf_counter()
        rctx = self._request_trace(request)
        ok = True

        async def send_progress(payload):
            await send(
                protocol.make_response(rid, protocol.KIND_PROGRESS, payload)
            )

        try:
            handler = self._HANDLERS[op]
            if rctx is None:
                payload = await handler(self, request["params"], send_progress)
            else:
                with rctx.tracer.span(
                    f"serve.{op}",
                    cat=CAT_REQUEST,
                    id=rid,
                    op=op,
                    span_id=rctx.root_span,
                ):
                    payload = await handler(
                        self, request["params"], send_progress, rctx
                    )
            await send(
                protocol.make_response(rid, protocol.KIND_RESULT, payload)
            )
        except Exception as exc:  # noqa: BLE001 - reported on the wire
            ok = False
            self.metrics.inc("serve.errors", op=op)
            self._log.error(
                "request.failed", op=op, id=rid,
                error=f"{type(exc).__name__}: {exc}",
            )
            await send(
                protocol.error_response(rid, f"{type(exc).__name__}: {exc}")
            )
        finally:
            elapsed = time.perf_counter() - t0
            self.metrics.observe("serve.request_seconds", elapsed, op=op)
            self._log.info(
                "request", op=op, id=rid, ok=ok, elapsed_s=round(elapsed, 6),
                **(
                    {"request_trace_id": rctx.tracer.trace_id}
                    if rctx is not None
                    else {}
                ),
            )
            if rctx is not None:
                try:
                    path = await asyncio.to_thread(self._write_trace, op, rctx)
                    self._log.debug("trace.written", path=path, op=op, id=rid)
                except OSError as exc:
                    self._log.error("trace.write_failed", error=str(exc))

    async def _client_connected(self, reader, writer) -> None:
        conn = (asyncio.current_task(), writer)
        self._connections.add(conn)
        self._log.debug("client.connected", connections=len(self._connections))
        write_lock = asyncio.Lock()
        inflight = set()

        async def send(obj: dict) -> None:
            async with write_lock:
                writer.write(protocol.encode(obj))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: an unterminated last line
                except asyncio.LimitOverrunError as exc:
                    await _skip_line(reader, exc.consumed)
                    self.metrics.inc("serve.errors", op="protocol")
                    self._log.warn(
                        "request.too_long", limit=protocol.MAX_LINE_BYTES
                    )
                    await send(protocol.error_response(
                        "?",
                        f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                    ))
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = protocol.validate_request(protocol.decode(line))
                except protocol.ProtocolError as exc:
                    self.metrics.inc("serve.errors", op="protocol")
                    rid = "?"
                    try:
                        rid = str(protocol.decode(line).get("id", "?"))
                    except protocol.ProtocolError:
                        pass
                    await send(protocol.error_response(rid, str(exc)))
                    continue
                task = asyncio.ensure_future(self._dispatch(request, send))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            self._connections.discard(conn)
            self._log.debug(
                "client.disconnected", connections=len(self._connections)
            )
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _metrics_scrape(self, reader, writer) -> None:
        """Minimal HTTP/1.0 Prometheus scrape endpoint (GET anything)."""
        try:
            while True:
                line = await reader.readline()
                if line in (b"", b"\r\n", b"\n"):
                    break
            body = self.metrics.render_prometheus().encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
        finally:
            writer.close()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Ask the serve loop to exit (thread/signal-safe once running)."""
        if self._stop is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    async def run(self, ready=None) -> None:
        """Serve until stopped; ``ready`` (a callable) fires once bound."""
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._started_monotonic = time.monotonic()
        self.scheduler.start()
        sock = self.config.socket_path
        os.makedirs(os.path.dirname(sock) or ".", exist_ok=True)
        if os.path.exists(sock):
            os.unlink(sock)  # stale socket from a killed daemon
        self._server = await asyncio.start_unix_server(
            self._client_connected, path=sock, limit=protocol.MAX_LINE_BYTES
        )
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._metrics_scrape, host="127.0.0.1",
                port=self.config.metrics_port,
            )
            self.metrics_port_bound = self._metrics_server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if ready is not None:
            ready()
        self._log.info(
            "daemon.started",
            socket=sock,
            store=self.store.path,
            workers=self.config.workers,
            isolation=self.config.isolation,
            trace_dir=self.config.trace_dir,
        )
        try:
            await self._stop.wait()
        finally:
            self._log.info("daemon.stopping")
            self._server.close()
            await self._server.wait_closed()
            if self._metrics_server is not None:
                self._metrics_server.close()
                await self._metrics_server.wait_closed()
            # Drain open connections instead of letting loop teardown
            # cancel their handler tasks mid-await: closing the writer
            # EOFs the reader, so each handler exits its read loop.
            for task, writer in list(self._connections):
                writer.close()
            tasks = [task for task, _ in self._connections]
            if tasks:
                await asyncio.wait(tasks, timeout=10)
            self.scheduler.shutdown()
            self.runner.close()
            if os.path.exists(sock):
                os.unlink(sock)

    def serve_forever(self, ready=None) -> None:
        """Blocking entry point (the ``repro serve`` CLI)."""
        asyncio.run(self.run(ready=ready))
