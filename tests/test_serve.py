"""Concurrency harness for the benchmark-serving layer.

The serving contract under fire:

* **single-flight** — N async clients submitting overlapping duplicate
  sweeps execute each fingerprint exactly once; duplicates coalesce
  onto the in-flight execution or hit the cache, never re-run;
* **cache-hit bit-identity** — a sweep answered from the cache returns
  records bit-identical to a cold ``SuiteExecutor`` run of the same
  cases (case seeds derive from fingerprints, never from scheduling);
* **work stealing** — an injected straggler's queued work migrates to
  the idle workers instead of idling behind it;
* **crash resume** — a daemon SIGKILLed mid-sweep restarts on the same
  journal and completes the sweep, the final store identical to an
  uninterrupted run's.
"""

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import (
    ExecutorConfig,
    RunnerConfig,
    RunStore,
    SuiteExecutor,
    build_sweep_cases,
)
from repro.serve import (
    BenchService,
    ResultCache,
    SchedulerError,
    ServeConfig,
    ServeError,
    StealScheduler,
    async_request,
    wait_for_socket,
)
from repro.serve.client import ServeClient

#: One tiny tensor x 5 kernels x 2 formats = 10 fast modeled cases.
SWEEP_PARAMS = {
    "dataset": "synthetic",
    "tensors": ["s1"],
    "scale": 8000.0,
    "seed": 0,
    "rank": 4,
}


def sweep_cases():
    """The exact case list the daemon enumerates for SWEEP_PARAMS."""
    config = RunnerConfig(
        rank=SWEEP_PARAMS["rank"],
        measure_host=False,
        cache_scale=SWEEP_PARAMS["scale"],
        seed=SWEEP_PARAMS["seed"],
    )
    return build_sweep_cases(
        dataset=SWEEP_PARAMS["dataset"],
        scale=SWEEP_PARAMS["scale"],
        seed=SWEEP_PARAMS["seed"],
        keys=SWEEP_PARAMS["tensors"],
        platforms=("Bluesky",),
        config=config,
    )


def reference_store(tmp_path, name="reference.jsonl"):
    """An uninterrupted serial run of the sweep — the bit-identity oracle."""
    store = RunStore(tmp_path / name)
    SuiteExecutor(
        sweep_cases(), store, ExecutorConfig(isolation="inline"),
        sleep=lambda s: None,
    ).run()
    return store.load()


def assert_stores_identical(state, reference):
    """Record payloads (and seeds) equal fingerprint-for-fingerprint."""
    assert set(state.records) == set(reference.records)
    for fp, line in reference.records.items():
        assert state.records[fp]["record"] == line["record"], fp
        assert state.records[fp]["seed"] == line["seed"], fp


class service_thread:
    """An in-process daemon on a background thread (context manager)."""

    def __init__(self, tmp_path, **overrides):
        overrides.setdefault("workers", 3)
        overrides.setdefault("progress_interval_s", 0.05)
        self.config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"),
            store_path=str(tmp_path / "serve.jsonl"),
            **overrides,
        )

    def __enter__(self) -> BenchService:
        from repro.obs import get_metrics

        get_metrics().clear()  # serve.* counters are process-global
        self.service = BenchService(self.config)
        self.thread = threading.Thread(
            target=self.service.serve_forever, daemon=True
        )
        self.thread.start()
        wait_for_socket(self.config.socket_path)
        return self.service

    def __exit__(self, *exc) -> bool:
        self.service.stop()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "daemon thread failed to stop"
        return False


# ---------------------------------------------------------------------- #
# single-flight under concurrent duplicate requests
# ---------------------------------------------------------------------- #


class TestSingleFlight:
    def test_duplicate_concurrent_sweeps_execute_each_case_once(self, tmp_path):
        # A "*" delay keeps every case in flight long enough that all
        # clients genuinely overlap, exercising coalescing (not just the
        # completed-case cache path).
        with service_thread(
            tmp_path, faults={"*": {"delay_s": 0.05}}
        ) as service:
            sock = service.config.socket_path

            async def hammer(n):
                return await asyncio.gather(
                    *[async_request(sock, "sweep", SWEEP_PARAMS) for _ in range(n)]
                )

            results = asyncio.run(hammer(6))
            total = results[0]["total"]
            assert total == 10
            for r in results:
                assert r["total"] == total
                assert not r["quarantined"]
                assert r["hits"] + r["coalesced"] + r["executed"] == total
            # the whole burst executed each fingerprint exactly once
            assert sum(r["executed"] for r in results) == total
            assert sum(r["coalesced"] for r in results) == 5 * total
            assert service.scheduler.executed == total

    def test_second_request_is_all_cache_hits(self, tmp_path):
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                cold = client.request("sweep", SWEEP_PARAMS)
                warm = client.request("sweep", SWEEP_PARAMS)
            assert cold["executed"] == cold["total"]
            assert warm["hits"] == warm["total"]
            assert warm["executed"] == 0 and warm["coalesced"] == 0
            assert warm["records"] == cold["records"]
            assert service.scheduler.executed == cold["total"]

    def test_status_counters_reflect_the_traffic(self, tmp_path):
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                client.request("sweep", SWEEP_PARAMS)
                client.request("sweep", SWEEP_PARAMS)
                status = client.request("status")
            counters = status["counters"]
            assert counters["serve.executed"] == 10.0
            assert counters["serve.cache_hits"] == 10.0
            assert status["records"] == 10
            assert status["inflight"] == 0
            assert status["workers"] == service.config.workers

    def test_error_response_for_bad_request(self, tmp_path):
        from repro.serve import ProtocolError

        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                # invalid at the client: never reaches the wire
                with pytest.raises(ProtocolError, match="baseline"):
                    client.request("regress", {})
                # valid on the wire, fails in the handler: error response
                with pytest.raises(ServeError, match="missing.jsonl"):
                    client.request(
                        "regress", {"baseline": str(tmp_path / "missing.jsonl")}
                    )
                # the connection survives the error for the next request
                assert client.request("status")["records"] == 0


    def test_over_limit_line_gets_an_error_and_the_connection_survives(
        self, tmp_path
    ):
        from repro.serve import protocol

        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                # Twice the limit: the daemon overruns before the newline
                # arrives, so the rest of the line must still be skipped.
                client._sock.sendall(b"x" * (2 * protocol.MAX_LINE_BYTES) + b"\n")
                error = protocol.validate_response(
                    protocol.decode(client._file.readline())
                )
                assert error["kind"] == protocol.KIND_ERROR
                assert "exceeds" in error["payload"]["error"]
                # exactly one error: the next valid request succeeds
                status = client.request("status")
        assert status["counters"]["serve.errors"] == 1.0
        assert status["records"] == 0

    def test_non_utf8_line_gets_an_error_and_the_connection_survives(
        self, tmp_path
    ):
        from repro.serve import protocol

        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                client._sock.sendall(b"\xff\xfe\n")
                error = protocol.validate_response(
                    protocol.decode(client._file.readline())
                )
                assert error["kind"] == protocol.KIND_ERROR
                assert error["id"] == "?"
                # the connection survives the error for the next request
                status = client.request("status")
            assert service.metrics.counter_value(
                "serve.errors", op="protocol"
            ) == 1.0
        assert status["counters"]["serve.errors"] == 1.0
        assert status["records"] == 0

    def test_result_line_over_64_kib_round_trips_async(self, tmp_path):
        from repro.serve import protocol

        # 3 tensors x 5 kernels x 2 formats x 4 platforms, ~0.7 KiB a
        # record: past asyncio's default 64 KiB stream limit.
        params = dict(
            SWEEP_PARAMS, tensors=["s1", "s2", "s3"],
            platforms=["Bluesky", "Wingtip", "DGX-1P", "DGX-1V"],
        )
        with service_thread(tmp_path, isolation="process", workers=2) as service:
            result = asyncio.run(
                async_request(service.config.socket_path, "sweep", params)
            )
        assert result["total"] == len(result["completed"]) == 120
        line = protocol.encode(protocol.make_response("1", "result", result))
        assert len(line) > 64 * 1024


# ---------------------------------------------------------------------- #
# cache-hit bit-identity against a cold executor run
# ---------------------------------------------------------------------- #


class TestCacheBitIdentity:
    def test_served_sweep_equals_cold_executor_run(self, tmp_path):
        reference = reference_store(tmp_path)
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                served = client.request("sweep", SWEEP_PARAMS)
            store_state = RunStore(service.config.store_path).load()
        assert_stores_identical(store_state, reference)
        # the wire payload carries the same records, in case order
        order = [c.fingerprint for c in sweep_cases()]
        assert served["fingerprints"] == order
        assert served["records"] == [
            reference.records[fp]["record"] for fp in order
        ]

    def test_cache_hits_replay_journaled_records_verbatim(self, tmp_path):
        reference = reference_store(tmp_path)
        with service_thread(tmp_path) as service:
            sock = service.config.socket_path
            with ServeClient(sock) as client:
                client.request("sweep", SWEEP_PARAMS)
            with ServeClient(sock) as client:  # fresh connection, warm cache
                warm = client.request("sweep", SWEEP_PARAMS)
        order = [c.fingerprint for c in sweep_cases()]
        assert warm["hits"] == len(order)
        assert warm["records"] == [
            reference.records[fp]["record"] for fp in order
        ]

    def test_record_supersedes_quarantine_on_reserve(self, tmp_path):
        # A quarantined case is a cache MISS: a later request retries it,
        # and the eventual success supersedes the quarantine — the
        # record-supersedes-quarantine rule, preserved through serving.
        cases = sweep_cases()[:1]
        store = RunStore(tmp_path / "serve.jsonl")
        SuiteExecutor(
            cases, store,
            ExecutorConfig(
                isolation="inline", retries=0,
                faults={"*": {"fail_attempts": 99}},
            ),
            sleep=lambda s: None,
        ).run()
        assert store.load().quarantined
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                result = client.request("sweep", SWEEP_PARAMS)
            assert not result["quarantined"]
            state = RunStore(service.config.store_path).load()
        assert not state.quarantined
        assert cases[0].fingerprint in state.records


# ---------------------------------------------------------------------- #
# work stealing under an injected straggler
# ---------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class FakeCase:
    fingerprint: str
    delay_s: float = 0.0


class TestWorkStealing:
    def test_straggler_work_migrates_to_idle_workers(self):
        # Round-robin homing puts the straggler plus 3 fast cases on
        # worker 0; worker 1 drains its own 4 fast cases while worker 0
        # sleeps, then steals worker 0's queued tail.
        cases = [FakeCase("straggler", delay_s=1.5)] + [
            FakeCase(f"fast{i}", delay_s=0.01) for i in range(7)
        ]
        executed = []
        lock = threading.Lock()

        def run_case(case):
            time.sleep(case.delay_s)
            with lock:
                executed.append(case.fingerprint)
            return True

        scheduler = StealScheduler(run_case, workers=2).start()
        try:
            ticket = scheduler.submit(cases)
            assert ticket.wait(timeout=30)
        finally:
            scheduler.shutdown()
        assert sorted(executed) == sorted(c.fingerprint for c in cases)
        assert ticket.completed() == {c.fingerprint for c in cases}
        # worker 0 spent the run inside the straggler; its queued cases
        # were stolen and completed by worker 1
        assert scheduler.steals >= 3
        assert scheduler.completions[1] >= 6
        assert scheduler.completions[0] <= 2

    def test_steal_takes_victim_tail_not_head(self):
        # One worker hogs a long case; the other steals. With FIFO-own /
        # steal-from-tail, the victim's LAST queued case is taken first.
        order = []
        lock = threading.Lock()
        release = threading.Event()

        def run_case(case):
            if case.fingerprint == "hog":
                release.wait(10)
            with lock:
                order.append(case.fingerprint)
            return True

        # workers=2: hog->w0, a->w1, b->w0, c->w1, d->w0, e->w1
        cases = [FakeCase("hog")] + [FakeCase(x) for x in "abcde"]
        scheduler = StealScheduler(run_case, workers=2).start()
        try:
            ticket = scheduler.submit(cases)
            # let w1 drain its own (a, c, e) and steal w0's tail (d, then b)
            deadline = time.monotonic() + 10
            while len(order) < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            assert ticket.wait(timeout=10)
        finally:
            scheduler.shutdown()
        stolen = [fp for fp in order if fp in ("b", "d")]
        assert stolen == ["d", "b"], f"tail-first steal order violated: {order}"

    def test_single_flight_coalesces_duplicate_submissions(self):
        started = threading.Event()
        release = threading.Event()
        runs = []

        def run_case(case):
            started.set()
            release.wait(10)
            runs.append(case.fingerprint)
            return True

        scheduler = StealScheduler(run_case, workers=2).start()
        try:
            first = scheduler.submit([FakeCase("dup")])
            assert started.wait(10)
            second = scheduler.submit([FakeCase("dup")])
            assert second.coalesced == ["dup"] and not second.queued
            release.set()
            assert first.wait(10) and second.wait(10)
        finally:
            scheduler.shutdown()
        assert runs == ["dup"]
        assert scheduler.executed == 1 and scheduler.coalesced == 1

    def test_completed_probe_presatisfies_hits(self):
        done = {"cached"}
        scheduler = StealScheduler(lambda c: True, workers=1).start()
        try:
            ticket = scheduler.submit(
                [FakeCase("cached"), FakeCase("new")],
                completed=lambda fp: fp in done,
            )
            assert ticket.hits == ["cached"] and ticket.queued == ["new"]
            assert ticket.wait(10)
        finally:
            scheduler.shutdown()
        assert ticket.completed() == {"cached", "new"}

    def test_shutdown_abandons_queued_work_and_wakes_waiters(self):
        release = threading.Event()

        def run_case(case):
            release.wait(10)
            return True

        scheduler = StealScheduler(run_case, workers=1).start()
        ticket = scheduler.submit([FakeCase(f"c{i}") for i in range(5)])
        release.set()
        scheduler.shutdown()
        assert ticket.wait(1)  # nobody left hanging
        assert ticket.abandoned()  # some cases never ran
        with pytest.raises(SchedulerError):
            scheduler.submit([FakeCase("late")])

    def test_worker_count_validation(self):
        with pytest.raises(SchedulerError):
            StealScheduler(lambda c: True, workers=0)


# ---------------------------------------------------------------------- #
# kill -9 mid-sweep, restart, resume
# ---------------------------------------------------------------------- #


def spawn_daemon(sock, store, tmp_path, faults=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--socket", str(sock), "--store", str(store), "--workers", "2",
    ]
    if faults:
        argv += ["--faults", json.dumps(faults)]
    return subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True, cwd=str(tmp_path),
    )


@pytest.mark.slow
class TestCrashResume:
    def test_sigkilled_daemon_resumes_to_identical_store(self, tmp_path):
        reference = reference_store(tmp_path)
        sock = tmp_path / "serve.sock"
        store = tmp_path / "serve.jsonl"

        # Phase 1: slow daemon (per-case straggler delay), killed once
        # the journal holds some — but not all — records.
        daemon = spawn_daemon(
            sock, store, tmp_path, faults={"*": {"delay_s": 0.4}}
        )
        try:
            wait_for_socket(str(sock), timeout_s=60)
            client_rc = {}

            def fire_sweep():
                try:
                    with ServeClient(str(sock)) as client:
                        client_rc["result"] = client.request("sweep", SWEEP_PARAMS)
                except Exception as exc:  # noqa: BLE001 - daemon dies mid-request
                    client_rc["error"] = exc

            t = threading.Thread(target=fire_sweep, daemon=True)
            t.start()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if store.exists() and sum(
                    1 for line in open(store)
                    if '"kind":"record"' in line
                ) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("daemon journaled no records before the kill")
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=30)
            t.join(timeout=30)
            assert "error" in client_rc, "client should see the connection die"
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)

        partial = RunStore(store).load()
        assert 0 < len(partial.records) < len(reference.records)

        # Phase 2: restart on the same journal (no delay faults now) and
        # re-request — journaled cases are hits, the rest execute.
        daemon = spawn_daemon(sock, store, tmp_path)
        try:
            wait_for_socket(str(sock), timeout_s=60)
            with ServeClient(str(sock)) as client:
                resumed = client.request("sweep", SWEEP_PARAMS)
                status = client.request("status")
        finally:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=30)

        assert resumed["hits"] == len(partial.records)
        assert resumed["executed"] == len(reference.records) - len(partial.records)
        assert not resumed["quarantined"]
        assert status["counters"]["serve.executed"] == resumed["executed"]
        assert_stores_identical(RunStore(store).load(), reference)

    def test_torn_journal_tail_is_absorbed_on_restart(self, tmp_path):
        # A SIGKILL can tear the line being written; the cache load
        # tolerates the torn tail and the case simply re-executes.
        cases = sweep_cases()
        store = RunStore(tmp_path / "serve.jsonl")
        SuiteExecutor(
            cases[:3], store, ExecutorConfig(isolation="inline"),
            sleep=lambda s: None,
        ).run()
        with open(store.path, "a") as f:
            f.write('{"v": 1, "kind": "record", "fingerp')  # torn write
        cache = ResultCache(store)
        assert len(cache.completed()) == 3
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                result = client.request("sweep", SWEEP_PARAMS)
        assert result["hits"] == 3
        assert result["executed"] == len(cases) - 3
        assert_stores_identical(
            RunStore(str(tmp_path / "serve.jsonl")).load(),
            reference_store(tmp_path),
        )


# ---------------------------------------------------------------------- #
# report / regress over the wire
# ---------------------------------------------------------------------- #


class TestReportAndRegress:
    def test_report_over_the_wire(self, tmp_path):
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                client.request("sweep", SWEEP_PARAMS)
                text = client.request("report", {"format": "text"})
                as_json = client.request("report", {"format": "json"})
            assert text["nrecords"] == 10
            assert "Observation" in text["report"]
            assert as_json["report"]["nrecords"] == 10

    def test_regress_against_own_baseline_passes(self, tmp_path):
        reference = reference_store(tmp_path)
        baseline = tmp_path / "reference.jsonl"
        assert len(reference.records) == 10 and baseline.exists()
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                client.request("sweep", SWEEP_PARAMS)
                verdict = client.request("regress", {"baseline": str(baseline)})
        assert verdict["exit_code"] == 0
        assert verdict["candidate"] == service.config.store_path


# ---------------------------------------------------------------------- #
# live health telemetry and end-to-end request tracing
# ---------------------------------------------------------------------- #


class TestHealth:
    def test_health_reports_live_telemetry(self, tmp_path):
        from repro.serve import protocol

        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                client.request("sweep", SWEEP_PARAMS)  # cold: all misses
                client.request("sweep", SWEEP_PARAMS)  # warm: all hits
                health = client.request("health")
        assert set(health) == set(protocol.HEALTH_RESULT_KEYS)
        assert set(health["request_seconds"]) == set(
            protocol.HEALTH_LATENCY_KEYS
        )
        assert health["protocol"] == protocol.PROTOCOL_VERSION
        assert health["uptime_s"] > 0.0
        assert health["store"] == service.config.store_path
        assert health["records"] == 10
        assert health["workers"] == service.config.workers
        assert health["inflight"] == 0 and health["queued"] == 0
        assert health["cache_hits"] == 10 and health["cache_misses"] == 10
        assert health["cache_hit_rate"] == pytest.approx(0.5)
        # The in-flight health request is not yet observed: both sweeps are.
        lat = health["request_seconds"]
        assert lat["count"] == 2
        assert lat["p50"] is not None and lat["p99"] >= lat["p50"] > 0.0

    def test_fresh_daemon_health_has_null_rates(self, tmp_path):
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                health = client.request("health")
        assert health["cache_hit_rate"] is None
        assert health["request_seconds"]["count"] == 0
        assert health["request_seconds"]["p50"] is None


class TestRequestTracing:
    def wait_for_traces(self, trace_dir, n, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            files = sorted(trace_dir.glob("req-*.json"))
            if len(files) >= n:
                return files
            time.sleep(0.05)
        raise AssertionError(f"{n} merged trace(s) never appeared in {trace_dir}")

    def test_client_trace_id_round_trips_to_worker_spans(self, tmp_path):
        trace_dir = tmp_path / "traces"
        with service_thread(
            tmp_path, isolation="process", trace_dir=str(trace_dir)
        ) as service:
            with ServeClient(service.config.socket_path) as client:
                result = client.request(
                    "sweep",
                    SWEEP_PARAMS,
                    trace={
                        "trace_id": "cafe0123feedbeef",
                        "parent_span": "",
                        "baggage": {},
                    },
                )
            assert result["executed"] == result["total"] == 10
            (path,) = self.wait_for_traces(trace_dir, 1)
            doc = json.loads(path.read_text())
        assert "cafe0123feedbeef" in path.name
        assert doc["otherData"]["trace_id"] == "cafe0123feedbeef"
        events = doc["traceEvents"]
        request_spans = [
            e for e in events if e["ph"] == "X" and e["name"] == "serve.sweep"
        ]
        assert len(request_spans) == 1 and request_spans[0]["pid"] == 0
        sched_spans = [e for e in events if e["name"] == "sched.execute"]
        assert len(sched_spans) == 10
        assert all(e["pid"] == 0 for e in sched_spans)
        # The tentpole regression: worker-subprocess kernel spans appear
        # in the daemon's merged trace, in their own Chrome processes,
        # linked back by flow events.
        worker_kernel = [
            e for e in events
            if e["ph"] == "X" and e.get("cat") == "kernel" and e["pid"] != 0
        ]
        assert worker_kernel, "no worker kernel spans in merged trace"
        assert doc["otherData"]["processes"] == 11  # daemon + 10 workers
        flows = [e for e in events if e.get("cat") == "flow"]
        assert sum(1 for e in flows if e["ph"] == "s") == 10
        assert sum(1 for e in flows if e["ph"] == "f") == 10

    def test_untraced_client_still_gets_a_minted_trace(self, tmp_path):
        trace_dir = tmp_path / "traces"
        with service_thread(
            tmp_path, trace_dir=str(trace_dir)
        ) as service:
            with ServeClient(service.config.socket_path) as client:
                client.request("status")
            (path,) = self.wait_for_traces(trace_dir, 1)
            doc = json.loads(path.read_text())
        assert doc["otherData"]["trace_id"]
        assert any(
            e["ph"] == "X" and e["name"] == "serve.status"
            for e in doc["traceEvents"]
        )

    def test_no_trace_dir_means_no_tracing(self, tmp_path):
        with service_thread(tmp_path) as service:
            with ServeClient(service.config.socket_path) as client:
                client.request(
                    "sweep",
                    SWEEP_PARAMS,
                    trace={
                        "trace_id": "cafe",
                        "parent_span": "",
                        "baggage": {},
                    },
                )
        assert not list(tmp_path.glob("**/req-*.json"))
