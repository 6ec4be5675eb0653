"""``serve``: a closed loop of cold and warm requests against ``repro serve``.

The daemon runs as its own process (inline isolation, two workers).
This process holds two connections open, each driven by its own thread
that sends its next request as soon as the previous one is answered:

* the **cold** connection asks for a sweep of one small tensor (five
  kernels x COO/HiCOO x Bluesky/DGX-1V, 20 cases) with a fresh seed each
  time, so every case misses the cache, executes and is journaled;
* the **warm** connection cycles through requests answered during
  set-up, so every case is a cache hit.

Journal writes (cold) and cache reads (warm) share the daemon, so a
change that speeds one up at the other's cost shows here.
``ops_per_s`` is one over the median cold-request latency; the cold and
warm percentiles are printed beside it.

Set-up is a daemon start on a store that already holds the warm
requests' records, up to the first answer to each warm request; it is
repeated and the median reported.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench import common
from perfbench.common import Result, median, percentile


TENSOR = "regS"
PLATFORMS = ("Bluesky", "DGX-1V")
SCALE = 1000.0
WORKERS = 2


@dataclass
class Params:
    #: Distinct requests the warm connection cycles through.
    warm_requests: int = 4
    setup_reps: int = 5


class Daemon:
    """A ``repro serve`` subprocess on its own socket and store."""

    def __init__(self, work: str, store: str, env: dict):
        sock = os.path.join(work, "serve.sock")
        # AF_UNIX paths are limited to ~107 bytes; a deep checkout falls
        # back to a path relative to the working directory.
        self.socket = sock if len(sock) < 100 else os.path.relpath(sock)
        self._log = open(os.path.join(work, "daemon.log"), "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--socket", self.socket,
                "--store", store, "--workers", str(WORKERS),
                "--isolation", "inline",
            ],
            env=env, stdout=self._log, stderr=self._log,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        from repro.serve.client import ServeError, wait_for_socket

        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            try:
                wait_for_socket(self.socket, timeout_s=0.5, interval_s=0.005)
                return
            except ServeError:
                if time.monotonic() > deadline:
                    raise

    def stop(self) -> None:
        """SIGTERM (graceful: the daemon drains and exits), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def sweep_params(seed: int) -> dict:
    return {
        "dataset": "synthetic", "tensors": [TENSOR],
        "platforms": list(PLATFORMS), "scale": SCALE, "seed": seed,
    }


def _records(response: dict) -> str:
    return json.dumps(response["records"], sort_keys=True)


def _seed(seed: int, kind: str, i: int) -> int:
    from repro.bench.runner import derive_case_seed

    return derive_case_seed(seed, "serve", kind, i)


def _start(work, store, env):
    from repro.serve.client import ServeClient

    daemon = Daemon(work, store, env)
    try:
        daemon.wait_ready()
        return daemon, ServeClient(daemon.socket, timeout_s=120)
    except BaseException:
        daemon.stop()
        raise


def _setup(res: Result, seed: int, p: Params, work: str, store: str):
    """Prefill the warm records, then time daemon starts on that store."""
    warm = [_seed(seed, "warm", j) for j in range(p.warm_requests)]
    expected = {}
    daemon, client = _start(work, store, common.child_env())
    try:
        for s in warm:
            response = client.request("sweep", sweep_params(s))
            res.attempted += 1
            res.check(
                response["executed"] == response["total"] > 0,
                f"serve prefill seed {s}: executed {response['executed']} "
                f"of {response['total']}",
            )
            expected[s] = _records(response)
    finally:
        client.close()
        daemon.stop()
    times = []
    for rep in range(p.setup_reps):
        t0 = time.perf_counter()
        daemon, client = _start(work, store, common.child_env())
        try:
            for s in warm:
                _check_warm(res, client.request("sweep", sweep_params(s)), expected[s])
        except BaseException:
            client.close()
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
        if rep < p.setup_reps - 1:
            client.close()
            daemon.stop()
    return times, warm, expected, daemon, client


def _check_warm(res: Result, response: dict, expected: str) -> None:
    res.attempted += 1
    res.check(
        response["hits"] == response["total"] > 0,
        f"serve warm request: hits {response['hits']} of {response['total']}",
    )
    res.check(
        _records(response) == expected,
        "serve warm records differ from the cold records of the same request",
    )


def _loop(res, seed, seconds, cold_client, warm_client, warm, expected):
    """Drive both connections for ``seconds``; returns latency lists."""
    from repro.serve.client import ServeError

    lat = {"cold": [], "warm": []}
    stop_at = time.perf_counter() + seconds
    lock = threading.Lock()
    errors = []

    def cold() -> None:
        i = 0
        while time.perf_counter() < stop_at:
            t0 = time.perf_counter()
            try:
                r = cold_client.request("sweep", sweep_params(_seed(seed, "cold", i)))
            except (ServeError, OSError) as exc:
                r = None
                errors.append(f"serve cold request: {exc}")
            dt = time.perf_counter() - t0
            with lock:
                res.attempted += 1
                lat["cold"].append(dt)
                if r is not None:
                    res.check(
                        r["executed"] == r["total"] > 0 and not r["quarantined"],
                        f"serve cold request {i}: executed {r['executed']} of "
                        f"{r['total']}, quarantined {len(r['quarantined'])}",
                    )
            i += 1

    def hot() -> None:
        j = 0
        while time.perf_counter() < stop_at:
            s = warm[j % len(warm)]
            t0 = time.perf_counter()
            try:
                r = warm_client.request("sweep", sweep_params(s))
            except (ServeError, OSError) as exc:
                r = None
                errors.append(f"serve warm request: {exc}")
            dt = time.perf_counter() - t0
            with lock:
                lat["warm"].append(dt)
                if r is None:
                    res.attempted += 1
                else:
                    _check_warm(res, r, expected[s])
            j += 1

    threads = [threading.Thread(target=f, name=f"perfbench-{f.__name__}") for f in (cold, hot)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for detail in errors:
        res.check(False, detail)
    return lat


def run(seed: int, seconds: float, trace: bool, p: "Params | None" = None) -> Result:
    from repro.serve.client import ServeClient

    p = p or Params()
    res = Result(meta={"workload": "serve"})
    with common.work_dir("serve") as work:
        store = os.path.join(work, "serve.jsonl")
        setup, warm, expected, daemon, warm_client = _setup(res, seed, p, work, store)
        try:
            # The traced daemon later starts from the store set-up left.
            shutil.copyfile(store, os.path.join(work, "traced.jsonl"))
            with ServeClient(daemon.socket, timeout_s=120) as cold_client:
                lat = _loop(res, seed, seconds, cold_client, warm_client, warm, expected)
        finally:
            warm_client.close()
            daemon.stop()
        res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
        res.put("setup_s", median(setup), "s", len(setup))
        cold, hot = lat["cold"], lat["warm"]
        # The workload's operations are cold requests: the closed loop's
        # rate at the median cold latency.
        res.put("ops_per_s", 1.0 / median(cold), "1/s", len(cold))
        res.detail("serve_cold_p50_s", median(cold), "s", len(cold))
        res.detail("serve_cold_p90_s", percentile(cold, 90), "s", len(cold))
        res.detail("serve_warm_p50_s", median(hot), "s", len(hot))
        res.detail("serve_warm_p99_s", percentile(hot, 99), "s", len(hot))
        if trace:
            _traced(res, seed, seconds, work, lat, warm, expected)
        return res


def _traced(res, seed, seconds, work, plain, warm, expected) -> None:
    import repro.serve.protocol as protocol
    from repro.obs.tracer import Tracer
    from repro.serve.client import ServeClient

    from perfbench.probe import Probe, case_layer_metrics

    probe_dir = common.fresh_dir(os.path.basename(work), "probe")
    env = common.child_env(probe_dir, "daemon")
    tracer = Tracer(meta={"process": "perfbench serve client"})
    with Probe(tracer) as client_probe:
        client_probe.wrap(
            protocol, "decode", "serve.decode",
            note=lambda a, kw, r: len(a[0]),
        )
        daemon, warm_client = _start(work, os.path.join(work, "traced.jsonl"), env)
        try:
            for s in warm:
                _check_warm(res, warm_client.request("sweep", sweep_params(s)), expected[s])
            with ServeClient(daemon.socket, timeout_s=120) as cold_client:
                lat = _loop(res, seed, seconds, cold_client, warm_client, warm, expected)
            status = warm_client.request("status")
            health = warm_client.request("health")
        finally:
            warm_client.close()
            daemon.stop()
    res.trace = tracer.freeze()
    probe = Probe()
    common.absorb_probe_dir(probe, probe_dir)
    s = probe.samples

    counters = status["counters"]
    hits = counters.get("serve.cache_hits", 0.0)
    misses = counters.get("serve.cache_misses", 0.0)
    res.put("serve.hit_ratio", hits / (hits + misses), "ratio", int(hits + misses))
    for name in ("executed", "coalesced", "errors"):
        res.put(f"serve.{name}", counters.get(f"serve.{name}", 0.0), "count")
    daemon_p50 = health["request_seconds"]["p50"]
    client_all = lat["cold"] + lat["warm"]
    res.put("serve.daemon_p50_s", daemon_p50, "s", health["request_seconds"]["count"])
    res.put("serve.wire_overhead_p50_s", median(client_all) - daemon_p50, "s", len(client_all))
    for layer in ("enumerate", "lookup", "encode"):
        values = s.get(f"serve.{layer}", [])
        if values:
            res.put(f"serve.{layer}_p50_s", median(values), "s", len(values))
    sizes = client_probe.notes.get("serve.decode", [])
    res.put("serve.response_bytes", median(sizes), "bytes", len(sizes))
    attempts = s.get("executor.attempt", [])
    res.put("executor.attempt_p50_s", median(attempts), "s", len(attempts))
    case_layer_metrics(res, probe)
    loads = s.get("runstore.load", [])
    res.put("runstore.load_s", median(loads), "s", len(loads))
    res.put(
        "obs.trace_overhead_frac",
        common.trace_overhead(median(plain["cold"]), median(lat["cold"])), "ratio",
    )
