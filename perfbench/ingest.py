"""``ingest``: live streaming ingestion with queries racing it.

Back-to-back ``run_ingest_bench`` runs (one generator thread, two
ingest workers, exact eviction) until the time budget is spent.  Each
run streams seeded power-law events into a sliding window while the main
thread runs a query round every two applied batches: a HiCOO snapshot
of the live window, then Ttv and Mttkrp on the COO window and on the
snapshot; the sizes give each run at least 100 queries.  Every run's
final window is checked bit-exact against a serial replay
(``verify_window_state``).

``ops_per_s`` is query rounds per CPU second at the median round, and
``ingest_query_p50_s`` that median round, snapshot included,
timed by this benchmark around the public functions the round calls, in
CPU seconds of the querying thread.  Wall time would add the waits for
the GIL held by the ingest threads, and those waits swing with the
host's load: on a shared 2-vCPU host the wall-clock p50 spread 0.36
between runs while the CPU-time p50 stayed within 0.05 (see
``perfbench/README.md``).  Queries run on the sequential backend, so the
querying thread does all of a round's work.

Set-up is what a fresh ``repro ingest-bench`` process does before it
streams: start the interpreter, import ``repro.ingest`` and build the
scenario; it is repeated and the median reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from perfbench import common
from perfbench.common import Result, median, percentile
from perfbench.probe import Probe

CELLS = (("ttv", "coo"), ("ttv", "hicoo"), ("mttkrp", "coo"), ("mttkrp", "hicoo"))
QUERY_EVERY = 2
WORKERS = 2


@dataclass
class Params:
    events: int = 300_000
    batch: int = 2048
    setup_reps: int = 5


def config(seed: int, i: int, p: Params):
    from repro.bench.runner import derive_case_seed
    from repro.ingest import IngestConfig

    return IngestConfig(
        events=p.events, batch=p.batch, query_every=QUERY_EVERY,
        workers=WORKERS, seed=derive_case_seed(seed, "ingest", i),
    )


def _setup_code(p: Params) -> str:
    return (
        "from repro.ingest import IngestBench, IngestConfig\n"
        f"IngestBench(IngestConfig(events={p.events}, batch={p.batch}, "
        f"query_every={QUERY_EVERY}, workers={WORKERS}))\n"
    )


def _time_query_rounds(timer: Probe) -> None:
    """Time every call a query round makes, in call order, under one name.

    A round is the HiCOO snapshot of the live window followed by the
    Ttv/Mttkrp calls on it (see :func:`_round_seconds`).
    """
    import repro.ingest as ingest

    timer.wrap(ingest.WindowBlocker, "snapshot", "round", note=lambda a, kw, r: "snapshot")
    for kernel, fmt in CELLS:
        timer.wrap(ingest, f"{fmt}_{kernel}", "round", note=lambda a, kw, r: "kernel")


def _round_seconds(timer: Probe) -> list:
    """Seconds of each query round: a snapshot plus the kernel calls after it.

    A snapshot with no kernel call after it (the one the run takes for
    its records) is not a query round.
    """
    rounds = []
    for seconds, what in zip(timer.samples.get("round", ()), timer.notes.get("round", ())):
        if what == "snapshot":
            rounds.append([seconds, 0])
        elif rounds:
            rounds[-1][0] += seconds
            rounds[-1][1] += 1
    return [seconds for seconds, calls in rounds if calls]


def _phase(res: Result, seed: int, seconds: float, p: Params) -> dict:
    """Ingest runs until ``seconds`` of ingest time are spent."""
    from repro.ingest import run_ingest_bench, verify_window_state

    results, busy = [], 0.0
    with Probe(clock=time.thread_time) as timer:
        _time_query_rounds(timer)
        while not results or busy < seconds:
            result = run_ingest_bench(config(seed, len(results), p))
            busy += result.duration_s
            results.append(result)
            ok, detail = verify_window_state(result)
            res.attempted += 1 + result.queries + result.query_failures
            res.check(ok, f"ingest run {len(results) - 1}: window {detail}")
            for _ in range(result.query_failures):
                res.check(False, f"ingest run {len(results) - 1}: query failed")
    return {"results": results, "rounds": _round_seconds(timer), "busy": busy}


def run(seed: int, seconds: float, trace: bool, p: "Params | None" = None) -> Result:
    p = p or Params()
    res = Result(meta={"workload": "ingest"})
    setup = common.timed_subprocess(_setup_code(p), p.setup_reps)
    plain = _phase(res, seed, seconds, p)
    res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    _report_e2e(res, plain)
    res.put("setup_s", median(setup), "s", len(setup))
    if trace:
        _traced(res, seed, seconds, p, plain)
    return res


def _report_e2e(res: Result, phase: dict) -> None:
    results = phase["results"]
    res.meta["ingest_runs"] = len(results)
    res.meta["queries"] = sum(r.queries for r in results)
    rounds = phase["rounds"]
    # The workload's operations are query rounds.
    res.put("ops_per_s", 1.0 / median(rounds), "1/s", len(rounds))
    res.detail("ingest_query_p50_s", median(rounds), "s", len(rounds))
    res.detail("ingest_query_p90_s", percentile(rounds, 90), "s", len(rounds))
    # The median over runs is robust to a run that a host hiccup slowed.
    res.detail(
        "ingest_events_per_s", median(r.events_per_s for r in results), "1/s", len(results)
    )


def _traced(res, seed, seconds, p, plain) -> None:
    from repro.obs.tracer import Tracer

    from perfbench.probe import install_ingest_layers

    tracer = Tracer(meta={"process": "perfbench ingest"})
    with Probe(tracer) as probe:
        install_ingest_layers(probe)
        traced = _phase(res, seed, seconds, p)
    res.trace = tracer.freeze()
    results = traced["results"]
    res.put("ingest.backpressure_stalls", sum(r.backpressure_stalls for r in results), "count")
    res.put("ingest.queue_max_depth", max(r.queue_max_depth for r in results), "count")
    hits = sum(r.reblock_cache_hits for r in results)
    reblocks = sum(r.reblocks for r in results)
    res.put("ingest.reblock_hit_ratio", hits / (hits + reblocks), "ratio", hits + reblocks)
    res.put("ingest.evictions", sum(r.evictions for r in results), "count")
    s = probe.samples
    for layer in ("ingest.decompose", "ingest.snapshot", "stream.window_push"):
        res.put(f"{layer}_p50_s", median(s[layer]), "s", len(s[layer]))
    for kernel, fmt in CELLS:
        values = s[f"kernels.window.{kernel}.{fmt}"]
        res.put(f"kernels.window.{kernel}.{fmt}_s", median(values), "s", len(values))
    res.put(
        "obs.trace_overhead_frac",
        common.trace_overhead(median(plain["rounds"]), median(traced["rounds"])),
        "ratio",
    )
