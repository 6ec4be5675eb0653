"""``sweep``: the default ``repro sweep`` path, as a batch job.

A :class:`~repro.bench.executor.SuiteExecutor` with the default
``process`` isolation and two workers runs the modeled case list of
four paper tensors x five kernels x COO/HiCOO x Bluesky/DGX-1V.  Each
case spawns a worker interpreter that imports ``repro`` and regenerates
its tensor, so this workload measures per-case dispatch overhead and
never runs a host kernel.

Whole case lists run back to back, each from its own derived seed, until
the time budget is spent (at least one list, about 25 s on two cores):
within a list every tensor is materialized once per case, 20 times.
``ops_per_s`` is journaled cases per second of executor wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field

from perfbench import common
from perfbench.common import Result, median


SCALE = 1000.0
WORKERS = 2


@dataclass
class Params:
    keys: tuple = ("regS", "regS4d", "uber4d", "choa")
    platforms: tuple = ("Bluesky", "DGX-1V")
    setup_reps: int = 5
    #: Executor fault table (tests inject failures through it).
    faults: dict = field(default_factory=dict)


def build_cases(seed: int, p: Params) -> list:
    from repro.bench.executor import build_sweep_cases

    return build_sweep_cases(
        dataset="both", keys=list(p.keys), platforms=tuple(p.platforms),
        scale=SCALE, seed=seed,
    )


def _setup_code(seed: int, p: Params, store: str) -> str:
    """What a fresh ``repro sweep`` process does before its first case."""
    return (
        "from repro.bench.executor import ExecutorConfig, SuiteExecutor, "
        "build_sweep_cases\n"
        "from repro.bench.runstore import RunStore\n"
        f"cases = build_sweep_cases(dataset='both', keys={list(p.keys)!r}, "
        f"platforms={tuple(p.platforms)!r}, scale={SCALE!r}, seed={seed!r})\n"
        f"SuiteExecutor(cases, RunStore({store!r}), "
        f"ExecutorConfig(workers={WORKERS}))\n"
    )


def _run_sweeps(seed, seconds, p: Params, store_path: str) -> dict:
    """Run whole case lists until ``seconds`` of executor wall time are spent."""
    from repro.bench.executor import ExecutorConfig, SuiteExecutor
    from repro.bench.runner import derive_case_seed
    from repro.bench.runstore import RunStore

    store = RunStore(store_path)
    config = ExecutorConfig(workers=WORKERS, faults=dict(p.faults))
    ran, reports, wall = [], [], 0.0
    while not reports or wall < seconds:
        cases = build_cases(derive_case_seed(seed, "sweep", len(reports)), p)
        t0 = time.perf_counter()
        reports.append(SuiteExecutor(cases, store, config).run())
        wall += time.perf_counter() - t0
        ran.extend(cases)
    return {"cases": ran, "reports": reports, "wall": wall, "store": store}


def _check(res: Result, phase: dict, oracle: dict) -> int:
    """Every case completes, and its record equals the inline oracle's.

    A case without a journaled record (quarantined or dropped) is a
    failure.  ``oracle`` maps fingerprint -> (canonical record JSON,
    in-process seconds) and is shared between phases, so each case runs
    inline once.  Returns the number of cases with a journaled record.
    """
    from repro.bench.executor import execute_case

    state = phase["store"].load()
    records = state.records
    res.attempted += len(phase["cases"])
    completed = 0
    with _materialize_once() as generate:
        for fp, case in {c.fingerprint: c for c in phase["cases"]}.items():
            if fp not in records:
                why = "quarantined" if fp in state.quarantined else "not journaled"
                res.check(False, f"sweep case {fp} {why}")
                continue
            completed += 1
            if fp not in oracle:
                generate_s = generate(case.tensor_spec)
                t0 = time.perf_counter()
                want = execute_case(case).to_dict()
                seconds = time.perf_counter() - t0 + generate_s
                oracle[fp] = (json.dumps(want, sort_keys=True), seconds)
            got = json.dumps(records[fp]["record"], sort_keys=True)
            res.check(got == oracle[fp][0], f"sweep case {fp}: record != inline oracle")
    return completed


@contextlib.contextmanager
def _materialize_once():
    """Let the oracle generate each tensor once instead of once per case.

    Generation is a pure function of the spec, and ``execute_case``
    copies the tensor before using it, so sharing it leaves every record
    unchanged.  Yields ``generate(spec) -> seconds``, which generates a
    spec's tensor on first use and returns what generating it took: the
    oracle adds that back, so a case's in-process time is what
    ``execute_case`` costs without sharing.
    """
    import repro.bench.executor as executor

    original = executor.materialize_tensor
    tensors, seconds = {}, {}

    def generate(spec) -> float:
        if spec not in tensors:
            t0 = time.perf_counter()
            tensors[spec] = original(spec)
            seconds[spec] = time.perf_counter() - t0
        return seconds[spec]

    executor.materialize_tensor = lambda spec: tensors[spec]
    try:
        yield generate
    finally:
        executor.materialize_tensor = original


def run(seed: int, seconds: float, trace: bool, p: "Params | None" = None) -> Result:
    from repro.bench.executor import ExecutorConfig, SuiteExecutor
    from repro.bench.runstore import RunStore

    p = p or Params()
    res = Result(meta={"workload": "sweep", "cases": 0})
    with common.work_dir("sweep") as work:
        setup = common.timed_subprocess(
            _setup_code(seed, p, os.path.join(work, "setup.jsonl")), p.setup_reps
        )
        # Warm the worker interpreter's page and bytecode caches before timing.
        SuiteExecutor(
            build_cases(seed, p)[:WORKERS], RunStore(os.path.join(work, "warm.jsonl")),
            ExecutorConfig(workers=WORKERS),
        ).run()

        oracle: dict = {}
        plain = _run_sweeps(seed, seconds, p, os.path.join(work, "plain.jsonl"))
        res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
        plain["completed"] = _check(res, plain, oracle)
        n = plain["completed"]
        res.meta["cases"] = len(plain["cases"])
        res.put("setup_s", median(setup), "s", len(setup))
        # The workload's operations are sweep cases.
        res.put("ops_per_s", n / plain["wall"], "1/s", n)
        if trace:
            _traced(res, seed, seconds, p, plain, oracle, work)
        return res


def _traced(res, seed, seconds, p, plain, oracle, work) -> None:
    from repro.bench.runstore import RunStore
    from repro.obs.tracer import Tracer

    from perfbench.probe import Probe, case_layer_metrics, install_executor_layers

    probe_dir = common.fresh_dir(os.path.basename(work), "probe")
    tracer = Tracer(meta={"process": "perfbench sweep"})
    saved = dict(os.environ)
    os.environ.update(common.child_env(probe_dir, "case"))
    try:
        with Probe(tracer) as probe:
            install_executor_layers(probe)
            traced = _run_sweeps(seed, seconds, p, os.path.join(work, "traced.jsonl"))
    finally:
        os.environ.clear()
        os.environ.update(saved)
    common.absorb_probe_dir(probe, probe_dir)
    traced["completed"] = _check(res, traced, oracle)
    res.trace = tracer.freeze()

    s = probe.samples
    attempts = s.get("executor.attempt", [])
    inline = [oracle[c.fingerprint][1] for c in traced["cases"] if c.fingerprint in oracle]
    imports = common.timed_subprocess(
        "import repro.bench.worker", 3
    )
    res.put("executor.attempt_p50_s", median(attempts), "s", len(attempts))
    res.put(
        "executor.worker_overhead_p50_s", median(attempts) - median(inline),
        "s", len(attempts),
    )
    res.put("worker.import_s", median(imports), "s", len(imports))
    res.put(
        "executor.pool_busy_frac", sum(attempts) / (WORKERS * traced["wall"]),
        "ratio", len(attempts),
    )
    reports = traced["reports"]
    res.put("executor.retries", sum(r.retries for r in reports), "count")
    res.put("executor.quarantined", sum(len(r.quarantined) for r in reports), "count")
    res.put("executor.steals", sum(r.steals for r in reports), "count")
    case_layer_metrics(res, probe)
    loads = []
    for _ in range(3):
        t0 = time.perf_counter()
        RunStore(traced["store"].path).load()
        loads.append(time.perf_counter() - t0)
    res.put("runstore.load_s", median(loads), "s", len(loads))
    per_case = lambda phase: phase["wall"] / max(phase["completed"], 1)  # noqa: E731
    res.put(
        "obs.trace_overhead_frac",
        common.trace_overhead(per_case(plain), per_case(traced)), "ratio",
    )
