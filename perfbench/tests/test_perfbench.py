"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import common, ingest, kernels, run, serve, sweep

with open(os.path.join(common.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
E2E = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}

TINY = {
    "sweep": sweep.Params(keys=("regS",), platforms=("Bluesky",), setup_reps=1),
    "serve": serve.Params(warm_requests=1, setup_reps=1),
    "kernels": kernels.Params(
        tensors={"pl3d": ((60, 50, 8), (2,)), "pl4d": ((20, 16, 12, 4), (3,))},
        nnz=600, setup_reps=1, elementwise_calls=3,
    ),
    "ingest": ingest.Params(events=12_000, batch=1024, setup_reps=1),
}

#: Tiny layer-tour runs: (params, seconds) per workload.
TINY_TOUR = {name: (params, 0.2) for name, params in TINY.items()}


@pytest.fixture(scope="module")
def traced_results():
    """Every workload once, traced, at tiny size."""
    return {
        name: run.run_workload(name, seed=3, seconds=0.2, trace=True, params=params)
        for name, params in TINY.items()
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_workload_is_correct(traced_results, name):
    res = traced_results[name]
    assert res.correct, res.failures
    assert res.attempted > 0 and res.failed == 0
    assert set(res.metrics) & E2E == E2E
    for value, unit, samples in [*res.metrics.values(), *res.details.values()]:
        assert samples >= 1 and unit


def test_traced_run_reports_every_per_layer_metric():
    """Layers the workload does not reach come from the tour runs."""
    res = run.run_traced("ingest", 3, 0.2, TINY["ingest"], tour=TINY_TOUR)
    assert res.correct, res.failures
    assert PER_LAYER <= set(res.metrics)
    assert set(res.meta["layers_from"]) == {"sweep", "serve", "kernels"}


def test_emitted_names_match_benchmark_json(traced_results):
    emitted = set().union(*(r.metrics for r in traced_results.values()))
    assert emitted - E2E - PER_LAYER == set()
    assert E2E - emitted == set()
    assert PER_LAYER - emitted == set()


def test_result_line_has_the_contract_keys(traced_results, capsys):
    line = run.emit("ingest", traced_results["ingest"], trace=False, seed=3)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == E2E
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0
    assert "ingest_query_p50_s" in capsys.readouterr().out


def test_quarantined_cases_count_as_failed():
    params = sweep.Params(
        keys=("regS",), platforms=("Bluesky",), setup_reps=1,
        faults={"regS": {"fail_attempts": 99}},
    )
    res = sweep.run(seed=4, seconds=0.0, trace=False, p=params)
    assert res.attempted == 10  # regS x 5 kernels x 2 formats
    assert res.failed == 10 and not res.correct
    assert all("quarantined" in f for f in res.failures)


def test_unjournaled_cases_count_as_failed_and_not_as_throughput(monkeypatch):
    """A case the executor completes but never journals is a failure."""
    from repro.bench.runstore import RunStore

    original = RunStore.append_record

    def drop_ttv_coo(self, case, *args, **kwargs):
        if (case.kernel, case.fmt) == ("ttv", "coo"):
            return {"dropped": case.fingerprint}
        return original(self, case, *args, **kwargs)

    monkeypatch.setattr(RunStore, "append_record", drop_ttv_coo)
    params = sweep.Params(keys=("regS",), platforms=("Bluesky",), setup_reps=1)
    res = sweep.run(seed=4, seconds=0.0, trace=False, p=params)
    assert res.attempted == 10
    assert res.failed == 1 and not res.correct
    assert "not journaled" in res.failures[0]
    assert res.metrics["ops_per_s"][2] == 9


def test_delay_in_one_layer_moves_only_its_metrics(monkeypatch):
    """A 20 ms delay in COO-Ttm moves ops_per_s, kernel_ttm_s and its
    layer metrics, and no other kernel's."""
    import repro.kernels as K

    seconds, delay = 0.5, 0.02

    def figures():
        res = kernels.run(5, seconds, True, TINY["kernels"])
        return {**res.metrics, **res.details}

    base = figures()
    original = K.coo_ttm

    def slow_ttm(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(K, "coo_ttm", slow_ttm)
    slow = figures()

    def moved(name):
        return slow[name][0] - base[name][0]

    assert slow["ops_per_s"][0] < 0.8 * base["ops_per_s"][0]
    # geomean over 2 tensors x 2 formats: two of four cells gain the delay.
    assert moved("kernel_ttm_s") > 0.1 * delay
    for tensor in ("pl3d", "pl4d"):
        assert moved(f"kernels.{tensor}.ttm.coo_s") > 0.8 * delay
        assert abs(moved(f"kernels.{tensor}.ttm.hicoo_s")) < delay / 4
    for kernel in ("tew", "ts", "ttv", "mttkrp"):
        assert abs(moved(f"kernel_{kernel}_s")) < delay / 4
        for tensor in ("pl3d", "pl4d"):
            for fmt in kernels.FORMATS:
                assert abs(moved(f"kernels.{tensor}.{kernel}.{fmt}_s")) < delay / 4


def test_delay_in_the_snapshot_moves_the_query_round(monkeypatch):
    """5 ms of extra work in the HiCOO snapshot moves the query round."""
    from repro.ingest import WindowBlocker

    seconds, delay = 0.3, 0.005

    def figures():
        res = ingest.run(5, seconds, True, TINY["ingest"])
        return {**res.metrics, **res.details}

    base = figures()
    original = WindowBlocker.snapshot

    def slow_snapshot(self, *args, **kwargs):
        # Busy, not asleep: the query rounds are timed in CPU seconds.
        end = time.thread_time() + delay
        while time.thread_time() < end:
            pass
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WindowBlocker, "snapshot", slow_snapshot)
    slow = figures()

    def moved(name):
        return slow[name][0] - base[name][0]

    assert slow["ops_per_s"][0] < base["ops_per_s"][0]
    assert moved("ingest_query_p50_s") > 0.8 * delay
    assert moved("ingest.snapshot_p50_s") > 0.8 * delay
    for kernel, fmt in ingest.CELLS:
        assert abs(moved(f"kernels.window.{kernel}.{fmt}_s")) < delay / 4


def test_exits_nonzero_without_the_program():
    """Only BENCHMARK.json and perfbench/: no result, nonzero exit."""
    bare = os.path.join(common.WORK, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            os.path.join(common.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ingest",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_kernel_check_catches_a_wrong_output():
    import numpy as np

    bundle = kernels.setup(6, TINY["kernels"])[0]
    out = kernels.call("mttkrp", "coo", bundle, 0)
    rng = np.random.default_rng(0)
    assert kernels.check_output("mttkrp", bundle, 0, out, rng)[0]
    assert not kernels.check_output("mttkrp", bundle, 0, out * 1.01, rng)[0]
