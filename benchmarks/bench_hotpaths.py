"""Hot-path harness: kernel × format × method × schedule × tier wall-clock.

Times the scatter-add kernels (Mttkrp on COO/HiCOO) and the fiber-parallel
kernels (Ttv/Ttm) across update methods (``atomic``, ``sort``, ``owner``),
schedules, backends, and execution tiers (``numpy`` vs ``compiled``), and
journals every cell as a :class:`~repro.metrics.perf.PerfRecord` line into
one run store per tier, ``BENCH_kernels.numpy.jsonl`` and
``BENCH_kernels.compiled.jsonl`` at the repo root.  The stores are
committed so every PR has a perf trajectory to compare against:

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick    # CI smoke

A cell's fingerprint hashes its identity *without* the tier, so the two
stores pair cell for cell: ``repro regress BENCH_kernels.numpy.jsonl
BENCH_kernels.compiled.jsonl`` judges the compiled tier against the NumPy
tier.  Each cell is timed through :func:`repro.util.timing.time_call`;
one-time costs — Numba JIT compilation and fallback scatter-plan
construction — land in its warmup, are measured through
:func:`repro.compiled.compile_stats`, and are recorded separately as
``compile_s`` so the median stays steady-state.  Each record is attributed
against the Bluesky CPU roofline (``extra["roofline"]``) and carries the
cell tags, ``min_s``, ``host_cpus`` and ``nthreads``; threaded cells add
``imbalance``/``busy_frac`` from one traced rerun.

Invariants checked (and asserted on exit):

* ``method="owner"`` is bit-identical to the sequential kernel;
* the compiled tier is bit-identical to its NumPy-tier contract partners
  (owner vs sequential, sort vs the NumPy sort tier);
* the compiled tier is >= 2x faster than the NumPy tier on COO-Mttkrp for
  at least one method (asserted at full size only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.runner import derive_case_seed
from repro.bench.runstore import RunStore
from repro.compiled import compile_stats
from repro.generate import powerlaw_tensor
from repro.kernels import coo_mttkrp, coo_ttm, coo_ttv, hicoo_mttkrp
from repro.metrics.perf import PerfRecord, gflops
from repro.obs import Tracer, analyze, chrome_trace
from repro.obs.attribution import attribute
from repro.parallel import OpenMPBackend, get_backend
from repro.roofline import BLUESKY, RooflineModel
from repro.roofline.oi import cost_for, extract_features
from repro.sptensor import HiCOOTensor
from repro.util.timing import time_call

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_kernels")
RANK = 16
BLOCK = 128
TIERS = ("numpy", "compiled")


@dataclass(frozen=True)
class HotpathCell:
    """One harness cell as a run-store case.

    ``payload`` is the cell identity without the tier, so its
    :attr:`fingerprint` is shared by the cell's NumPy-tier and
    compiled-tier lines.
    """

    payload: dict
    tier: str

    @property
    def fingerprint(self) -> str:
        blob = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @property
    def case_seed(self) -> int:
        return derive_case_seed(0, "hotpath", self.fingerprint)

    def to_dict(self) -> dict:
        return dict(self.payload, tier=self.tier)


def store_paths(prefix: str) -> dict:
    """The per-tier run-store paths written under ``prefix``."""
    return {tier: f"{prefix}.{tier}.jsonl" for tier in TIERS}


def run(quick: bool, nthreads: int, reps: int, out_prefix: str,
        trace_path: str | None = None) -> dict:
    """Time every cell into the per-tier stores; return the checks."""
    shape, nnz = ((2000, 2000, 32), 30_000) if quick else ((8000, 8000, 64), 200_000)
    x = powerlaw_tensor(shape, nnz=nnz, dense_modes=(2,), seed=13).sort()
    h = HiCOOTensor.from_coo(x, BLOCK)
    rng = np.random.default_rng(1)
    mats = [rng.random((s, RANK)).astype(np.float32) for s in x.shape]
    vec = rng.random(x.shape[1]).astype(np.float32)
    u = rng.random((x.shape[1], RANK)).astype(np.float32)
    seq = get_backend("sequential")
    omp = OpenMPBackend(nthreads=nthreads)
    features = extract_features(x, "bench", BLOCK, hicoo=h)
    model = RooflineModel(BLUESKY)
    tensor_name = "powerlaw" + "x".join(str(s) for s in shape)
    tensor = {"name": tensor_name, "shape": list(shape), "nnz": int(x.nnz),
              "generator": "powerlaw(dense_modes=(2,), seed=13)"}

    stores = {}
    for tier, path in store_paths(out_prefix).items():
        if os.path.exists(path):
            os.remove(path)
        stores[tier] = RunStore(path)
    medians: dict = {}
    traces: list = []

    def record(kernel, fmt, backend, nthr, fn, tier, **tags):
        cell = HotpathCell(
            payload={"tensor": tensor, "kernel": kernel, "fmt": fmt,
                     "backend": backend, "nthreads": nthr, "rank": RANK,
                     "block": BLOCK, **tags},
            tier=tier,
        )
        t0 = time.perf_counter()
        # One-time costs (JIT compiles, plan builds) land in the warmup
        # call; the compile-stats delta around it is compile_s, so the
        # timed reps measure only steady-state execution.
        c0 = compile_stats()["compile_seconds"]
        fn()
        compile_s = compile_stats()["compile_seconds"] - c0
        timing = time_call(fn, repeats=reps, warmup=0)
        median = timing.median
        cost = cost_for(features, kernel, fmt, r=RANK)
        att = attribute(model, cost, median, median)
        extra = {**tags, "tier": tier, "backend": backend,
                 "nthreads": nthr, "host_cpus": os.cpu_count(),
                 "min_s": round(timing.best, 6),
                 "compile_s": round(compile_s, 6), "reps": reps,
                 "roofline": att.as_dict()}
        if backend != "sequential":
            # One traced rerun *after* the timing loop: the tracer is only
            # installed here, so the recorded medians keep the untraced
            # hot path while the record still carries imbalance analytics.
            tracer = Tracer()
            with tracer:
                fn()
            trace = tracer.freeze()
            st = analyze(trace)
            extra["imbalance"] = round(st.imbalance, 3)
            extra["busy_frac"] = round(st.busy_frac, 3)
            if trace_path:
                label = "/".join(str(v) for v in (kernel, fmt, *tags.values(), tier))
                traces.append((label, trace))
        rec = PerfRecord(
            tensor=tensor_name, kernel=kernel, fmt=fmt, platform=BLUESKY.name,
            flops=cost.flops, seconds=median, gflops=gflops(cost.flops, median),
            bound_gflops=att.bound_gflops, efficiency=att.bound_fraction,
            host_seconds=median, host_gflops=gflops(cost.flops, median),
            extra=extra,
        )
        stores[tier].append_record(cell, rec, 1, time.perf_counter() - t0)
        medians.setdefault(cell.fingerprint, {})[tier] = (kernel, fmt, median)

    for tier in TIERS:
        # --- Mttkrp: the scatter-add update methods -------------------- #
        record("mttkrp", "coo", "sequential", 1,
               lambda t=tier: coo_mttkrp(x, mats, 0, seq, tier=t),
               tier, method="atomic")
        for schedule in ("static", "dynamic"):
            record("mttkrp", "coo", "openmp", nthreads,
                   lambda s=schedule, t=tier: coo_mttkrp(
                       x, mats, 0, omp, method="atomic", schedule=s, tier=t),
                   tier, method="atomic", schedule=schedule)
        for method in ("sort", "owner"):
            record("mttkrp", "coo", "openmp", nthreads,
                   lambda m=method, t=tier: coo_mttkrp(
                       x, mats, 0, omp, method=m, tier=t),
                   tier, method=method)

        record("mttkrp", "hicoo", "sequential", 1,
               lambda t=tier: hicoo_mttkrp(h, mats, 0, seq, tier=t),
               tier, method="atomic")
        record("mttkrp", "hicoo", "openmp", nthreads,
               lambda t=tier: hicoo_mttkrp(h, mats, 0, omp, method="atomic",
                                           tier=t),
               tier, method="atomic", schedule="dynamic")
        record("mttkrp", "hicoo", "openmp", nthreads,
               lambda t=tier: hicoo_mttkrp(h, mats, 0, omp, method="owner",
                                           tier=t),
               tier, method="owner")

        # --- Ttv / Ttm: fiber partitioning ---------------------------- #
        for partition in ("uniform", "balanced"):
            record("ttv", "coo", "openmp", nthreads,
                   lambda p=partition, t=tier: coo_ttv(
                       x, vec, 1, omp, partition=p, tier=t),
                   tier, partition=partition)
            record("ttm", "coo", "openmp", nthreads,
                   lambda p=partition, t=tier: coo_ttm(
                       x, u, 1, omp, partition=p, tier=t),
                   tier, partition=partition)

    # --- Invariant checks --------------------------------------------- #
    ref = coo_mttkrp(x, mats, 0, seq)
    owner_seq = coo_mttkrp(x, mats, 0, seq, method="owner")
    owner_par = coo_mttkrp(x, mats, 0, omp, method="owner")
    # Compiled-tier bit-compat contracts: owner accumulates linearly in
    # storage order (np.add.at's schedule) so it must match the sequential
    # kernel bit for bit; sort reduces pairwise, so its partner is the
    # NumPy sort tier, not the sequential kernel.
    comp_owner = coo_mttkrp(x, mats, 0, omp, method="owner", tier="compiled")
    sort_np = coo_mttkrp(x, mats, 0, omp, method="sort")
    comp_sort = coo_mttkrp(x, mats, 0, omp, method="sort", tier="compiled")
    omp.shutdown()

    # Best compiled-over-numpy speedup across matched COO-Mttkrp cells.
    speedups = [
        c["numpy"][2] / c["compiled"][2] for c in medians.values()
        if c["numpy"][:2] == ("mttkrp", "coo") and c["compiled"][2] > 0
    ]
    checks = {
        "owner_bitidentical_to_sequential": bool(
            np.array_equal(ref, owner_seq) and np.array_equal(ref, owner_par)
        ),
        "compiled_bitidentical_to_numpy": bool(
            np.array_equal(ref, comp_owner)
            and np.array_equal(sort_np, comp_sort)
        ),
        "compiled_speedup_coo_mttkrp": round(max(speedups), 3),
        "compiled_2x_coo_mttkrp": bool(max(speedups) >= 2.0),
    }

    if trace_path:
        # One Chrome-trace document, one pid per traced cell, so Perfetto
        # shows each kernel config as its own process lane.
        merged = {"traceEvents": [], "displayTimeUnit": "ms"}
        for pid, (label, trace) in enumerate(traces):
            merged["traceEvents"].append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
            for ev in chrome_trace(trace)["traceEvents"]:
                merged["traceEvents"].append(dict(ev, pid=pid))
        with open(trace_path, "w") as f:
            json.dump(merged, f, indent=1)
            f.write("\n")
        print(f"wrote Chrome trace ({len(traces)} traced reruns) -> {trace_path}")
    return checks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small tensor, fewer reps (CI smoke)")
    ap.add_argument("--out", default=DEFAULT_OUT, metavar="PREFIX",
                    help="store path prefix: writes PREFIX.numpy.jsonl and "
                    f"PREFIX.compiled.jsonl (default {DEFAULT_OUT})")
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="OpenMP backend thread count (default: host CPUs)")
    ap.add_argument("--reps", type=int, default=None,
                    help="timing repetitions (default 3 quick / 7 full)")
    ap.add_argument("--trace", metavar="PATH", default=None,
                    help="save a Chrome trace of the traced reruns to PATH")
    args = ap.parse_args()
    reps = args.reps or (3 if args.quick else 7)

    checks = run(args.quick, args.threads, reps, args.out, trace_path=args.trace)
    for path in store_paths(args.out).values():
        print(f"wrote {path}")
    for key, val in checks.items():
        print(f"  {key}: {val}")
    if not checks["owner_bitidentical_to_sequential"]:
        raise SystemExit("FAIL: owner method not bit-identical to sequential")
    if not checks["compiled_bitidentical_to_numpy"]:
        raise SystemExit("FAIL: compiled tier not bit-identical to NumPy tier")
    # The timing check is only meaningful at full size; the quick smoke's
    # tiny tensor is too small for a stable margin on noisy CI.
    if not args.quick and not checks["compiled_2x_coo_mttkrp"]:
        raise SystemExit("FAIL: compiled tier < 2x NumPy tier on COO-Mttkrp")


if __name__ == "__main__":
    main()
