"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Prints one line per metric (name,
value, unit, sample count), the run's host facts, and, as the last line
of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then again with per-layer
probes, and reports every per-layer metric (plus a Chrome trace of the
layer spans under ``.perfbench_work/traces/``).  A layer the workload
does not reach is measured by a small traced run of a workload that
does (see :func:`layer_tour`); the ``# meta`` line names, under
``layers_from``, how many metrics each such run supplied.  Exits 1 when
an output check failed, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "serve", "kernels", "ingest")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit 2."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        sys.exit(2)
    src = os.path.join(os.path.realpath(ROOT), "src", "")
    if not os.path.realpath(repro.__file__).startswith(src):
        print(f"perfbench: repro imported from {repro.__file__}, not src/", file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool, params=None):
    """Run one workload; returns its :class:`perfbench.common.Result`."""
    import importlib

    module = importlib.import_module(f"perfbench.{name}")
    return module.run(seed, seconds, trace, params)


def layer_tour() -> dict:
    """Small size and seconds of each workload's traced layer-tour run."""
    from perfbench import ingest, kernels, serve, sweep

    return {
        "sweep": (sweep.Params(keys=("regS",), setup_reps=1), 0.0),
        "serve": (serve.Params(warm_requests=1, setup_reps=1), 2.0),
        "kernels": (kernels.Params(nnz=20_000, elementwise_calls=3, setup_reps=1), 1.0),
        "ingest": (ingest.Params(events=40_000, setup_reps=1), 1.0),
    }


def run_traced(name: str, seed: int, seconds: float, params=None, tour=None):
    """The traced run of ``name``, completed with every per-layer metric.

    Per-layer metrics the workload does not produce come from a traced
    run of each other workload at the size ``tour`` gives it (default
    :func:`layer_tour`).  Their output checks count in the result.
    """
    res = run_workload(name, seed, seconds, True, params)
    wanted = _metric_names("per_layer")
    for other, (small, small_seconds) in (tour or layer_tour()).items():
        missing = wanted - set(res.metrics)
        if other == name or not missing:
            continue
        extra = run_workload(other, seed, small_seconds, True, small)
        res.attempted += extra.attempted
        res.failed += extra.failed
        res.failures += extra.failures
        supplied = missing & set(extra.metrics)
        for key in supplied:
            res.metrics[key] = extra.metrics[key]
        res.meta.setdefault("layers_from", {})[other] = len(supplied)
    return res


def emit(name: str, res, trace: bool, seed: int) -> dict:
    """Print the metric table and return the result line's object."""
    from perfbench.common import WORK

    wanted = _metric_names("per_layer" if trace else "end_to_end")
    metrics = {k: v for k, v in res.metrics.items() if k in wanted}
    print(f"# workload {name}, seed {seed}, {'traced' if trace else 'untraced'}")
    for key in sorted(metrics):
        _print_row(key, *metrics[key])
    print("# details (not on the result line)")
    for key in sorted(res.details):
        _print_row(key, *res.details[key])
    failed_frac = res.failed / res.attempted if res.attempted else 1.0
    _print_row("failed_frac", failed_frac, "ratio", res.attempted)
    for detail in res.failures[:10]:
        print(f"  FAILED: {detail}")
    print("# meta " + json.dumps(res.meta, sort_keys=True, default=str))
    if trace and res.trace is not None:
        from repro.obs.export import save_chrome

        out = os.path.join(WORK, "traces")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{name}-seed{seed}.json")
        save_chrome(res.trace, path)
        print(f"# chrome trace {os.path.relpath(path, ROOT)}")
    return {
        "correct": res.correct,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": {
            k: {"value": v[0], "unit": v[1]} for k, v in sorted(metrics.items())
        },
    }


def _print_row(key: str, value: float, unit: str, samples: int) -> None:
    print(f"  {key:<40} {value:>14.6g} {unit:<8} n={samples}")


def _metric_names(section: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["REPRO_LOG"] = "off"
    # Python's default, in this process and every one it starts:
    # compiled bytecode is cached, as it is for any user of the program.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    _bootstrap()
    from perfbench.common import WORK

    # Keep every temporary file (worker case/verdict files included)
    # inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None

    from perfbench.common import host_facts

    if args.trace:
        res = run_traced(args.workload, args.seed, args.seconds)
    else:
        res = run_workload(args.workload, args.seed, args.seconds, False)
    # Measured after the workload, so its arrays stay out of peak_rss_mb.
    res.meta.update(host_facts())
    line = emit(args.workload, res, bool(args.trace), args.seed)
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
