"""Shared pieces of the benchmark: paths, statistics, results, host facts."""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: The checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Working files of a run (stores, sockets, traces); git-ignored.
WORK = os.path.join(ROOT, ".perfbench_work")
PROBE_SITE = os.path.join(ROOT, "perfbench", "probe_site")


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values) -> float:
    return statistics.median(float(v) for v in values)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values) -> float:
    xs = [float(v) for v in values]
    if not xs or min(xs) <= 0.0:
        raise ValueError(f"geomean needs positive samples, got {xs}")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #
@dataclass
class Result:
    """What one workload run measured and checked."""

    #: name -> (value, unit, sample count): the metrics of ``BENCHMARK.json``.
    metrics: dict = field(default_factory=dict)
    #: Workload-specific figures behind them, same shape: printed in the
    #: metric table, not on the result line.
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Details of failed output checks (first few are printed).
    failures: list = field(default_factory=list)
    #: Host facts and run parameters (printed, not gated).
    meta: dict = field(default_factory=dict)
    #: Layer spans of the traced run (a ``repro.obs.tracer.Trace``).
    trace: object = None

    def put(self, name: str, value, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def detail(self, name: str, value, unit: str, samples: int = 1) -> None:
        self.details[name] = (float(value), unit, int(samples))

    def check(self, ok: bool, detail: str) -> bool:
        """Count one output check; record ``detail`` when it fails."""
        if not ok:
            self.failed += 1
            self.failures.append(detail)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def trace_overhead(untraced_s: float, traced_s: float) -> float:
    """``obs.trace_overhead_frac``: traced time over untraced, minus 1."""
    return traced_s / untraced_s - 1.0


# --------------------------------------------------------------------- #
# processes and files
# --------------------------------------------------------------------- #
def child_env(probe_dir: "str | None" = None, layers: str = "case") -> dict:
    """Environment for Python subprocesses running the program.

    ``probe_dir`` turns on the per-layer probes of
    ``probe_site/sitecustomize.py`` in every Python process started with
    this environment (and in their children, which inherit it).
    """
    env = dict(os.environ)
    path = [SRC] + ([PROBE_SITE] if probe_dir else [])
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["REPRO_LOG"] = "off"
    env.pop("PERFBENCH_PROBE_DIR", None)
    if probe_dir:
        env["PERFBENCH_PROBE_DIR"] = probe_dir
        env["PERFBENCH_PROBE_LAYERS"] = layers
    return env


def timed_subprocess(code: str, reps: int) -> list:
    """Wall seconds of ``reps`` fresh interpreters each running ``code``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def absorb_probe_dir(probe, directory: str) -> None:
    """Fold every subprocess probe dump in ``directory`` into ``probe``."""
    import json

    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                probe.absorb(json.load(f))


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh working directory for one run, removed afterwards."""
    path = fresh_dir(f"{name}-{os.getpid()}")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------------- #
# host facts
# --------------------------------------------------------------------- #
def host_facts() -> dict:
    """Facts every run records, ceilings measured in this run included."""
    import numpy as np

    from repro.compiled.tier import available, default_tier
    from repro.parallel.backend import get_backend
    from repro.roofline.ert import measure_host

    host = measure_host()
    return {
        "nproc": os.cpu_count(),
        "host_triad_gbs": round(host.mem_bw_gbs, 3),
        "host_gemm_gflops": round(host.peak_sp_gflops, 3),
        "numpy": np.__version__,
        "numba_available": available(),
        "default_backend": get_backend(None).name,
        "default_tier": default_tier(),
        **cache_sizes(),
    }


def cache_sizes() -> dict:
    """L2 and last-level cache bytes of CPU 0, from sysfs (``None`` if absent)."""
    sizes = {"l2_bytes": None, "llc_bytes": None}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    levels = {}
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        levels[level] = int(text.rstrip("KM")) * scale
    if levels:
        sizes["l2_bytes"] = levels.get(2)
        sizes["llc_bytes"] = levels[max(levels)]
    return sizes
