"""Per-layer timing probes: wrap a layer's public function from outside.

A :class:`Probe` replaces an attribute (module function, method,
classmethod) with a wrapper that times every call and records it under
a layer name, optionally with a short note (which tensor, how many
bytes).  Closing the probe restores every original attribute.  The
program itself is never edited; the probe only rebinds names that the
program looks up at call time.

The ``install_*`` functions name, for each workload, the public
functions whose calls make up each layer.  ``probe_site/sitecustomize.py``
calls the same functions inside worker and daemon subprocesses, so a
layer is timed the same way whichever process runs it;
:func:`case_layer_metrics` turns the samples of the layers inside a
sweep case into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import nullcontext

from perfbench.common import median

#: Layer span category in the exported Chrome trace.
CAT_LAYER = "layer"


class Probe:
    """Call counts and durations of wrapped functions, by layer name."""

    def __init__(self, tracer=None, clock=time.perf_counter):
        #: layer -> per-call seconds, in completion order.
        self.samples: dict = {}
        #: layer -> per-call notes (only for wraps given ``note``).
        self.notes: dict = {}
        self._undo: list = []
        self._lock = threading.Lock()
        #: Optional ``repro.obs.tracer.Tracer`` receiving one span per
        #: call.  It is never installed, so the program's own tracing
        #: stays off.
        self.tracer = tracer
        #: What a call's duration is measured on: wall time by default,
        #: or e.g. ``time.thread_time`` for the calling thread's CPU time.
        self.clock = clock

    def record(self, layer: str, seconds: float, note=None) -> None:
        with self._lock:
            self.samples.setdefault(layer, []).append(seconds)
            if note is not None:
                self.notes.setdefault(layer, []).append(note)

    def wrap(self, owner, attr: str, layer, note=None) -> None:
        """Time every call of ``owner.attr`` under ``layer``.

        ``layer`` is a name, or a callable ``(args, kwargs) -> name`` for
        functions whose calls belong to different layers.  ``note`` is an
        optional ``(args, kwargs, result) -> str | int`` recorded with
        each call.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        fn = static.__func__ if kind is not None else static
        probe = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            span = probe.tracer.span(name, cat=CAT_LAYER) if probe.tracer else nullcontext()
            result = None
            with span:
                t0 = probe.clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    seconds = probe.clock() - t0
                    probe.record(
                        name, seconds,
                        None if note is None else note(args, kwargs, result),
                    )

        setattr(owner, attr, kind(timed) if kind is not None else timed)
        self._undo.append((owner, attr, static))

    def close(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._undo:
            owner, attr, static = self._undo.pop()
            setattr(owner, attr, static)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def to_dict(self) -> dict:
        with self._lock:
            return {"samples": dict(self.samples), "notes": dict(self.notes)}

    def absorb(self, dump: dict) -> None:
        """Fold another probe's :meth:`to_dict` (e.g. a subprocess's)."""
        with self._lock:
            for layer, values in dump.get("samples", {}).items():
                self.samples.setdefault(layer, []).extend(values)
            for layer, values in dump.get("notes", {}).items():
                self.notes.setdefault(layer, []).extend(values)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)


# --------------------------------------------------------------------- #
# Layer definitions: which public functions make up which layer.
# --------------------------------------------------------------------- #
def _spec_note(args, kwargs, result) -> str:
    return json.dumps(args[0] if args else kwargs.get("spec"), sort_keys=True)


def _platform_layer(args, kwargs) -> str:
    return "gpu" if args[0].platform.is_gpu else "cpumodel"


def install_case_layers(probe: Probe) -> None:
    """generate, sptensor and cpumodel/gpu: the work inside one case."""
    import repro.bench.executor as executor
    from repro.bench.runner import SuiteRunner, TensorBundle

    probe.wrap(executor, "materialize_tensor", "generate", note=_spec_note)
    probe.wrap(TensorBundle, "prepare", "sptensor.prepare")
    probe.wrap(SuiteRunner, "run_kernel", _platform_layer)


def case_layer_metrics(res, probe: Probe) -> None:
    """generate / sptensor / cpumodel / gpu / runstore.append metrics."""
    s, notes = probe.samples, probe.notes
    # Distinct tensors are distinct generation specs; every prepare
    # call bundles one materialized tensor.
    tensors = len(set(notes.get("generate", ()))) or 1
    for layer, prefix in (("generate", "generate."), ("sptensor.prepare", "sptensor.prepare_")):
        calls = s.get(layer, [])
        if calls:
            res.put(f"{prefix}calls_per_tensor", len(calls) / tensors, "ratio", len(calls))
            res.put(f"{prefix}p50_s", median(calls), "s", len(calls))
    if s.get("generate"):
        res.put("generate.total_s", sum(s["generate"]), "s", len(s["generate"]))
    for layer in ("cpumodel", "gpu"):
        if s.get(layer):
            res.put(f"{layer}.p50_s", median(s[layer]), "s", len(s[layer]))
    appends = s.get("runstore.append", [])
    if appends:
        res.put("runstore.append_p50_s", median(appends), "s", len(appends))
        sizes = notes["runstore.append"]
        res.put("runstore.line_bytes", median(sizes), "bytes", len(sizes))


def install_executor_layers(probe: Probe) -> None:
    """executor attempts and run-store journal appends."""
    from repro.bench.executor import CaseRunner
    from repro.bench.runstore import RunStore

    probe.wrap(CaseRunner, "attempt", "executor.attempt")
    probe.wrap(
        RunStore, "append_record", "runstore.append",
        note=lambda a, kw, r: len(json.dumps(r, separators=(",", ":"))),
    )


def install_daemon_layers(probe: Probe) -> None:
    """Everything the serve daemon does for a request."""
    import repro.serve.daemon as daemon
    import repro.serve.protocol as protocol
    from repro.bench.runstore import RunStore
    from repro.serve.cache import ResultCache

    install_case_layers(probe)
    install_executor_layers(probe)
    probe.wrap(RunStore, "load", "runstore.load")
    probe.wrap(daemon, "build_sweep_cases", "serve.enumerate")
    probe.wrap(ResultCache, "lookup", "serve.lookup")
    probe.wrap(protocol, "encode", "serve.encode")


def install_ingest_layers(probe: Probe) -> None:
    """Streaming ingestion: batch decomposition, window pushes, queries."""
    import repro.ingest as ingest
    from repro.stream import SlidingWindowTensor

    probe.wrap(ingest.WindowBlocker, "decompose", "ingest.decompose")
    probe.wrap(ingest.WindowBlocker, "snapshot", "ingest.snapshot")
    probe.wrap(SlidingWindowTensor, "push", "stream.window_push")
    for kernel in ("ttv", "mttkrp"):
        for fmt in ("coo", "hicoo"):
            probe.wrap(ingest, f"{fmt}_{kernel}", f"kernels.window.{kernel}.{fmt}")


#: Layer sets a subprocess hook can install, by name.
SUBPROCESS_LAYERS = {
    "case": install_case_layers,
    "daemon": install_daemon_layers,
}
