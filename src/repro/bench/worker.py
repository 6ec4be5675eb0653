"""Warm worker subprocess: run sweep cases, one JSON line each way.

Each executor thread of :class:`~repro.bench.executor.CaseRunner`
starts one long-lived

    python -m repro.bench.worker

and writes one case payload per line to its stdin: ``{"case":
<SweepCase.to_dict()>, "attempt": n, "faults": {...}}`` plus an
optional ``"trace"`` trace-context dict.  For each payload the worker
writes one verdict line — ``{"ok": true, "record": ...}`` or ``{"ok":
false, "error": ...}`` — to its protocol fd (the original stdout).  At
start-up the worker points fd 1, and with it ``sys.stdout``, at stderr,
so a stray print cannot corrupt the protocol.  Stdin EOF ends the loop
and the worker exits 0, running its ``atexit`` hooks.

A *handled* kernel failure is data, not a crash: it becomes an error
verdict.  Only a hard death (injected ``kill_attempts`` fault, OOM,
segfault) leaves no verdict — the parent sees EOF and classifies a
crash; an injected hang never answers and is killed at the parent's
per-case timeout.  The parent replaces its worker after any of the
three, so every retry runs in a fresh interpreter.

Consecutive cases of one tensor share its preparation: the worker keeps
the :class:`~repro.bench.runner.TensorBundle` of the last tensor it ran
(one entry, keyed by everything :meth:`TensorBundle.prepare` reads), so
a tensor-grouped case list materializes each tensor once per worker.

When a trace context rides in (the payload's ``trace`` key), the attempt
runs under a fresh installed :class:`~repro.obs.tracer.Tracer` carrying
the request's trace_id, and the verdict additionally ships ``"trace"``
(the frozen span buffer, :meth:`Trace.to_dict`) and ``"metrics"`` (the
registry dump) home for the parent to fold in — without a context the
verdict is byte-identical to an untraced worker's.  The registry is
cleared after every verdict, so each dump holds one attempt's metrics
and the parent never counts an attempt twice.
"""

from __future__ import annotations

import json
import os
import sys
import time


class BundleCache:
    """The prepared bundle of the last tensor this worker ran."""

    def __init__(self):
        self._key = None
        self._bundle = None

    def get(self, case):
        key = (case.tensor, case.tensor_spec, case.block_size, case.rank, case.base_seed)
        if key != self._key:
            from repro.bench.executor import prepare_bundle

            # Drop the old bundle before building the next one.
            self._key = self._bundle = None
            self._bundle = prepare_bundle(case)
            self._key = key
        return self._bundle


def run_payload(payload: dict, bundles: BundleCache) -> dict:
    """One case payload -> its verdict dict (see the module docstring)."""
    from repro.bench.executor import execute_case, match_fault
    from repro.bench.runner import SweepCase
    from repro.obs.context import TraceContext, install_context
    from repro.obs.registry import get_metrics

    case = SweepCase.from_dict(payload["case"])
    attempt = int(payload.get("attempt", 0))
    faults = payload.get("faults") or {}
    fault = match_fault(case, faults)
    if attempt < int(fault.get("kill_attempts", 0)):
        # Simulated hard worker death: no verdict, nonzero exit, no
        # cleanup — exactly what the parent's crash path must absorb.
        os._exit(13)
    if attempt < int(fault.get("hang_attempts", 0)):
        # Simulated hang; the parent kills us at its per-case timeout.
        time.sleep(float(fault.get("hang_s", 3600.0)))

    raw_context = payload.get("trace")
    context = TraceContext.from_dict(raw_context) if raw_context else None
    tracer = previous_context = None
    if context is not None:
        from repro.obs.tracer import Tracer

        tracer = Tracer(
            trace_id=context.trace_id,
            meta={
                "process": f"worker {case.fingerprint}",
                "parent_span": context.parent_span,
                "fingerprint": case.fingerprint,
            },
        ).install()
        previous_context = install_context(context)

    t0 = time.perf_counter()
    try:
        record = execute_case(case, attempt, faults, bundle=bundles.get(case))
    except Exception as exc:  # noqa: BLE001 - the verdict carries it
        verdict = {
            "ok": False,
            "fingerprint": case.fingerprint,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_s": time.perf_counter() - t0,
        }
    else:
        verdict = {
            "ok": True,
            "fingerprint": case.fingerprint,
            "seed": case.case_seed,
            "record": record.to_dict(),
            "elapsed_s": time.perf_counter() - t0,
        }
    if tracer is not None:
        # Telemetry rides home in the verdict on both the success and
        # the handled-failure path — a failing case's spans are exactly
        # the ones worth seeing in the merged trace.
        tracer.uninstall()
        install_context(previous_context)
        verdict["trace"] = tracer.freeze().to_dict()
        verdict["metrics"] = get_metrics().as_dict()
    get_metrics().clear()
    return verdict


def serve(lines, out) -> int:
    """Answer every case line of ``lines`` with one verdict line on ``out``."""
    bundles = BundleCache()
    for line in lines:
        if not line.strip():
            continue
        verdict = run_payload(json.loads(line), bundles)
        out.write(json.dumps(verdict) + "\n")
        out.flush()
    return 0


def main() -> int:
    if sys.argv[1:]:
        from repro.obs.log import get_logger

        get_logger("repro.bench.worker").error(
            "usage", expected="python -m repro.bench.worker (cases on stdin)"
        )
        return 2
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    with protocol:
        return serve(sys.stdin, protocol)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
