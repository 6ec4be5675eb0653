"""Versioned JSON-lines wire protocol of the serve daemon.

One request per line, one or more response lines per request:

* request — ``{"v": 1, "id": "<client-chosen>", "op": "sweep",
  "params": {...}}``; ``id`` correlates responses on a multiplexed
  connection (many requests may be in flight per connection).
* response — ``{"v": 1, "id": ..., "ok": bool, "kind": "progress" |
  "result" | "error", "payload": {...}}``.  A request yields zero or
  more ``progress`` lines followed by exactly one terminal ``result``
  (``ok=true``) or ``error`` (``ok=false``).

The key sets below are pinned by ``tests/test_golden_schema.py`` —
scripted clients parse these lines, so wire drift must fail CI.  Bump
:data:`PROTOCOL_VERSION` on any backwards-incompatible change.
"""

from __future__ import annotations

import json

#: Bumped on any backwards-incompatible wire change.
PROTOCOL_VERSION = 1

#: Longest wire line either side reads (the asyncio stream ``limit``).
#: A sweep result carries one record per case, so it must fit a full
#: sweep's records; a longer request line is answered with an error.
MAX_LINE_BYTES = 16 * 1024 * 1024

OP_SWEEP = "sweep"
OP_REPORT = "report"
OP_REGRESS = "regress"
OP_STATUS = "status"
OP_HEALTH = "health"
OPS = (OP_SWEEP, OP_REPORT, OP_REGRESS, OP_STATUS, OP_HEALTH)

KIND_PROGRESS = "progress"
KIND_RESULT = "result"
KIND_ERROR = "error"
RESPONSE_KINDS = (KIND_PROGRESS, KIND_RESULT, KIND_ERROR)

REQUEST_KEYS = ("v", "id", "op", "params")
#: Optional request keys (absent = feature off; additive, so the
#: protocol version stays 1 and old clients/daemons interoperate).
REQUEST_OPTIONAL_KEYS = ("trace",)
#: Shape of the optional ``trace`` request field — the distributed
#: trace context a client injects so daemon + worker spans share its
#: trace_id (see :mod:`repro.obs.context`).  ``trace_id`` is required.
TRACE_KEYS = ("trace_id", "parent_span", "baggage")
RESPONSE_KEYS = ("v", "id", "ok", "kind", "payload")

#: Accepted ``params`` keys per op (all optional unless noted).
SWEEP_PARAM_KEYS = ("dataset", "tensors", "platforms", "scale", "seed", "rank")
REPORT_PARAM_KEYS = ("format",)
#: ``baseline`` (a run store or BENCH_*.json path) is required.
REGRESS_PARAM_KEYS = (
    "baseline", "threshold", "confidence", "resamples", "min_pairs", "seed",
)
STATUS_PARAM_KEYS = ()
HEALTH_PARAM_KEYS = ()
PARAM_KEYS = {
    OP_SWEEP: SWEEP_PARAM_KEYS,
    OP_REPORT: REPORT_PARAM_KEYS,
    OP_REGRESS: REGRESS_PARAM_KEYS,
    OP_STATUS: STATUS_PARAM_KEYS,
    OP_HEALTH: HEALTH_PARAM_KEYS,
}

#: ``result`` payload keys per op.
SWEEP_RESULT_KEYS = (
    "total",        # cases the request enumerated
    "hits",         # served straight from the cache
    "misses",       # not in cache (coalesced + executed)
    "coalesced",    # misses attached to an already-inflight execution
    "executed",     # misses this request queued for execution
    "completed",    # fingerprints with a record after the request
    "quarantined",  # fingerprints that exhausted retries
    "fingerprints", # full case-order fingerprint list
    "records",      # PerfRecord dicts, case order, quarantined omitted
)
REPORT_RESULT_KEYS = ("format", "nrecords", "report")
REGRESS_RESULT_KEYS = ("baseline", "candidate", "exit_code", "report")
STATUS_RESULT_KEYS = (
    "protocol", "store", "fingerprint_schema", "records", "quarantined",
    "inflight", "workers", "isolation", "counters",
)
HEALTH_RESULT_KEYS = (
    "protocol",        # wire protocol version
    "uptime_s",        # seconds since the daemon accepted connections
    "store",           # run-store path
    "records",         # completed records in the cache
    "quarantined",     # quarantined fingerprints in the cache
    "inflight",        # cases executing right now
    "queued",          # cases sitting in scheduler deques
    "workers",         # scheduler pool width
    "steals",          # work-stealing victim grabs so far
    "requests",        # requests served (all ops)
    "errors",          # requests that ended in an error response
    "cache_hits",      # sweep cases served from cache
    "cache_misses",    # sweep cases not in cache
    "cache_hit_rate",  # hits / (hits + misses), null before any sweep
    "request_seconds", # {"count", "sum", "p50", "p95", "p99"} latency
)
#: Keys of the ``request_seconds`` latency summary inside ``health``.
HEALTH_LATENCY_KEYS = ("count", "sum", "p50", "p95", "p99")
PROGRESS_KEYS = ("total", "hits", "done", "pending")

#: Counter/histogram names the daemon feeds through the metrics
#: registry (scraped via the Prometheus endpoint or ``status``).
SERVE_COUNTERS = (
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.coalesced",
    "serve.errors",
    "serve.executed",
    "serve.quarantined",
    "serve.requests",
    "serve.steals",
)
SERVE_HISTOGRAMS = ("serve.request_seconds",)


class ProtocolError(ValueError):
    """A wire object that violates the pinned schema."""


def make_request(
    op: str,
    params: "dict | None" = None,
    id: str = "0",
    trace: "dict | None" = None,
) -> dict:
    """A validated request object.

    ``trace`` (optional) is a trace-context dict (:data:`TRACE_KEYS`)
    propagating the client's trace_id into the daemon.
    """
    obj = {
        "v": PROTOCOL_VERSION, "id": str(id), "op": op,
        "params": dict(params or {}),
    }
    if trace is not None:
        obj["trace"] = dict(trace)
    return validate_request(obj)


def validate_request(obj) -> dict:
    """Check a decoded request against the pinned schema; returns it."""
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    missing = set(REQUEST_KEYS) - set(obj)
    extra = set(obj) - set(REQUEST_KEYS) - set(REQUEST_OPTIONAL_KEYS)
    if missing or extra:
        raise ProtocolError(
            f"request keys {sorted(obj)} != {sorted(REQUEST_KEYS)}"
            f" (+ optional {sorted(REQUEST_OPTIONAL_KEYS)})"
        )
    if "trace" in obj:
        _validate_trace(obj["trace"])
    if obj["v"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {obj['v']!r} != {PROTOCOL_VERSION}"
        )
    op = obj["op"]
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    params = obj["params"]
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {type(params).__name__}")
    allowed = set(PARAM_KEYS[op])
    unknown = set(params) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown {op} param(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    if op == OP_REGRESS and "baseline" not in params:
        raise ProtocolError("regress requires params.baseline")
    return obj


def _validate_trace(trace) -> None:
    if not isinstance(trace, dict):
        raise ProtocolError(
            f"trace must be an object, got {type(trace).__name__}"
        )
    unknown = set(trace) - set(TRACE_KEYS)
    if unknown:
        raise ProtocolError(
            f"unknown trace key(s) {sorted(unknown)}; allowed: {sorted(TRACE_KEYS)}"
        )
    trace_id = trace.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        raise ProtocolError("trace.trace_id must be a non-empty string")
    if not isinstance(trace.get("parent_span", ""), str):
        raise ProtocolError("trace.parent_span must be a string")
    if not isinstance(trace.get("baggage", {}), dict):
        raise ProtocolError("trace.baggage must be an object")


def make_response(id: str, kind: str, payload: dict) -> dict:
    """A validated response object (``ok`` derives from ``kind``)."""
    return validate_response(
        {
            "v": PROTOCOL_VERSION,
            "id": str(id),
            "ok": kind != KIND_ERROR,
            "kind": kind,
            "payload": dict(payload),
        }
    )


def error_response(id: str, message: str) -> dict:
    return make_response(id, KIND_ERROR, {"error": str(message)})


def validate_response(obj) -> dict:
    """Check a decoded response against the pinned schema; returns it."""
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"response must be a JSON object, got {type(obj).__name__}"
        )
    if set(obj) != set(RESPONSE_KEYS):
        raise ProtocolError(
            f"response keys {sorted(obj)} != {sorted(RESPONSE_KEYS)}"
        )
    if obj["v"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {obj['v']!r} != {PROTOCOL_VERSION}"
        )
    if obj["kind"] not in RESPONSE_KINDS:
        raise ProtocolError(
            f"unknown response kind {obj['kind']!r}; expected {RESPONSE_KINDS}"
        )
    if obj["ok"] != (obj["kind"] != KIND_ERROR):
        raise ProtocolError(f"ok={obj['ok']!r} inconsistent with kind={obj['kind']!r}")
    if not isinstance(obj["payload"], dict):
        raise ProtocolError(
            f"payload must be an object, got {type(obj['payload']).__name__}"
        )
    return obj


def encode(obj: dict) -> bytes:
    """One wire line (newline-terminated canonical JSON)."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: "bytes | str") -> dict:
    """Parse one wire line into a dict (schema NOT yet validated)."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        obj = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable wire line: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"wire line must be a JSON object, got {type(obj).__name__}"
        )
    return obj
