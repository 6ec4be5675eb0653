"""Observability layer: span tracing, counters, and trace analytics.

Enable with ``Tracer().install()`` (or ``with Tracer() as t: ...``); the
backends, scatter-add workspaces, GPU cost model, and kernels feed the
installed tracer automatically.  Disabled (the default), every
instrumentation site costs one branch on the process-global null tracer.
"""

from repro.obs.analytics import (
    TraceStats,
    WorkerStats,
    analyze,
    imbalance_factor,
    rollup_gauges,
    worker_busy,
)
from repro.obs.attribution import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    RooflineAttribution,
    attach_to_trace,
    attribute,
    classify_boundedness,
    effective_bandwidth_gbs,
)
from repro.obs.context import (
    ContextError,
    TraceContext,
    activate_context,
    current_context,
    derive_span_id,
    install_context,
    new_trace_id,
)
from repro.obs.export import (
    chrome_trace,
    flame_summary,
    load_chrome,
    merge_traces,
    save_chrome,
    write_jsonl,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.registry import (
    MetricsError,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.tracer import (
    CAT_CASE,
    CAT_CHUNK,
    CAT_GPU,
    CAT_KERNEL,
    CAT_REGION,
    CAT_REQUEST,
    CAT_SCHED,
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Trace,
    Tracer,
    current_tracer,
    scoped_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "scoped_tracer",
    "Trace",
    "SpanEvent",
    "CAT_REGION",
    "CAT_CASE",
    "CAT_CHUNK",
    "CAT_KERNEL",
    "CAT_GPU",
    "CAT_REQUEST",
    "CAT_SCHED",
    "TraceContext",
    "ContextError",
    "new_trace_id",
    "derive_span_id",
    "current_context",
    "activate_context",
    "install_context",
    "get_logger",
    "configure_logging",
    "TraceStats",
    "WorkerStats",
    "analyze",
    "worker_busy",
    "imbalance_factor",
    "rollup_gauges",
    "RooflineAttribution",
    "attribute",
    "attach_to_trace",
    "classify_boundedness",
    "effective_bandwidth_gbs",
    "MEMORY_BOUND",
    "COMPUTE_BOUND",
    "MetricsRegistry",
    "MetricsError",
    "get_metrics",
    "set_metrics",
    "chrome_trace",
    "merge_traces",
    "save_chrome",
    "load_chrome",
    "write_jsonl",
    "flame_summary",
]
