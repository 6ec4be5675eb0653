"""Trace-context propagation across threads and worker subprocesses.

The tracer (:mod:`repro.obs.tracer`) records what happened inside *one*
process; a served sweep crosses at least three — client, daemon, and
warm worker subprocesses.  A :class:`TraceContext` is the
correlation envelope that stitches them back together:

* ``trace_id`` — one id per logical request, minted at the edge (the
  client or the daemon) and carried unchanged through every hop, so all
  spans of a request share it no matter which process recorded them;
* ``parent_span`` — the span id of the hop that spawned this context
  (:func:`derive_span_id` derives ids deterministically from the trace
  id and stable parts such as case fingerprints, so a replayed sweep
  produces identical span ids);
* ``baggage`` — small, propagated key/value annotations.

Contexts cross process boundaries as plain dicts (the serve protocol's
optional ``trace`` request field, the worker case-payload JSON); inside
a process they are held thread-locally (:func:`activate_context`) over
a process-global default (:func:`install_context`), mirroring how the
tracer itself is scoped.  Everything here is inert unless something
installs a context: with no context and a disabled tracer the serving
stack behaves byte-identically to an untraced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from dataclasses import dataclass, field


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random; one per logical request)."""
    return os.urandom(8).hex()


def derive_span_id(trace_id: str, *parts) -> str:
    """A deterministic 16-hex-digit span id from the trace id and parts.

    Span ids derive from stable identities (case fingerprint, attempt
    number, request sequence) rather than randomness, so the parent and
    the child process compute the *same* id independently — that is what
    lets :func:`repro.obs.export.merge_traces` link a worker trace back
    to the exact ``case`` span that spawned it.
    """
    text = "\x1f".join([str(trace_id)] + [str(p) for p in parts])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class ContextError(ValueError):
    """A malformed trace-context wire form."""


@dataclass(frozen=True)
class TraceContext:
    """One hop's view of a distributed trace (immutable).

    ``baggage`` is canonicalized to sorted ``(key, value)`` string pairs
    so equal contexts compare and serialize identically regardless of
    construction order.
    """

    trace_id: str
    parent_span: str = ""
    baggage: tuple = field(default=())

    def __post_init__(self):
        if not self.trace_id or not isinstance(self.trace_id, str):
            raise ContextError(
                f"trace_id must be a non-empty string, got {self.trace_id!r}"
            )
        items = (
            self.baggage.items()
            if isinstance(self.baggage, dict)
            else self.baggage
        )
        canonical = tuple(sorted((str(k), str(v)) for k, v in items))
        object.__setattr__(self, "baggage", canonical)
        object.__setattr__(self, "parent_span", str(self.parent_span or ""))

    def child(self, span_id: str) -> "TraceContext":
        """The context a hop hands to work it spawns under ``span_id``."""
        return TraceContext(
            trace_id=self.trace_id, parent_span=str(span_id),
            baggage=self.baggage,
        )

    # -- wire forms ----------------------------------------------------- #
    def to_dict(self) -> dict:
        """The pinned wire form (serve protocol ``trace`` field, worker
        payload)."""
        return {
            "trace_id": self.trace_id,
            "parent_span": self.parent_span,
            "baggage": dict(self.baggage),
        }

    @classmethod
    def from_dict(cls, d) -> "TraceContext":
        if not isinstance(d, dict):
            raise ContextError(
                f"trace context must be an object, got {type(d).__name__}"
            )
        unknown = set(d) - {"trace_id", "parent_span", "baggage"}
        if unknown:
            raise ContextError(f"unknown trace context key(s) {sorted(unknown)}")
        return cls(
            trace_id=d.get("trace_id", ""),
            parent_span=d.get("parent_span", ""),
            baggage=d.get("baggage") or (),
        )


# --------------------------------------------------------------------- #
# Current-context scoping: thread-local overlay over a process global,
# mirroring the tracer's install()/scoped discipline.
# --------------------------------------------------------------------- #
_TLS = threading.local()
_GLOBAL: "TraceContext | None" = None


def current_context() -> "TraceContext | None":
    """The active context: this thread's, else the process-global one."""
    ctx = getattr(_TLS, "context", None)
    return ctx if ctx is not None else _GLOBAL


@contextlib.contextmanager
def activate_context(context: "TraceContext | None"):
    """Make ``context`` current on this thread for the ``with`` body.

    The serve daemon's pool threads use this so concurrent traced
    requests never see each other's contexts.
    """
    prev = getattr(_TLS, "context", None)
    _TLS.context = context
    try:
        yield context
    finally:
        _TLS.context = prev


def install_context(context: "TraceContext | None") -> "TraceContext | None":
    """Set the process-global default context; returns the previous one.

    Used at process edges (the ``repro sweep --trace`` CLI, the worker
    subprocess) where every thread should inherit the request context.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = context
    return previous
