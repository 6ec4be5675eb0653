"""Clients of the serve daemon: blocking, asyncio, and readiness probe.

:class:`ServeClient` is the scripting surface (``repro client`` wraps
it): one Unix-socket connection, sequential requests, streamed
``progress`` lines surfaced through a callback.  :func:`async_request`
is the asyncio equivalent used by the concurrency tests to hold many
overlapping requests open at once.  Both raise :class:`ServeError` when
the daemon answers with an ``error`` response.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time

from repro.serve import protocol


class ServeError(RuntimeError):
    """The daemon reported an error for a request."""


def wait_for_socket(path, timeout_s: float = 10.0, interval_s: float = 0.05) -> None:
    """Block until a daemon accepts connections on ``path``.

    The socket file appearing is not enough — a starting (or freshly
    killed) daemon may leave a path that refuses connections — so this
    probes with a real connect until one succeeds.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
                return
            except OSError:
                pass
            finally:
                probe.close()
        if time.monotonic() >= deadline:
            raise ServeError(f"no daemon accepting on {path} after {timeout_s:g}s")
        time.sleep(interval_s)


class ServeClient:
    """One blocking connection to the daemon (context-manager friendly)."""

    def __init__(self, socket_path, timeout_s: "float | None" = None):
        self.socket_path = os.fspath(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(self.socket_path)
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def request(
        self,
        op: str,
        params: "dict | None" = None,
        on_progress=None,
        trace: "dict | None" = None,
    ) -> dict:
        """Send one request; block to its terminal response.

        Returns the ``result`` payload; ``progress`` payloads stream
        through ``on_progress``; an ``error`` response raises
        :class:`ServeError`.  ``trace`` (a trace-context dict, e.g.
        ``TraceContext(...).to_dict()``) propagates the client's
        trace_id into the daemon's spans.
        """
        self._next_id += 1
        rid = str(self._next_id)
        self._sock.sendall(
            protocol.encode(protocol.make_request(op, params, id=rid, trace=trace))
        )
        while True:
            line = self._file.readline()
            if not line:
                raise ServeError(
                    f"connection to {self.socket_path} closed mid-request"
                )
            response = protocol.validate_response(protocol.decode(line))
            if response["id"] != rid:
                raise ServeError(
                    f"response id {response['id']!r} != request id {rid!r} "
                    f"on a sequential connection"
                )
            if response["kind"] == protocol.KIND_PROGRESS:
                if on_progress is not None:
                    on_progress(response["payload"])
                continue
            if response["kind"] == protocol.KIND_ERROR:
                raise ServeError(response["payload"].get("error", "unknown error"))
            return response["payload"]


async def async_request(
    socket_path,
    op: str,
    params: "dict | None" = None,
    on_progress=None,
    trace: "dict | None" = None,
) -> dict:
    """One request over a fresh asyncio connection (concurrency tests).

    Each call owns its connection, so ``asyncio.gather`` over many calls
    exercises the daemon's multi-client path end to end.
    """
    reader, writer = await asyncio.open_unix_connection(
        os.fspath(socket_path), limit=protocol.MAX_LINE_BYTES
    )
    try:
        writer.write(
            protocol.encode(protocol.make_request(op, params, id="1", trace=trace))
        )
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                raise ServeError(f"connection to {socket_path} closed mid-request")
            response = protocol.validate_response(protocol.decode(line))
            if response["kind"] == protocol.KIND_PROGRESS:
                if on_progress is not None:
                    on_progress(response["payload"])
                continue
            if response["kind"] == protocol.KIND_ERROR:
                raise ServeError(response["payload"].get("error", "unknown error"))
            return response["payload"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
