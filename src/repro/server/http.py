"""Zero-dependency HTTP/JSON front-end over :class:`DiscoveryService`.

Stdlib only — one :mod:`asyncio` event loop on one thread serves every
connection — because the repo's rule is that the serving stack must run
anywhere the library does.  The front-end is a thin translation layer:
parse, call the service, serialize; every semantic decision (admission,
fairness, lifecycle) lives in :mod:`repro.server.service` where tests
reach it without a socket.

Routes (all payloads are versioned wire envelopes, see
:mod:`repro.api.wire`)::

    POST   /v1/sessions            open a session  {tenant, catalog?}
    GET    /v1/sessions/{id}       describe a session
    DELETE /v1/sessions/{id}       close a session
    POST   /v1/runs                submit  {session, request, priority?}
    GET    /v1/runs/{id}           status / terminal run record
    DELETE /v1/runs/{id}           cooperative cancel
    GET    /v1/runs/{id}/events    typed event stream as SSE
    GET    /metrics                Prometheus exposition (per-tenant labels)
    GET    /healthz                liveness probe

Requests are HTTP/1.1 with a ``Content-Length`` body, keep-alive and
pipelined ones answered in order.  One the parser cannot frame (any
``Transfer-Encoding``, a head over the limits below, a bad request line
or ``Content-Length``) gets a 400 and the connection is closed.

Failures are typed :class:`~repro.api.errors.ReproError`\\ s; the
front-end maps ``http_status`` onto the response line, serializes the
error envelope as the body, and adds ``Retry-After`` (whole seconds,
rounded up) for :class:`~repro.api.errors.Overloaded` — one taxonomy,
one mapping.

SSE frames follow the eventsource contract: ``event:`` carries the
event's ``kind``, ``data:`` its wire JSON, ``id:`` its sequence number.
The stream ends after the terminal ``run-completed`` event.  A client
that disconnects mid-stream only unregisters its watcher — the run is
never cancelled by a lost subscriber; only an explicit ``DELETE`` does
that.
"""

from __future__ import annotations

import asyncio
import math
import socket
import threading
from email.utils import formatdate
from http import HTTPStatus
from typing import Optional

from repro.api.errors import InvalidRequest, NotFound, Overloaded, ReproError
from repro.api.wire import (
    dumps,
    envelope,
    error_to_wire,
    event_to_wire,
    loads,
    open_envelope,
)
from repro.obs.logcfg import get_logger
from repro.server.service import DiscoveryService

_log = get_logger("server.http")

#: Largest request body the server will read (a request is a small JSON
#: description; anything bigger is a mistake or an attack).
MAX_BODY_BYTES = 1 << 20
#: Largest request head and most header fields (the stdlib's limits).
MAX_HEAD_BYTES = 1 << 16
MAX_HEADERS = 100
#: An event stream's fields: no Content-Length, it ends when the connection closes.
_SSE_FIELDS = "Content-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n"


class DiscoveryHTTPServer:
    """An event loop on its own daemon thread serving one service."""

    def __init__(self, address, service: DiscoveryService):
        self.service = service
        self._tasks: set = set()  # one per open connection
        listener = socket.create_server(address)  # OSError: cannot bind
        self.server_address = listener.getsockname()
        self._loop = asyncio.new_event_loop()
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._accept, sock=listener, limit=MAX_HEAD_BYTES)
        )
        self._thread = threading.Thread(target=self._run, name="repro-http", daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Stop accepting; open connections are served until server_close."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._server.close)

    def server_close(self) -> None:
        """Close every connection and stop the loop thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, drain the service.

        Returns the service's drain verdict (``True`` = every run
        reached a terminal state in time).
        """
        self.shutdown()
        clean = self.service.shutdown(timeout=timeout)
        self.server_close()
        return clean

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._server.close()
            for task in self._tasks:
                task.cancel()
            self._loop.run_until_complete(asyncio.gather(*self._tasks, return_exceptions=True))
            self._loop.close()

    def _accept(self, reader, writer) -> None:
        task = self._loop.create_task(self._serve(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(self, reader, writer) -> None:
        """Answer one connection's requests in order until it closes."""
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                    method, path, version, headers, length = _parse_head(head[:-4])
                    if length and headers.get("expect") == "100-continue":
                        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    body = await reader.readexactly(length)
                except (InvalidRequest, asyncio.LimitOverrunError) as error:
                    # A framing error: nothing after it can be trusted.
                    if not isinstance(error, InvalidRequest):
                        error = InvalidRequest(f"request head over {MAX_HEAD_BYTES} bytes")
                    writer.write(_response(_failure(error, ""), close=True))
                    return
                close = version == "HTTP/1.0" or headers.get("connection") == "close"
                parts = [p for p in path.split("/") if p]
                stream = None
                try:
                    if parts[:2] == ["v1", "runs"] and parts[3:] == ["events"] and method == "GET":
                        stream = _EventStream(writer, self.service, parts[2])
                    elif parts == ["v1", "sessions"] and method == "POST":
                        # Opening a session may call a catalog factory: off the loop.
                        answer = await asyncio.to_thread(_route, self.service, method, parts, body)
                    else:
                        answer = _route(self.service, method, parts, body)
                except Exception as error:  # noqa: BLE001 - boundary: an answer, not a crash
                    answer = _failure(error, path)
                if stream is not None:
                    try:
                        stream.flush()
                        await reader.read(1)  # the client leaves (or speaks), or flush closes
                    finally:
                        stream.run.unwatch(stream.watcher)
                    return
                writer.write(_response(answer, close))
                if close:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the client went away; its runs are untouched
        finally:
            writer.close()


def serve(
    service: DiscoveryService, host: str = "127.0.0.1", port: int = 0
) -> DiscoveryHTTPServer:
    """Bind and start serving on a daemon thread; returns the server
    (``server.url`` has the bound address — ``port=0`` picks a free
    one).  Call ``server.drain()`` to stop."""
    server = DiscoveryHTTPServer((host, port), service)
    _log.info("serving", url=server.url)
    return server


class _EventStream:
    """One SSE subscriber: its watcher schedules one flush on the loop per
    batch of events, and the flush writes every new frame at once."""

    def __init__(self, writer, service: DiscoveryService, run_id: str):
        self.writer, self.loop = writer, asyncio.get_running_loop()
        self.pending, self.sent, self.prefix = False, 0, _head(200, _SSE_FIELDS)
        # An unknown run raises NotFound before a byte is written: a clean 404.
        self.run = service.subscribe(run_id, self.watcher)

    def watcher(self) -> None:
        """Called on whichever thread appended an event."""
        if not self.pending:
            self.pending = True
            try:
                self.loop.call_soon_threadsafe(self.flush)
            except RuntimeError:
                pass  # the loop is closed: the server is gone

    def flush(self) -> None:
        self.pending = False  # before the read, so no event is left behind
        if self.writer.is_closing():
            return
        events, done = self.run.events_since(self.sent)
        self.writer.write(self.prefix + "".join(
            f"event: {event.kind}\nid: {self.sent + offset}\n"
            f"data: {dumps(event_to_wire(event)).decode('utf-8')}\n\n"
            for offset, event in enumerate(events)
        ).encode("utf-8"))
        self.prefix, self.sent = b"", self.sent + len(events)
        if done:
            self.writer.close()


def _route(service: DiscoveryService, method: str, parts: list, body: bytes) -> tuple:
    """The answer ``(status, body, content type, extra header lines)``."""
    if parts == ["healthz"] and method == "GET":
        return _json(200, {"status": "ok"})
    if parts == ["metrics"] and method == "GET":
        return 200, service.metrics_prometheus().encode(), "text/plain; version=0.0.4", ""
    if parts == ["v1", "sessions"] and method == "POST":
        fields = open_envelope(loads(body))
        session = service.create_session(fields.get("tenant"), fields.get("catalog"))
        return _json(201, {"session": session})
    if parts == ["v1", "runs"] and method == "POST":
        fields = open_envelope(loads(body))
        if not isinstance(fields.get("request"), dict):
            raise InvalidRequest(
                "submission must carry its discovery request (field 'request')",
                details={"field": "request"},
            )
        session_id, priority = str(fields.get("session", "")), fields.get("priority", 0)
        return _json(202, {"run": service.submit(session_id, fields["request"], priority=priority)})
    if len(parts) == 3 and parts[:2] in (["v1", "sessions"], ["v1", "runs"]):
        if method not in ("GET", "DELETE"):
            raise InvalidRequest(f"{method} not supported here")
        if parts[1] == "sessions":
            session = (service.get_session if method == "GET" else service.close_session)(parts[2])
            return _json(200, {"session": session})
        run = (service.status if method == "GET" else service.cancel)(parts[2])
        return _json(200, {"run": run})
    raise NotFound(f"no route for {method} /{'/'.join(parts)}")


def _parse_head(head: bytes) -> tuple:
    """``(method, path, version, headers, body length)`` of a request
    head; :class:`InvalidRequest` for anything this server won't frame."""
    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3 or not all(request_line) or request_line[2][:7] != "HTTP/1.":
        raise InvalidRequest(f"malformed request line {lines[0][:80]!r}")
    if len(lines) > MAX_HEADERS + 1:
        raise InvalidRequest(f"more than {MAX_HEADERS} header fields")
    headers: dict = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        name, value = name.lower(), value.strip().lower()
        if not colon or not name or name != name.strip() or (
            name == "content-length" and headers.get(name, value) != value
        ):
            raise InvalidRequest(f"malformed or conflicting header field {line[:80]!r}")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise InvalidRequest("Transfer-Encoding is not supported; send a Content-Length")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise InvalidRequest(f"invalid Content-Length {length[:40]!r}")
    if int(length) > MAX_BODY_BYTES:
        raise InvalidRequest(f"request body too large ({length} > {MAX_BODY_BYTES} bytes)")
    path = request_line[1].split("?", 1)[0].rstrip("/")
    return request_line[0], path, request_line[2], headers, int(length)


def _head(status: int, fields: str) -> bytes:
    return (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nServer: repro-discovery\r\n"
        f"Date: {formatdate(usegmt=True)}\r\n{fields}\r\n"
    ).encode("latin-1")


def _response(answer: tuple, close: bool) -> bytes:
    status, body, content_type, extra = answer
    extra += "Connection: close\r\n" if close else ""
    return _head(
        status, f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n{extra}"
    ) + body


def _json(status: int, payload: dict) -> tuple:
    return status, dumps(envelope(payload)), "application/json", ""


def _failure(error: BaseException, path: str) -> tuple:
    """A typed error keeps its status; anything else is logged, a 500."""
    if not isinstance(error, ReproError):
        _log.error("unhandled", path=path, error=repr(error))
    wired = error_to_wire(error)
    extra = (f"Retry-After: {math.ceil(error.retry_after)}\r\n"
             if isinstance(error, Overloaded) else "")
    return wired["error"]["http_status"], dumps(wired), "application/json", extra
