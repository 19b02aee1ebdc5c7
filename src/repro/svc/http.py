"""Async HTTP/1.1 frontend: one selectors event loop, thousands of conns.

The PR-4 frontend was a ``ThreadingHTTPServer`` — one OS thread per
connection, which caps concurrent clients at the thread budget and makes
every parked long-poll cost a blocked stack.  This module replaces it
with a single-threaded :mod:`selectors` event loop shared by the daemon
(:mod:`repro.svc.server`) and the fleet router
(:mod:`repro.svc.router`):

* **Connections are state machines, not threads.**  Each accepted
  socket is a :class:`_Conn` holding a read buffer, an incremental
  HTTP/1.1 parser (request line + headers + ``Content-Length`` body) and
  a write buffer; ``select()`` multiplexes all of them.  An idle
  keep-alive connection or a parked long-poll costs a few hundred bytes,
  so holding thousands of clients is free — the property the throughput
  bench leans on at high client concurrency.
* **Keep-alive by default.**  HTTP/1.1 semantics: the connection is
  reused for the next request unless either side says
  ``Connection: close``; pipelined bytes already buffered are served in
  order.  This pairs with :class:`~repro.svc.client.ReproClient`'s
  persistent connections — one TCP handshake per client, not per
  request.
* **Deferred responses.**  A handler may return :data:`DEFERRED`
  instead of a :class:`Response`; the connection is *parked* (still
  watched for disconnect) until some other thread calls
  :meth:`AsyncHTTPFrontend.complete`.  Long-polls (``GET
  /jobs/<id>?wait=``) and the router's upstream forwards ride this: the
  event loop never blocks on job completion or an upstream daemon.
* **One owner thread.**  The daemon and the router keep their state on
  the loop thread.  Their slot and forwarder threads hand work to the
  loop via :meth:`schedule` (a self-pipe wakeup), any thread reads or
  changes that state via :meth:`call`, and the loop owns a timer heap
  (:meth:`call_later`) for deadlines — no polling, no busy loops.  A
  callback or timer that raises does not stop the loop: the exception
  is counted in ``svc.http.callback_errors`` and logged with its
  traceback on the ``repro.svc.http`` logger.

The wire semantics (JSON bodies, status codes, header shapes) are
unchanged from ``repro.svc/1``; this file is purely the concurrency
substrate.
"""

from __future__ import annotations

import heapq
import logging
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional, Tuple

from . import protocol

__all__ = ["DEFERRED", "Request", "Response", "AsyncHTTPFrontend"]

_log = logging.getLogger(__name__)

#: Sentinel a handler returns to park the connection for a later
#: :meth:`AsyncHTTPFrontend.complete` call.
DEFERRED = object()

#: Hard caps keeping one abusive client from ballooning the loop.
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024
_RECV_CHUNK = 65536

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class Request:
    """One parsed HTTP request (method, split path/query, body bytes)."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body


class Response:
    """One JSON response: status + body dict + optional extra headers."""

    __slots__ = ("status", "body", "headers", "close")

    def __init__(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        self.status = status
        self.body = body
        self.headers = headers
        self.close = close


class _Timer:
    """A cancellable deadline callback owned by the event loop."""

    __slots__ = ("when", "fn", "cancelled")

    def __init__(self, when: float, fn: Callable[[], None]) -> None:
        self.when = when
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Make the pending callback a no-op (loop thread only)."""
        self.cancelled = True

    def __lt__(self, other: "_Timer") -> bool:
        return self.when < other.when


class _ParkToken:
    """Identity of one deferred request on one connection.

    :meth:`AsyncHTTPFrontend.complete` matches on this token, never on
    the connection, so a stale callback left over from an earlier
    long-poll round can never deliver its response to a *later* request
    riding the same keep-alive socket.
    """

    __slots__ = ("conn", "answered")

    def __init__(self, conn: "_Conn") -> None:
        self.conn = conn
        self.answered = False

    @property
    def dead(self) -> bool:
        """True once this request can no longer receive a response."""
        return self.answered or self.conn.dead


class _Conn:
    """Per-connection state: buffers + incremental request parser."""

    __slots__ = (
        "sock", "rbuf", "wbuf", "park", "closing", "dead", "pumping",
        "_need_body", "_headers", "_reqline", "want_write",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        #: A handler deferred the response; the conn waits for a
        #: complete() carrying exactly this token.
        self.park: Optional[_ParkToken] = None
        #: Close once the write buffer drains.
        self.closing = False
        #: The socket is gone; every further operation is a no-op.
        self.dead = False
        #: _pump_requests re-entrancy guard (see that method).
        self.pumping = False
        self._need_body: Optional[int] = None
        self._headers: Optional[Dict[str, str]] = None
        self._reqline: Optional[Tuple[str, str, str]] = None
        self.want_write = False

    # -- parsing --------------------------------------------------------
    def next_request(self) -> Optional[Request]:
        """Pop one complete request off the read buffer (None = need data).

        Raises ``ValueError`` on a malformed or oversized request; the
        loop answers 400/413 and closes.
        """
        if self._need_body is None:
            end = self.rbuf.find(b"\r\n\r\n")
            if end < 0:
                if len(self.rbuf) > _MAX_HEADER_BYTES:
                    raise ValueError("request headers too large")
                return None
            head = bytes(self.rbuf[:end]).decode("latin-1")
            del self.rbuf[: end + 4]
            lines = head.split("\r\n")
            parts = lines[0].split(" ")
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                raise ValueError(f"malformed request line {lines[0]!r}")
            method, target, version = parts
            path, _, query = target.partition("?")
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                key, sep, value = line.partition(":")
                if not sep:
                    raise ValueError(f"malformed header line {line!r}")
                headers[key.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                raise ValueError("malformed Content-Length") from None
            if length < 0 or length > _MAX_BODY_BYTES:
                raise ValueError("request body too large")
            self._reqline = (method, path, query)
            self._headers = headers
            self._need_body = length
        assert self._need_body is not None and self._headers is not None
        if len(self.rbuf) < self._need_body:
            return None
        body = bytes(self.rbuf[: self._need_body])
        del self.rbuf[: self._need_body]
        method, path, query = self._reqline  # type: ignore[misc]
        request = Request(method, path, query, self._headers, body)
        self._need_body = None
        self._headers = None
        self._reqline = None
        return request


class AsyncHTTPFrontend:
    """A selectors-based HTTP/1.1 server running one event-loop thread.

    ``handler(request, token) -> Response | DEFERRED`` runs *on the loop
    thread* and must not block; a deferred handler parks the connection
    and some other thread later calls :meth:`complete(token, response)
    <complete>`.  ``on_disconnect(token)`` (optional) is invoked on the
    loop thread when a *parked* connection vanishes before its response.
    """

    def __init__(
        self,
        handler: Callable[[Request, Any], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: Any = None,
        on_disconnect: Optional[Callable[[Any], None]] = None,
        name: str = "svc-http",
    ) -> None:
        self._handler = handler
        self._host = host
        self._requested_port = port
        self._metrics = metrics
        self._on_disconnect = on_disconnect
        self._name = name
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._pending: "deque[Callable[[], None]]" = deque()
        self._pending_lock = threading.Lock()
        #: The loop takes calls (after start, until it stops); guarded
        #: by ``_pending_lock``.
        self._live = False
        self._timers: list = []
        self._conns: Dict[socket.socket, _Conn] = {}
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncHTTPFrontend":
        """Bind, listen, and run the event loop on a daemon thread."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(1024)
        listener.setblocking(False)
        self._listener = listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listen")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._thread = threading.Thread(
            target=self._loop, name=self._name, daemon=True
        )
        self._live = True
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._listener is not None, "frontend not started"
        return self._listener.getsockname()[1]

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop, close every connection, release the port (from
        the loop thread itself: once the current step is done)."""
        thread = self._thread
        if thread is None:
            return
        if thread is threading.current_thread():
            self._begin_stop()
            return
        self.schedule(self._begin_stop)
        thread.join(timeout=timeout)
        self._thread = None

    def _begin_stop(self) -> None:
        self._stopping = True

    # ------------------------------------------------------------------
    # Thread-safe entry points
    # ------------------------------------------------------------------
    def schedule(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread soon (callable from any thread)."""
        with self._pending_lock:
            self._pending.append(fn)
        self._wake()

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` where the state lives and return its value.

        While the loop runs, ``fn`` runs on the loop thread, the calling
        thread (never the loop's own) waits for it, and what ``fn``
        raises is raised here.  Before :meth:`start` and once the loop
        has stopped, the caller owns the state and runs ``fn`` itself.
        """
        future: "Future[Any]" = Future()

        def run() -> None:
            try:
                future.set_result(fn())
            except Exception as exc:  # noqa: BLE001 - raised on the caller
                future.set_exception(exc)

        with self._pending_lock:
            taken = self._live
            if taken:
                self._pending.append(run)
        if not taken:
            return fn()
        self._wake()
        return future.result()

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"x")
            except OSError:
                pass

    def complete(self, token: Any, response: Response) -> None:
        """Deliver the response of a previously deferred request.

        Callable from any thread.  Matching is by the per-request
        token, so a token that was already answered (deadline raced
        completion) or whose connection vanished (client disconnect,
        shutdown) is silently dropped — it can never answer a later
        request on the same socket.  The job result itself lives on the
        service, never on the socket.
        """
        self.schedule(lambda: self._complete_on_loop(token, response))

    # ------------------------------------------------------------------
    # Loop-thread-only helpers
    # ------------------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[[], None]) -> _Timer:
        """Arm a cancellable timer (loop thread only)."""
        timer = _Timer(time.monotonic() + max(0.0, delay), fn)
        heapq.heappush(self._timers, timer)
        return timer

    def _complete_on_loop(self, token: Any, response: Response) -> None:
        if not isinstance(token, _ParkToken) or token.dead:
            return
        conn = token.conn
        if conn.park is not token:
            return
        token.answered = True
        conn.park = None
        self._send_response(conn, response)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        """The event loop: select, dispatch, fire timers, repeat."""
        sel = self._selector
        assert sel is not None
        while True:
            if self._stopping:
                self._teardown()
                return
            timeout = 1.0
            while self._timers and self._timers[0].cancelled:
                heapq.heappop(self._timers)
            if self._timers:
                timeout = max(0.0, min(timeout, self._timers[0].when - time.monotonic()))
            for key, mask in sel.select(timeout):
                if key.data == "listen":
                    self._accept()
                elif key.data == "wake":
                    try:
                        self._wake_r.recv(4096)  # type: ignore[union-attr]
                    except OSError:
                        pass
                else:
                    conn: _Conn = key.data
                    try:
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if mask & selectors.EVENT_READ and not conn.dead:
                            self._read(conn)
                    except Exception:  # noqa: BLE001 - one broken conn must not kill the loop
                        self._close_conn(conn)
            while True:
                with self._pending_lock:
                    if not self._pending:
                        break
                    fn = self._pending.popleft()
                self._call(fn, "callback")
            now = time.monotonic()
            while self._timers and (
                self._timers[0].cancelled or self._timers[0].when <= now
            ):
                timer = heapq.heappop(self._timers)
                if not timer.cancelled:
                    self._call(timer.fn, "timer")

    def _call(self, fn: Callable[[], None], what: str) -> None:
        """Run one scheduled callback or timer; count and log what it raises."""
        try:
            fn()
        except Exception:  # noqa: BLE001 - a bad callback must not kill the loop
            if self._metrics is not None:
                self._metrics.counter("svc.http.callback_errors", volatile=True).inc()
            _log.exception("%s: a loop %s raised", self._name, what)

    def _teardown(self) -> None:
        """Close every socket, then run what is still scheduled, so no
        :meth:`call` the loop took waits on a loop that is gone."""
        sel = self._selector
        for conn in list(self._conns.values()):
            self._close_conn(conn, notify=False)
        if self._listener is not None:
            try:
                sel.unregister(self._listener)  # type: ignore[union-attr]
            except (KeyError, ValueError):
                pass
            self._listener.close()
        for s in (self._wake_r, self._wake_w):
            if s is not None:
                try:
                    s.close()
                except OSError:
                    pass
        if sel is not None:
            sel.close()
        with self._pending_lock:
            self._live = False
            left = list(self._pending)
            self._pending.clear()
        for fn in left:
            self._call(fn, "callback")

    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Conn(sock)
            self._conns[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            if self._metrics is not None:
                self._metrics.gauge("svc.http.connections", volatile=True).set(
                    len(self._conns)
                )

    def _close_conn(self, conn: _Conn, notify: bool = True) -> None:
        if conn.dead:
            return
        conn.dead = True
        parked_token = conn.park
        conn.park = None
        try:
            self._selector.unregister(conn.sock)  # type: ignore[union-attr]
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.sock, None)
        if self._metrics is not None:
            self._metrics.gauge("svc.http.connections", volatile=True).set(
                len(self._conns)
            )
        if notify and parked_token is not None and self._on_disconnect is not None:
            try:
                self._on_disconnect(parked_token)
            except Exception:  # noqa: BLE001
                pass

    # -- reading --------------------------------------------------------
    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.rbuf += data
        self._pump_requests(conn)

    def _pump_requests(self, conn: _Conn) -> None:
        """Serve every complete request buffered on ``conn`` in order.

        Re-entrancy guarded: ``_send_response`` → ``_flush`` lands back
        here whenever the write buffer drains on a keep-alive conn, so
        without the guard N pipelined requests buffered in one recv
        would recurse ~3 frames per request and a few hundred small
        requests could blow the stack on the loop thread.
        """
        if conn.pumping:
            return
        conn.pumping = True
        try:
            while not conn.dead and conn.park is None and not conn.closing:
                try:
                    request = conn.next_request()
                except ValueError as exc:
                    status = 413 if "too large" in str(exc) else 400
                    self._send_response(
                        conn,
                        Response(status, protocol.error_body(str(exc)), close=True),
                    )
                    return
                if request is None:
                    return
                if self._metrics is not None:
                    self._metrics.counter("svc.http.requests", volatile=True).inc()
                wants_close = request.headers.get("connection", "").lower() == "close"
                token = _ParkToken(conn)
                try:
                    result = self._handler(request, token)
                except Exception as exc:  # noqa: BLE001 - handler bug → 500, not loop death
                    result = Response(
                        500, protocol.error_body(f"internal error: {exc}")
                    )
                if result is DEFERRED:
                    conn.park = token
                    conn.closing = wants_close
                    return
                assert isinstance(result, Response)
                result.close = result.close or wants_close
                self._send_response(conn, result)
        finally:
            conn.pumping = False

    # -- writing --------------------------------------------------------
    def _send_response(self, conn: _Conn, response: Response) -> None:
        if conn.dead:
            return
        payload = protocol.dumps(response.body)
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {protocol.CONTENT_TYPE}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'close' if (response.close or conn.closing) else 'keep-alive'}",
        ]
        for key, value in (response.headers or {}).items():
            head.append(f"{key}: {value}")
        conn.wbuf += ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        if response.close:
            conn.closing = True
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.dead:
            return
        while conn.wbuf:
            try:
                sent = conn.sock.send(conn.wbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            del conn.wbuf[:sent]
        if conn.wbuf and not conn.want_write:
            conn.want_write = True
            self._selector.modify(  # type: ignore[union-attr]
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )
        elif not conn.wbuf:
            if conn.want_write:
                conn.want_write = False
                self._selector.modify(  # type: ignore[union-attr]
                    conn.sock, selectors.EVENT_READ, conn
                )
            if conn.closing:
                self._close_conn(conn, notify=False)
            else:
                # Keep-alive: a pipelined request may already be buffered.
                self._pump_requests(conn)
