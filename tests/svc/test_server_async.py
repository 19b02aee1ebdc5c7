"""Async frontend semantics: keep-alive, pipelining, mass long-polls.

These tests poke the event loop with raw sockets — the concurrency
properties under test (many parked connections, pipelined requests, a
single reused socket) are exactly what an HTTP client library would
paper over.
"""

import itertools
import logging
import os
import socket
import threading
import time

import pytest

from repro.svc import JobSpec, ReproClient, ReproService
from repro.svc.http import DEFERRED, AsyncHTTPFrontend
from repro.svc.jobs import JobRecord
from repro.testing import ThreadSchedulePin

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") and not hasattr(os, "posix_spawn"),
    reason="service tests need a POSIX process model",
)


def _recv_response(sock_file):
    """Read one HTTP/1.1 response off a socket file; returns (status, body)."""
    status_line = sock_file.readline().decode("latin-1")
    status = int(status_line.split(" ")[1])
    length = 0
    while True:
        line = sock_file.readline().decode("latin-1").strip()
        if not line:
            break
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, sock_file.read(length)


@pytest.fixture()
def service():
    svc = ReproService(slots=2, queue_size=8).start()
    yield svc
    svc.close()


def _note_parks(monkeypatch, n=1):
    """Return an Event the loop sets once ``n`` long-polls have parked."""
    parked, count = threading.Event(), itertools.count(1)
    handle_get_job = ReproService._handle_get_job

    def noting(service, request, token):
        result = handle_get_job(service, request, token)
        if result is DEFERRED and next(count) >= n:
            parked.set()
        return result

    monkeypatch.setattr(ReproService, "_handle_get_job", noting)
    return parked


class TestKeepAlive:
    def test_connection_reused_across_requests(self, service):
        sock = socket.create_connection((service.host, service.port), timeout=5)
        try:
            f = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
                status, body = _recv_response(f)
                assert status == 200
                assert b'"status": "ok"' in body
        finally:
            sock.close()

    def test_pipelined_requests_served_in_order(self, service):
        sock = socket.create_connection((service.host, service.port), timeout=5)
        try:
            # Two requests in one write: the loop must answer both, in order.
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            f = sock.makefile("rb")
            status1, body1 = _recv_response(f)
            status2, body2 = _recv_response(f)
            assert (status1, status2) == (200, 200)
            assert b'"status"' in body1 and b'"jobs"' in body2
        finally:
            sock.close()

    def test_connection_close_honored(self, service):
        sock = socket.create_connection((service.host, service.port), timeout=5)
        try:
            sock.sendall(
                b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            f = sock.makefile("rb")
            status, _body = _recv_response(f)
            assert status == 200
            assert f.read() == b""  # server closed after the response
        finally:
            sock.close()

    def test_client_reuses_and_reconnects_transparently(self, service):
        client = ReproClient(service.address)
        client.health()
        conn = client._conn
        assert conn is not None  # keep-alive connection cached
        client.health()
        assert client._conn is conn  # ... and reused
        # Stale socket: the next GET must reconnect and succeed.
        conn.sock.shutdown(socket.SHUT_RDWR)
        assert client.health()["status"] == "ok"
        assert client._conn is not conn
        client.close()

    def test_stale_socket_post_is_not_retried(self, service):
        """A POST on a stale socket raises instead of silently replaying.

        The failure may strike after the server accepted the job, so an
        automatic resend would double-submit; only idempotent GETs get
        the transparent one-shot retry.
        """
        client = ReproClient(service.address)
        client.health()
        conn = client._conn
        assert conn is not None
        conn.sock.shutdown(socket.SHUT_RDWR)
        with pytest.raises(OSError):
            client._request(
                "POST",
                "/jobs",
                body=JobSpec(
                    app="figure4", bug="error1", trials=1, timeout=0.2
                ).to_json(),
            )
        assert service.list_jobs() == []  # nothing was submitted twice (or once)
        # The client recovers on the next request with a fresh socket.
        assert client.health()["status"] == "ok"
        client.close()

    def test_deep_pipelining_does_not_blow_the_stack(self, service):
        """500 pipelined requests in one write are all answered in order.

        The write-drain path re-enters the request pump; without its
        re-entrancy guard this recursed a few frames per buffered
        request and a burst like this killed the event-loop thread with
        RecursionError.
        """
        n = 500
        sock = socket.create_connection((service.host, service.port), timeout=30)
        try:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n" * n)
            f = sock.makefile("rb")
            for _ in range(n):
                status, body = _recv_response(f)
                assert status == 200
                assert b'"status": "ok"' in body
            # The loop is still alive and the connection still usable.
            sock.sendall(b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n")
            status, body = _recv_response(f)
            assert status == 200 and b'"jobs"' in body
        finally:
            sock.close()


class TestLoopCallbacks:
    def test_a_raising_callback_or_timer_is_counted_and_the_loop_runs_on(
        self, service, caplog
    ):
        frontend = service._frontend
        ran = threading.Event()

        def boom():
            raise RuntimeError("injected")

        with caplog.at_level(logging.ERROR, logger="repro.svc.http"):
            frontend.schedule(boom)
            frontend.schedule(lambda: frontend.call_later(0.0, boom))
            frontend.schedule(ran.set)
            assert ran.wait(5)
            # The 0 s timer fires in the same loop pass as ran.set, so
            # before the loop reads this request.
            client = ReproClient(service.address)
            assert client.health()["status"] == "ok"
            client.close()

        snap = service.metrics.snapshot()
        assert snap["svc.http.callback_errors"]["value"] == 2
        records = [r for r in caplog.records if r.name == "repro.svc.http"]
        assert len(records) == 2
        assert all(r.exc_info and r.exc_info[0] is RuntimeError for r in records)


class TestMalformedRequests:
    def test_bad_request_line_400(self, service):
        sock = socket.create_connection((service.host, service.port), timeout=5)
        try:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, _ = _recv_response(sock.makefile("rb"))
            assert status == 400
        finally:
            sock.close()

    def test_oversized_headers_413(self, service):
        sock = socket.create_connection((service.host, service.port), timeout=5)
        try:
            # Just past the 64 KiB cap: the server drains everything we
            # sent before erroring, so the close is a clean FIN and the
            # 413 is reliably readable (no RST from unread bytes).
            sock.sendall(b"GET / HTTP/1.1\r\nX-Junk: " + b"a" * 66_000)
            status, _ = _recv_response(sock.makefile("rb"))
            assert status == 413
        finally:
            sock.close()


class TestMassLongPolls:
    def test_many_parked_connections_on_one_job(self, gate, monkeypatch):
        """64 clients long-poll one held job; all wake on completion.

        Under the old thread-per-connection frontend this cost 64
        blocked threads; the event loop parks them all and completes
        them from the job's subscriber callback.
        """
        parked = _note_parks(monkeypatch, 64)
        svc = ReproService(slots=1, queue_size=8, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            job_id = client.submit(
                JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
            )
            socks = []
            req = (
                f"GET /jobs/{job_id}?wait=30 HTTP/1.1\r\nHost: x\r\n\r\n"
            ).encode()
            for _ in range(64):
                s = socket.create_connection((svc.host, svc.port), timeout=60)
                s.sendall(req)
                socks.append(s)
            # Once all 64 are parked the job may finish, and every
            # waiter gets the same terminal record.
            assert parked.wait(60)
            gate.release()
            done = 0
            for s in socks:
                status, body = _recv_response(s.makefile("rb"))
                assert status == 200
                assert b'"state": "done"' in body
                done += 1
                s.close()
            assert done == 64
        finally:
            svc.close()

    def test_disconnected_waiter_is_counted_and_job_survives(self, gate, monkeypatch):
        parked, disconnected = _note_parks(monkeypatch), threading.Event()
        on_disconnect = ReproService._on_parked_disconnect

        def noting(service, token):
            on_disconnect(service, token)
            disconnected.set()

        monkeypatch.setattr(ReproService, "_on_parked_disconnect", noting)
        svc = ReproService(slots=1, queue_size=8, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            job_id = client.submit(
                JobSpec(app="figure4", bug="error1", trials=2, timeout=0.2)
            )
            # The gate holds the job, so this waiter really parks.
            s = socket.create_connection((svc.host, svc.port), timeout=5)
            s.sendall(
                f"GET /jobs/{job_id}?wait=30 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            assert parked.wait(30)
            s.close()  # vanish mid-wait
            assert disconnected.wait(30)
            gate.release()
            record = client.wait(job_id, timeout=60)
            assert record["state"] == "done"
            snap = client.metrics()
            assert snap["svc.http.disconnects"]["value"] >= 1
        finally:
            svc.close()

    def test_timed_out_poll_never_answers_a_later_request(self, gate, monkeypatch):
        """A stale long-poll callback must not misdeliver across requests.

        Sequence on ONE keep-alive socket: long-poll job A with a short
        wait (deadline answers "running"), then park a long long-poll
        for job B.  When A later completes, its completion callback must
        be gone (unsubscribed at the deadline) — and even a straggler
        can only match its own request token — so the parked request
        gets *B's* terminal record, never A's.
        """
        parked = _note_parks(monkeypatch, 2)
        svc = ReproService(slots=1, queue_size=8, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            spec = JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
            job_a = client.submit(spec)
            job_b = client.submit(spec)  # queued behind A on the single slot
            sock = socket.create_connection((svc.host, svc.port), timeout=60)
            try:
                f = sock.makefile("rb")
                sock.sendall(
                    f"GET /jobs/{job_a}?wait=0.2 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                status, body = _recv_response(f)
                assert status == 200
                assert b'"state": "done"' not in body  # deadline fired first
                sock.sendall(
                    f"GET /jobs/{job_b}?wait=30 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                # A finishes while B's poll is parked; the answer must
                # wait for B and carry B's record.
                assert parked.wait(30)
                gate.release()
                gate.started()  # A is done, B runs
                gate.release()
                status, body = _recv_response(f)
                assert status == 200
                assert f'"id": "{job_b}"'.encode() in body
                assert b'"state": "done"' in body
            finally:
                sock.close()
        finally:
            svc.close()

    def test_long_poll_timeout_returns_nonterminal_record(self, gate):
        svc = ReproService(slots=1, queue_size=8, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            job_id = client.submit(
                JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
            )
            t0 = time.monotonic()
            record = client.result(job_id, wait=0.2)
            elapsed = time.monotonic() - t0
            assert record["state"] in ("queued", "running")
            assert elapsed < 1.0  # the timer fired, not the job
            gate.release()
            final = client.wait(job_id, timeout=60)
            assert final["state"] == "done"
        finally:
            svc.close()


#: Pinned orders of one long-poll against its job's completion, which
#: is the slot thread's hand-back of the outcome to the loop.  Each label
#: is a point a test-installed wrapper holds until its turn.
_COMPLETION_ORDERS = {
    # The slot hands the outcome back after _handle_get_job read
    # ``record.terminal`` (False) and before it subscribes: the loop
    # settles the job after the GET has parked, in the same pass.
    "between-check-and-subscribe": ["checked", "completed", "subscribe"],
    # The slot hands the outcome back once the GET has parked: the
    # record's subscriber answers the parked request.
    "after-park": ["parked", "completed"],
}


class TestLongPollCompletionOrder:
    @pytest.mark.parametrize("order", sorted(_COMPLETION_ORDERS))
    def test_one_answer_per_long_poll_in_either_order(self, order, monkeypatch):
        """Concurrent breakpoints pin where the job completes relative to
        one long-poll; in both orders the poll gets exactly one ``200``
        with the done record, long before its ``wait=``, and the next
        request on the same keep-alive socket gets its own answer."""
        # The test's own last point waits until every pinned point ran.
        pin = ThreadSchedulePin(_COMPLETION_ORDERS[order] + ["end"], timeout=30)

        def point(label):
            if label in pin.order:
                with pin.at(label):
                    pass

        subscribe, schedule = JobRecord.subscribe, AsyncHTTPFrontend.schedule
        handle_get_job = ReproService._handle_get_job

        def pinned_subscribe(record, callback):
            point("checked")
            if "subscribe" in pin.order:
                with pin.at("subscribe"):
                    return subscribe(record, callback)
            return subscribe(record, callback)

        def pinned_schedule(frontend, fn):
            settle = getattr(getattr(fn, "func", None), "__name__", None) == "_settle"
            if settle and "completed" in pin.order:
                with pin.at("completed"):
                    return schedule(frontend, fn)
            return schedule(frontend, fn)

        def pinned_handle_get_job(service, request, token):
            result = handle_get_job(service, request, token)
            if result is DEFERRED:
                point("parked")
            return result

        monkeypatch.setattr(JobRecord, "subscribe", pinned_subscribe)
        monkeypatch.setattr(AsyncHTTPFrontend, "schedule", pinned_schedule)
        monkeypatch.setattr(ReproService, "_handle_get_job", pinned_handle_get_job)
        svc = ReproService(slots=1, queue_size=4).start()
        try:
            job_id = ReproClient(svc.address).submit(
                JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
            )
            sock = socket.create_connection((svc.host, svc.port), timeout=30)
            try:
                f = sock.makefile("rb")
                sock.sendall(
                    f"GET /jobs/{job_id}?wait=600 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                status, body = _recv_response(f)
                assert status == 200
                assert f'"id": "{job_id}"'.encode() in body
                assert b'"state": "done"' in body
                sock.sendall(b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n")
                status, body = _recv_response(f)
                assert status == 200
                assert body.startswith(b'{"jobs": [')
            finally:
                sock.close()
            point("end")
        finally:
            svc.close()
