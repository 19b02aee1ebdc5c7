"""Async frontend semantics: keep-alive, pipelining, mass long-polls.

These tests poke the event loop with raw sockets — the concurrency
properties under test (many parked connections, pipelined requests, a
single reused socket) are exactly what an HTTP client library would
paper over.
"""

import logging
import os
import socket
import threading
import time

import pytest

from repro.svc import JobSpec, ReproClient, ReproService

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") and not hasattr(os, "posix_spawn"),
    reason="service tests need a POSIX process model",
)


def _slow_hook(spec, attempt):
    """Fault hook: stretch every job to ~1s (module-level, picklable)."""
    time.sleep(1.0)


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
    def test_many_parked_connections_on_one_job(self):
        """64 clients long-poll one slow job; all wake on completion.

        Under the old thread-per-connection frontend this cost 64
        blocked threads; the event loop parks them all and completes
        them from the job's subscriber callback.
        """
        svc = ReproService(slots=1, queue_size=8, fault_hook=_slow_hook).start()
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
            # All 64 are parked now; the job finishes ~1s in and every
            # waiter gets the same terminal record.
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

    def test_disconnected_waiter_is_counted_and_job_survives(self):
        svc = ReproService(slots=1, queue_size=8, fault_hook=_slow_hook).start()
        try:
            client = ReproClient(svc.address)
            job_id = client.submit(
                JobSpec(app="figure4", bug="error1", trials=2, timeout=0.2)
            )
            # The slow hook holds the job ~1s, so this waiter really parks.
            s = socket.create_connection((svc.host, svc.port), timeout=5)
            s.sendall(
                f"GET /jobs/{job_id}?wait=30 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            time.sleep(0.2)  # let the loop park the connection
            s.close()  # vanish mid-wait
            record = client.wait(job_id, timeout=60)
            assert record["state"] == "done"
            deadline = time.monotonic() + 5
            snap = {}
            while time.monotonic() < deadline:
                snap = client.metrics()
                if snap.get("svc.http.disconnects", {}).get("value", 0) >= 1:
                    break
                time.sleep(0.05)
            assert snap["svc.http.disconnects"]["value"] >= 1
        finally:
            svc.close()

    def test_timed_out_poll_never_answers_a_later_request(self):
        """A stale long-poll callback must not misdeliver across requests.

        Sequence on ONE keep-alive socket: long-poll job A with a short
        wait (deadline answers "running"), then park a long long-poll
        for job B.  When A later completes, its completion callback must
        be gone (unsubscribed at the deadline) — and even a straggler
        can only match its own request token — so the parked request
        gets *B's* terminal record, never A's.
        """
        svc = ReproService(slots=1, queue_size=8, fault_hook=_slow_hook).start()
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
                # A finishes (~1s) while B's poll is parked; the answer
                # must wait for B (~2s) and carry B's record.
                status, body = _recv_response(f)
                assert status == 200
                assert f'"id": "{job_b}"'.encode() in body
                assert b'"state": "done"' in body
            finally:
                sock.close()
        finally:
            svc.close()

    def test_long_poll_timeout_returns_nonterminal_record(self):
        svc = ReproService(slots=1, queue_size=8, fault_hook=_slow_hook).start()
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
            final = client.wait(job_id, timeout=60)
            assert final["state"] == "done"
        finally:
            svc.close()
