"""Client library for the reproduction service (``repro.svc.client``).

A thin, dependency-free (stdlib ``http.client``) wrapper over the
``repro.svc/1`` protocol.  The high-level helpers mirror the library
API, so moving a workload onto the daemon is a one-line change::

    from repro.svc.client import ReproClient

    client = ReproClient("http://127.0.0.1:8642")
    stats = client.run_trials("stringbuffer", bug="atomicity1", n=100)
    # `stats` is a repro.harness.TrialStats, bit-identical to the
    # in-process repro.harness.run_trials(...) call for the same seeds.

Backpressure is handled transparently: a ``503`` with a retry hint
sleeps and resubmits (bounded attempts), so a burst of clients behaves
like a queue, not like an error storm.

The client keeps **one persistent keep-alive connection** to the
service (the async frontend holds it open across requests), so a
submit/poll/poll/... sequence pays one TCP handshake, not one per
request — the difference shows up in the throughput bench's client
micro-section.  A *GET* that fails on a reused socket (the server
restarted, the connection idled out) is transparently retried exactly
once on a fresh connection — GETs are idempotent, so the retry is safe
even if the server had processed the original.  Non-idempotent
requests (``POST /jobs``) are never auto-retried: the failure may have
struck after the job was accepted, and a replay would submit it twice.
A client that disconnects mid-wait still loses nothing: results live on
the server until evicted and ``wait`` simply re-polls.  One client
instance drives one connection and is **not thread-safe** — give each
thread its own (they are cheap: no socket until the first request).
"""

from __future__ import annotations

import http.client
import time
import urllib.parse
from typing import Any, Dict, Optional

from repro.harness.stats import TrialStats

from . import protocol
from .jobs import JobSpec, failure_from_wire, stats_from_wire

__all__ = ["ServiceError", "BackpressureError", "JobFailed", "ReproClient"]


class ServiceError(RuntimeError):
    """An HTTP-level error from the service (carries the status code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class BackpressureError(ServiceError):
    """The service kept shedding this client past its submission budget.

    ``status`` distinguishes the global signal (503: the queue itself is
    full) from the tenant-local one (429: this tenant is over its fair
    share while other tenants are active).
    """

    def __init__(
        self,
        message: str,
        retry_after: Optional[float],
        status: int = 503,
    ) -> None:
        super().__init__(status, message)
        self.retry_after = retry_after


class JobFailed(RuntimeError):
    """The job reached the ``failed`` state; carries the TrialFailure."""

    def __init__(self, record: Dict[str, Any]) -> None:
        failure = record.get("failure") or {}
        super().__init__(
            f"job {record.get('id')} failed: kind={failure.get('kind')} "
            f"after {failure.get('attempts')} attempt(s): {failure.get('message')}"
        )
        self.record = record
        self.failure = failure_from_wire(failure) if failure else None


class ReproClient:
    """Synchronous client for one service address.

    ``base_url`` is ``http://host:port`` (the scheme is required);
    ``timeout`` bounds each individual HTTP request, *not* job
    completion — long waits are split into bounded long-poll rounds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlparse(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"expected an http://host:port URL, got {base_url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Drop the cached keep-alive connection (reopened on demand)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        conn.connect()
        return conn

    def _once(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> tuple:
        """One request/response on ``conn``; returns ``(resp, raw)``."""
        if conn.sock is not None:
            # Per-request deadline: a reused connection keeps its socket,
            # so the constructor timeout alone would go stale.
            conn.sock.settimeout(timeout)
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()  # fully drain so the connection is reusable
        return resp, raw

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> tuple:
        """One request/response cycle; returns ``(status, doc)``.

        Reuses the cached keep-alive connection when one exists.  If a
        *GET* on a *reused* socket fails, retry exactly once on a fresh
        connection — GETs are idempotent, so even a request the server
        did process (the failure hit while reading the response, not
        the stale socket) is safe to replay.  Non-GET failures always
        propagate: retrying a ``POST /jobs`` whose response was lost
        would double-submit the job.  A fresh connection failing also
        propagates.
        """
        budget = timeout if timeout is not None else self.timeout
        payload = protocol.dumps(body) if body is not None else None
        headers = {"Content-Type": protocol.CONTENT_TYPE} if payload else {}
        conn, reused = self._conn, self._conn is not None
        self._conn = None
        if conn is None:
            conn = self._connect(budget)
        try:
            resp, raw = self._once(conn, method, path, payload, headers, budget)
        except (http.client.HTTPException, OSError):
            conn.close()
            if not reused or method != "GET":
                raise
            conn = self._connect(budget)
            try:
                resp, raw = self._once(conn, method, path, payload, headers, budget)
            except Exception:
                conn.close()
                raise
        if resp.will_close:
            conn.close()
        else:
            self._conn = conn
        return resp.status, protocol.loads(raw) if raw else {}

    @staticmethod
    def _check(status: int, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Raise :class:`ServiceError` for any non-2xx response."""
        if status >= 400:
            raise ServiceError(status, doc.get("error", "unknown error"))
        return doc

    # ------------------------------------------------------------------
    # Endpoint surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /health``."""
        return self._check(*self._request("GET", "/health"))

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` — the service's registry snapshot."""
        return self._check(*self._request("GET", "/metrics"))

    def jobs(self) -> list:
        """``GET /jobs`` — summaries of every known job."""
        return self._check(*self._request("GET", "/jobs"))["jobs"]

    def drain(self) -> Dict[str, Any]:
        """``POST /drain`` — ask the service to drain gracefully."""
        return self._check(*self._request("POST", "/drain"))

    # -- router ring administration (fleet only) -----------------------
    def ring(self) -> Dict[str, Any]:
        """``GET /ring`` — the router's ring membership document."""
        return self._check(*self._request("GET", "/ring"))

    def ring_add(self, peer: str) -> Dict[str, Any]:
        """``POST /ring`` add: join ``peer`` to a running router's ring.

        The router probes the peer's ``/health`` before admitting it, so
        a typo'd or dead URL fails loudly (502) instead of black-holing
        a slice of the key space.
        """
        return self._check(
            *self._request("POST", "/ring", body={"action": "add", "peer": peer})
        )

    def ring_remove(
        self, peer: str, drain_timeout: float = 30.0
    ) -> Dict[str, Any]:
        """``POST /ring`` remove: drain ``peer``'s in-flight jobs, then
        drop it from the ring.

        The router stops routing *new* jobs to the peer immediately and
        waits up to ``drain_timeout`` seconds for jobs already routed
        there to finish — zero dropped jobs.  The response's
        ``"drained"`` flag reports whether the wait completed.
        """
        return self._check(
            *self._request(
                "POST",
                "/ring",
                body={
                    "action": "remove",
                    "peer": peer,
                    "drain_timeout": drain_timeout,
                },
                timeout=max(self.timeout, drain_timeout + 10.0),
            )
        )

    def submit(
        self,
        spec: JobSpec,
        *,
        max_wait: float = 60.0,
    ) -> str:
        """Submit one job, riding out backpressure; returns the job id.

        A ``503 + retry_after`` (queue full) or ``429 + retry_after``
        (tenant over its fair share) response sleeps the hinted interval
        and resubmits until ``max_wait`` seconds have been burned, then
        raises :class:`BackpressureError` carrying the status.  A
        draining service raises immediately (retrying a shutdown is
        pointless).
        """
        body = spec.to_json()
        deadline = time.monotonic() + max_wait
        while True:
            status, doc = self._request("POST", "/jobs", body=body)
            if status == 202:
                return doc["id"]
            if status == 503 and doc.get("draining"):
                raise BackpressureError("service is draining", None)
            if status in (503, 429):
                hint = float(doc.get("retry_after", 0.5))
                if time.monotonic() + hint > deadline:
                    raise BackpressureError(
                        doc.get("error", "queue full"), hint, status=status
                    )
                time.sleep(hint)
                continue
            self._check(status, doc)
            raise ServiceError(status, f"unexpected submission response {doc!r}")

    def result_raw(self, job_id: str, wait: Optional[float] = None) -> tuple:
        """``GET /jobs/<id>`` returning ``(status, doc)`` without raising.

        The fleet router forwards upstream responses verbatim, so it
        needs the status code even (especially) when it is not 2xx.
        """
        path = f"/jobs/{urllib.parse.quote(job_id)}"
        timeout = self.timeout
        if wait is not None:
            path += f"?wait={wait:g}"
            timeout = max(self.timeout, wait + 10.0)
        return self._request("GET", path, timeout=timeout)

    def result(self, job_id: str, wait: Optional[float] = None) -> Dict[str, Any]:
        """``GET /jobs/<id>`` — one poll, optionally long (``wait`` s)."""
        return self._check(*self.result_raw(job_id, wait=wait))

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll: float = 10.0,
    ) -> Dict[str, Any]:
        """Block until the job is terminal; returns the full record.

        Raises :class:`JobFailed` when the job's attempts were exhausted
        and ``TimeoutError`` when ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            round_wait = poll
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")
                round_wait = min(poll, remaining)
            record = self.result(job_id, wait=round_wait)
            if record["state"] == "failed":
                raise JobFailed(record)
            if record["state"] == "done":
                return record

    # ------------------------------------------------------------------
    # High-level helpers (mirror the library API)
    # ------------------------------------------------------------------
    def run_trials(
        self,
        app: str,
        bug: Optional[str] = None,
        n: int = 100,
        *,
        timeout: float = 0.100,
        base_seed: int = 0,
        flip_order: bool = False,
        use_policies: bool = True,
        params: Optional[Dict[str, Any]] = None,
        workers: int = 0,
        trial_timeout: Optional[float] = None,
        collect_metrics: bool = False,
        job_timeout: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        tenant: str = "anon",
    ) -> TrialStats:
        """Remote :func:`repro.harness.run_trials`: submit, wait, decode.

        The returned :class:`TrialStats` is bit-identical to the direct
        call with the same arguments (the service's transport-layer
        guarantee, enforced by ``tests/svc/test_differential.py``).
        """
        spec = JobSpec(
            kind="trials",
            app=app,
            bug=bug,
            trials=n,
            timeout=timeout,
            base_seed=base_seed,
            flip_order=flip_order,
            use_policies=use_policies,
            params=dict(params or {}),
            workers=workers,
            trial_timeout=trial_timeout,
            collect_metrics=collect_metrics,
            job_timeout=job_timeout,
            tenant=tenant,
        )
        record = self.wait(self.submit(spec), timeout=wait_timeout)
        return stats_from_wire(record["result"])

    def explore(
        self,
        app: str,
        bug: Optional[str] = None,
        *,
        dpor: bool = False,
        sleep_sets: bool = False,
        workers: int = 0,
        max_schedules: int = 2000,
        seed: int = 0,
        timeout: float = 0.100,
        job_timeout: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        tenant: str = "anon",
    ) -> Dict[str, Any]:
        """Remote :func:`repro.harness.explore_app`; returns the summary
        dict (schedule counts, hit fractions, DPOR stats, witnesses)."""
        spec = JobSpec(
            kind="explore",
            app=app,
            bug=bug,
            dpor=dpor,
            sleep_sets=sleep_sets,
            workers=workers,
            max_schedules=max_schedules,
            seed=seed,
            timeout=timeout,
            job_timeout=job_timeout,
            tenant=tenant,
        )
        record = self.wait(self.submit(spec), timeout=wait_timeout)
        return record["result"]

    def infer(
        self,
        app: str,
        *,
        seed: int = 0,
        trials: int = 20,
        timeout: float = 0.100,
        base_seed: int = 0,
        use_policies: bool = True,
        params: Optional[Dict[str, Any]] = None,
        workers: int = 0,
        steer_attempts: int = 5,
        job_timeout: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        tenant: str = "anon",
    ):
        """Remote :func:`repro.infer.infer_app`: submit, wait, decode.

        Returns the reconstructed
        :class:`~repro.infer.report.InferenceReport`, bit-identical to
        the direct in-process call with the same arguments (the wire
        form is lossless; ``tests/infer/`` enforces the differential).
        """
        from repro.infer.report import InferenceReport

        spec = JobSpec(
            kind="infer",
            app=app,
            seed=seed,
            trials=trials,
            timeout=timeout,
            base_seed=base_seed,
            use_policies=use_policies,
            params=dict(params or {}),
            workers=workers,
            steer_attempts=steer_attempts,
            job_timeout=job_timeout,
            tenant=tenant,
        )
        record = self.wait(self.submit(spec), timeout=wait_timeout)
        return InferenceReport.from_wire(record["result"])
