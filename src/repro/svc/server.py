"""The reproduction daemon: async HTTP front end, lifecycle, drain.

:class:`ReproService` wires the pieces together — a bounded
:class:`~repro.svc.queue.BoundedJobQueue`, a
:class:`~repro.svc.executor.JobExecutor` driving one pre-forked worker
per slot, a metrics registry (:mod:`repro.obs`) and the selectors-based
:class:`~repro.svc.http.AsyncHTTPFrontend`.  The endpoint surface is
small and documented in :mod:`repro.svc.protocol`; everything
interesting lives in the lifecycle:

* **Admission** — ``POST /jobs`` validates the spec against the app
  registry, assigns an id, and enqueues; a full queue is answered with
  ``503`` + ``Retry-After`` (bounded backpressure, never unbounded
  buffering).
* **Results** — ``GET /jobs/<id>`` returns the record, optionally
  long-polling with ``?wait=SECONDS``.  A long-poll *parks* the
  connection in the event loop (no thread, no stack) until the job's
  completion callback or the deadline timer fires — thousands of
  waiting clients cost one loop thread.  Results stay readable after
  completion (a client that disconnected mid-wait just asks again — the
  job is never re-run).
* **Graceful drain** — SIGTERM (installed by :func:`serve_forever`) or
  ``POST /drain`` closes the queue (new submissions refused with
  ``503 draining``), lets queued and running jobs finish, then stops
  the worker pool and the HTTP listener.  Accepted work always
  completes, and its result stays readable: the listener stops once
  every finished job's result has been sent to a client, or
  ``_READ_GRACE`` seconds after the last worker retired.
* **Introspection** — ``GET /health`` (status, queue depth, slot
  utilization) and ``GET /metrics`` (the full ``svc.*`` registry
  snapshot incl. the ``svc.pool.*`` worker-pool and ``svc.http.*``
  frontend families) are what the smoke test and the throughput bench
  scrape.

**One thread owns the state.**  After :meth:`ReproService.start`, the
frontend's event-loop thread alone reads and writes the job table and
history, the fair queue, slot occupancy, tenant in-flight counts, the
latency EMA, the drain state, every record and the metrics registry.
Slot threads only run the job the loop hands them and hand the outcome
back (:mod:`repro.svc.executor`), so every daemon decision is one loop
step and ``/health`` is one consistent snapshot.  Once a drain has
settled the last job, the slot threads retire their workers, and the
listener stops in the loop step that sends the last unread result (or
fires the grace timer the last retirement armed).  Public
methods run on the loop through :meth:`AsyncHTTPFrontend.call
<repro.svc.http.AsyncHTTPFrontend.call>`; before :meth:`start` the
caller owns the state.
"""

from __future__ import annotations

import collections
import itertools
import signal
import threading
import urllib.parse
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry

from . import protocol
from .executor import JobExecutor
from .http import DEFERRED, AsyncHTTPFrontend, Request, Response
from .jobs import JobRecord, JobSpec, JobValidationError
from .pool import FaultHook
from .queue import BoundedJobQueue, QueueClosed, QueueFull, TenantOverShare

__all__ = ["ServiceDraining", "ReproService", "serve_forever"]

#: Finished-job records kept for late readers before eviction.
_HISTORY_LIMIT = 1024

#: Seconds a drained daemon keeps answering for finished jobs whose
#: results no client has been sent (a client that went away never asks).
_READ_GRACE = 5.0


class ServiceDraining(Exception):
    """Submission refused: the service is shutting down."""


class ReproService:
    """A long-running reproduction service on a loopback TCP port.

    Usage::

        with ReproService(slots=4, queue_size=32) as svc:
            client = ReproClient(svc.address)
            ...

    ``port=0`` (the default) binds an ephemeral port, read back from
    :attr:`port` — tests and the bench never fight over a fixed one.
    ``fault_hook`` is a picklable fault-injection callable forwarded to
    the executor's pool workers (tests only).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_size: int = 16,
        slots: int = 2,
        job_timeout: Optional[float] = None,
        max_job_retries: int = 1,
        fault_hook: Optional[FaultHook] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.host = host
        self.metrics = MetricsRegistry()
        self.cache = None
        if cache_dir is not None:
            from repro.cache import ResultCache

            # One cache shared across every job.  Each lookup and each
            # worker rebinds it to the job's own registry; the deltas
            # reach /metrics through the loop.
            self.cache = ResultCache(cache_dir)
        self.queue = BoundedJobQueue(
            queue_size,
            metrics=self.metrics,
            retry_hint=lambda: self.executor.retry_hint(),
        )
        self.executor = JobExecutor(
            self.queue,
            self.metrics,
            slots=slots,
            job_timeout=job_timeout,
            max_job_retries=max_job_retries,
            fault_hook=fault_hook,
            cache=self.cache,
            on_settled=self._evict,
            on_retired=self._retired,
        )
        self._jobs: "collections.OrderedDict[str, JobRecord]" = collections.OrderedDict()
        #: Ids in the history whose terminal record a client was sent.
        self._read: set = set()
        self._workers_retired = False
        self._next_id = 1
        self._drained = threading.Event()
        self._frontend = AsyncHTTPFrontend(
            self._handle,
            host,
            port,
            metrics=self.metrics,
            on_disconnect=self._on_parked_disconnect,
            name="svc-http",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproService":
        """Fork the worker pool, then bind the async frontend.

        Pool workers are forked *before* the event-loop thread exists so
        every worker starts from a quiet, single-threaded image.
        """
        self.executor.start(self._frontend.schedule)
        self._frontend.start()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        return self._frontend.port

    @property
    def address(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    def describe(self) -> str:
        """One-line banner for ``repro serve``."""
        return (
            f"repro.svc listening on {self.address} "
            f"(pool={self.executor.slots} workers, queue={self.queue.maxsize})"
        )

    def __enter__(self) -> "ReproService":
        """Context-manager entry: starts the service."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: hard close."""
        self.close()

    # ------------------------------------------------------------------
    # Any thread: each call runs on the loop once started
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate, register, and enqueue one job.

        Raises :class:`JobValidationError` (→ 400),
        :class:`~repro.svc.queue.QueueFull` (→ 503 + Retry-After),
        :class:`~repro.svc.queue.TenantOverShare` (→ 429 + Retry-After)
        or :class:`ServiceDraining` (→ 503 draining).
        """
        return self._frontend.call(lambda: self._submit(spec))

    def get_job(self, job_id: str) -> Optional[JobRecord]:
        """Look up a record by id (None when unknown or evicted)."""
        return self._frontend.call(lambda: self._jobs.get(job_id))

    def list_jobs(self) -> list:
        """Summaries of every known record, oldest first."""
        return self._frontend.call(self._list_jobs)

    def health(self) -> Dict[str, Any]:
        """The ``GET /health`` payload."""
        return self._frontend.call(self._health)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Synchronous graceful shutdown; True when fully drained."""
        self._frontend.call(self._begin_drain)
        return self.wait_drained(timeout)

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until a previously started drain completes."""
        return self._drained.wait(timeout)

    def close(self) -> None:
        """Hard stop: kill running jobs, stop threads, free the port."""
        self._frontend.call(self._stop_intake)
        self.executor.kill()
        self._frontend.stop()
        self._drained.set()

    # ------------------------------------------------------------------
    # HTTP handling and state changes (event-loop thread)
    # ------------------------------------------------------------------
    def _handle(self, request: Request, token: Any):
        """Route one request; returns a Response or parks a long-poll."""
        path = request.path
        if request.method == "GET":
            if path == "/health":
                return Response(200, self._health())
            if path == "/metrics":
                return Response(200, self.metrics.snapshot())
            if path == "/jobs":
                return Response(200, {"jobs": self._list_jobs()})
            if path.startswith("/jobs/"):
                return self._handle_get_job(request, token)
            return Response(404, protocol.error_body(f"no such endpoint {path!r}"))
        if request.method == "POST":
            if path == "/jobs":
                return self._handle_submit(request)
            if path == "/drain":
                self._begin_drain()
                return Response(
                    202, {"draining": True, "protocol": protocol.PROTOCOL}
                )
            return Response(404, protocol.error_body(f"no such endpoint {path!r}"))
        return Response(404, protocol.error_body(f"unsupported method {request.method}"))

    def _handle_get_job(self, request: Request, token: Any):
        job_id = urllib.parse.unquote(request.path[len("/jobs/"):])
        record = self._jobs.get(job_id)
        if record is None:
            return Response(404, protocol.error_body(f"no such job {job_id!r}"))
        wait, err = protocol.parse_wait(request.query)
        if err is not None:
            return Response(400, protocol.error_body(err))
        if record.terminal:
            self._delivered(record)
        if wait is None or record.terminal:
            return Response(200, record.to_json())
        # Long-poll: park the connection; respond on completion or
        # deadline, whichever fires first (complete() matches the
        # per-request token, so a stale answer is a no-op).
        frontend = self._frontend

        def on_terminal() -> None:
            timer.cancel()
            self._delivered(record)
            frontend.complete(token, Response(200, record.to_json()))

        def on_deadline() -> None:
            # Drop the subscription before answering: a client polling
            # a still-running job in wait-chunks must not accumulate
            # one dead closure per round, and the callback must never
            # outlive the request it was registered for.
            record.unsubscribe(on_terminal)
            frontend.complete(token, Response(200, record.to_json()))

        timer = frontend.call_later(wait, on_deadline)
        record.subscribe(on_terminal)
        return DEFERRED

    def _handle_submit(self, request: Request) -> Response:
        try:
            spec = JobSpec.from_json(protocol.loads(request.body))
            record = self._submit(spec)
        except (ValueError, JobValidationError) as exc:
            return Response(400, protocol.error_body(str(exc)))
        except TenantOverShare as exc:
            # Tenant-local shedding: 429, not 503 — the queue has room,
            # just not for this tenant while others are waiting.
            return Response(
                429,
                protocol.error_body(str(exc), retry_after=exc.retry_after),
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except QueueFull as exc:
            return Response(
                503,
                protocol.error_body(str(exc), retry_after=exc.retry_after),
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except (QueueClosed, ServiceDraining):
            return Response(
                503, protocol.error_body("service is draining", draining=True)
            )
        return Response(202, record.to_json(include_result=False))

    def _on_parked_disconnect(self, token: Any) -> None:
        """A long-polling client vanished mid-wait (counted, never fatal)."""
        self.metrics.counter("svc.http.disconnects", volatile=True).inc()

    def _submit(self, spec: JobSpec) -> JobRecord:
        self.metrics.counter("svc.jobs.submitted", volatile=True).inc()
        if self.queue.closed:
            raise ServiceDraining("service is draining")
        spec.validate()
        record = JobRecord(f"job-{self._next_id:06d}", spec)
        # Enqueue before publishing the id: a rejected job gets none.
        self.queue.put(record)
        self._next_id += 1
        self._jobs[record.id] = record
        self.metrics.counter("svc.jobs.accepted", volatile=True).inc()
        self._evict()
        self.executor.dispatch()
        return record

    def _evict(self) -> None:
        """Drop the oldest *finished* records beyond the history limit
        (after each submit and each finished job).

        The walk stops at the ``excess``-th finished record, so a submit
        pays for the unfinished records older than it, not for the whole
        history.
        """
        excess = len(self._jobs) - _HISTORY_LIMIT
        if excess <= 0:
            return
        finished = (jid for jid, rec in self._jobs.items() if rec.terminal)
        for job_id in list(itertools.islice(finished, excess)):
            del self._jobs[job_id]
            self._read.discard(job_id)

    def _list_jobs(self) -> list:
        return [rec.to_json(include_result=False) for rec in self._jobs.values()]

    def _health(self) -> Dict[str, Any]:
        states = collections.Counter(rec.state for rec in self._jobs.values())
        return {
            "status": "draining" if self.queue.closed else "ok",
            "protocol": protocol.PROTOCOL,
            "queue_depth": self.queue.depth,
            "queue_size": self.queue.maxsize,
            "slots": self.executor.slots,
            "busy": self.executor.busy,
            "jobs": dict(states),
            "tenants": self.queue.tenants_snapshot(),
        }

    def _begin_drain(self) -> None:
        self.queue.close()
        self.executor.dispatch()  # retires the slots at once when idle

    def _stop_intake(self) -> None:
        self.queue.close()
        self.executor.retire()

    def _retired(self) -> None:
        """Every slot retired its worker: stop once every finished job's
        result has been sent, or after :data:`_READ_GRACE` seconds."""
        self._workers_retired = True
        self._frontend.call_later(_READ_GRACE, self._stop)
        self._stop_if_read()

    def _delivered(self, record: JobRecord) -> None:
        """A client is being sent ``record``'s terminal state."""
        self._read.add(record.id)
        self._stop_if_read()

    def _stop_if_read(self) -> None:
        if self._workers_retired and self._read.issuperset(self._jobs):
            self._stop()

    def _stop(self) -> None:
        """Stop the listener (after the current loop step); drained."""
        self._frontend.stop()
        self._drained.set()


def serve_forever(service: Any, *, port_file: Optional[str] = None) -> int:
    """Run a started service until SIGTERM/SIGINT, then drain gracefully.

    This is the body of ``repro serve`` and ``repro route``: it installs
    the signal handlers, optionally writes the bound port to
    ``port_file`` (how the smoke test finds an ephemerally-bound
    daemon), and blocks.  ``service`` is anything with ``port`` /
    ``describe()`` / ``drain()`` / ``close()`` — a
    :class:`ReproService` or a :class:`~repro.svc.router.FleetRouter`.
    Returns 0 after a clean drain.
    """
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _on_signal)
    if port_file is not None:
        with open(port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{service.port}\n")
    print(service.describe())
    print("send SIGTERM (or POST /drain) for a graceful drain")
    try:
        stop.wait()
        print("drain requested: refusing new jobs, finishing in-flight work")
        service.drain()
        print("drained cleanly")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        service.close()
    return 0
