"""Job executor: slot threads driving the persistent worker pool.

Each of ``slots`` executor threads pulls one job at a time off the
bounded queue, serves it from the result cache when the cache covers it
entirely, and otherwise runs it on that slot's **pre-forked worker
process** (:class:`~repro.svc.pool.WorkerPool`).  Workers import once
and serve many jobs over a pipe.

Faults follow the one contract of :mod:`repro.pool` under the
executor's budget:

* **Per-job wall-clock timeout** — a job over its budget has its worker
  killed (and replaced) and fails with ``kind="timeout"``; it is *not*
  retried (the job is deterministic — it would stall again).
* **Bounded retry** — a job that raises, or whose worker dies
  (segfault, ``os._exit``), is re-run up to ``max_job_retries`` extra
  times, then accounted as a :class:`~repro.harness.stats.TrialFailure`
  with the harness's kind vocabulary and attempt count.  Because a job
  is a pure function of its spec, a retried job returns a bit-identical
  result — re-execution is invisible to the client (the differential
  battery injects crashes to prove it).  After a hard shutdown nothing
  is retried.
* **Utilization metrics** — every transition updates the ``svc.*``
  families (busy gauge, latency and queue-wait histograms, completion
  and retry counters) plus the pool's ``svc.pool.*`` family, all
  volatile: they describe service operation, never reproduction
  results.

A job may itself fan its trials or DPOR shards over a nested pool
(``spec.workers > 0``); pool workers are non-daemonic so they can own
worker processes of their own.
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Optional

from repro.harness.stats import TrialFailure
from repro.obs.metrics import MetricsRegistry

from .jobs import JobRecord, try_cached_result
from .pool import FaultHook, WorkerPool
from .queue import BoundedJobQueue

__all__ = ["JobExecutor"]

#: Exponential-moving-average weight for the latency-based retry hint.
_EMA_ALPHA = 0.3


class JobExecutor:
    """Slot threads feeding queued jobs to the persistent worker pool."""

    def __init__(
        self,
        queue: BoundedJobQueue,
        metrics: MetricsRegistry,
        *,
        slots: int = 2,
        job_timeout: Optional[float] = None,
        max_job_retries: int = 1,
        fault_hook: Optional[FaultHook] = None,
        cache: Optional[Any] = None,
        worker_max_jobs: int = 256,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"executor slots must be positive, got {slots}")
        self._queue = queue
        self._metrics = metrics
        self.slots = slots
        self.job_timeout = job_timeout
        self.max_job_retries = max_job_retries
        #: Shared :class:`repro.cache.ResultCache` (None = caching off).
        self.cache = cache
        self.pool = WorkerPool(
            metrics,
            slots=slots,
            fault_hook=fault_hook,
            cache=cache,
            max_jobs_per_worker=worker_max_jobs,
        )
        self._threads: List[threading.Thread] = []
        self._busy = 0
        self._ema_latency: Optional[float] = None
        self._stop = False
        self._lock = threading.Lock()
        metrics.gauge("svc.workers.slots").set(slots)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pre-fork the worker pool, then spawn the slot threads.

        Workers are forked before the slot threads (and before the HTTP
        event loop) exist, so every worker starts from a quiet image.
        """
        if self._threads:
            raise RuntimeError("executor already started")
        self.pool.start()
        for i in range(self.slots):
            t = threading.Thread(
                target=self._slot_loop, args=(i,), name=f"svc-slot-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    @property
    def busy(self) -> int:
        """Slots currently executing a job."""
        with self._lock:
            return self._busy

    def retry_hint(self) -> float:
        """Suggested client backoff: one average job per free-ish slot.

        Called by the queue *while holding its own lock* (only on a
        rejection, when the queue is known to be at capacity), so this
        must not read locked queue state — ``maxsize`` is the depth.
        """
        with self._lock:
            ema = self._ema_latency
        backlog = self._queue.maxsize + self.slots  # full queue + (worst case) running
        per_job = ema if ema is not None else 1.0
        return min(30.0, max(0.05, backlog * per_job / self.slots))

    def idle(self) -> bool:
        """No queued backlog and no running job."""
        return self._queue.depth == 0 and self.busy == 0

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted job finished (True) or ``timeout``.

        Call :meth:`BoundedJobQueue.close` first so no new work arrives;
        this merely waits for the backlog and in-flight jobs.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.idle():
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.02)
        return True

    def shutdown(self, kill: bool = False, timeout: float = 10.0) -> None:
        """Stop the slot threads and retire the worker pool.

        ``kill`` terminates in-flight jobs (their workers die and the
        jobs account as crashes without further retries); otherwise
        workers get a graceful exit message once their slot thread
        stops feeding them.
        """
        self._queue.close()
        self._stop = True
        if kill:
            self.pool.kill_running()
        for t in self._threads:
            t.join(timeout=timeout)
        self.pool.shutdown(kill=kill)

    # ------------------------------------------------------------------
    # Slot machinery
    # ------------------------------------------------------------------
    def _slot_loop(self, slot: int) -> None:
        """One slot thread: dequeue, execute on the slot's worker, repeat."""
        while True:
            record = self._queue.get(timeout=0.2)
            if record is None:
                if self._stop or self._queue.closed:
                    return
                continue
            # In-flight tenant accounting brackets the whole execution:
            # a tenant's running jobs count against its fair share.
            self._queue.note_running(record)
            with self._lock:
                self._busy += 1
                self._metrics.gauge("svc.workers.busy", volatile=True).set(self._busy)
            try:
                self._run_job(slot, record)
            finally:
                with self._lock:
                    self._busy -= 1
                    self._metrics.gauge("svc.workers.busy", volatile=True).set(self._busy)
                self._queue.note_finished(record)

    def _run_job(self, slot: int, record: JobRecord) -> None:
        """Drive one job to a terminal state: the cache, else the pool."""
        spec = record.spec
        record.mark_running()
        wait = record.queue_wait()
        with self._lock:
            if wait is not None:
                self._metrics.histogram(
                    "svc.job_queue_wait_seconds", volatile=True
                ).observe(wait)
        cached = try_cached_result(self.cache, spec)
        if cached is not None:
            # Full cache coverage: no pipe round-trip, no attempt — the
            # lookup itself already counted cache.hit into the registry.
            self._note_done(record, failed=False)
            record.finish(cached)
            return
        budget = spec.job_timeout if spec.job_timeout is not None else self.job_timeout
        record.attempts = 1
        result = self.pool.run(slot, spec, budget, self.max_job_retries)
        record.attempts = result.attempts
        if result.attempts > 1:
            with self._lock:
                self._metrics.counter("svc.jobs.retries", volatile=True).inc(
                    result.attempts - 1
                )
        self._note_done(record, failed=not result.ok)
        if result.ok:
            record.finish(result.value)
            return
        seed = spec.seed if spec.kind == "explore" else spec.base_seed
        record.fail(TrialFailure(
            seed=seed, kind=result.kind, attempts=result.attempts, message=result.message
        ))

    def _note_done(self, record: JobRecord, failed: bool) -> None:
        """Fold a finishing job into the metrics and the latency EMA.

        Runs *before* the record turns terminal: completing the record
        wakes parked long-polls, and a client acting on the response
        (e.g. scraping ``/metrics``, as the endpoint tests do) must see
        this job already accounted.
        """
        latency = time.monotonic() - record.submitted_at
        with self._lock:
            name = "svc.jobs.failed" if failed else "svc.jobs.completed"
            self._metrics.counter(name, volatile=True).inc()
            self._metrics.histogram(
                "svc.job_latency_seconds", volatile=True
            ).observe(latency)
            if self._ema_latency is None:
                self._ema_latency = latency
            else:
                self._ema_latency += _EMA_ALPHA * (latency - self._ema_latency)
