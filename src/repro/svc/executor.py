"""Job executor: the loop hands jobs to slot threads, one worker each.

The daemon's event-loop thread owns the executor's state (which slot
runs which record, and the run-time EMA): :meth:`~JobExecutor.dispatch`
hands queued jobs to free slots.  Each slot thread blocks on its own
inbox and does only the full-coverage cache lookup
(:func:`~repro.svc.jobs.try_cached_result`, counting into the job's own
registry) and, on a miss, the run on the slot's **pre-forked worker
process**: one single-worker :class:`repro.pool.Pool` per slot, whose
worker runs :func:`repro.svc.pool._run_job`.  It hands the outcome and
the job's metric deltas back through the loop's ``schedule``; that loop
step finishes the record, which answers its parked long-polls, and
feeds the slot its next job.

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
* **Recycling** — a worker is replaced gracefully after
  :data:`_WORKER_JOB_LIMIT` jobs, as leak hygiene.  Each worker rebinds
  the shared result cache to a private registry per job and ships the
  counter deltas back with the result; the slot thread merges them into
  the job's own registry.
* **Utilization metrics** — every transition updates the ``svc.*``
  families (busy gauge, latency and queue-wait histograms, completion
  and retry counters), all volatile: they describe service operation,
  never reproduction results.  Every pool event reaches the
  ``svc.pool.*`` family through the loop: ``svc.pool.workers`` (gauge)
  and the ``svc.pool.spawned`` / ``svc.pool.recycled`` /
  ``svc.pool.crashes`` (worker deaths; timeout kills are not crashes) /
  ``svc.pool.jobs`` (jobs a worker answered) counters.

**Drain.**  Once the queue is closed and nothing is queued or running,
:meth:`~JobExecutor.dispatch` has each slot thread retire its worker.

A job may itself fan its trials or DPOR shards over a nested pool
(``spec.workers > 0``); pool workers are non-daemonic so they can own
worker processes of their own.
"""

from __future__ import annotations

import dataclasses
import functools
import queue as _queue
import threading
import time
from typing import Any, Callable, List, Optional

from repro._lazy import preload
from repro.harness.stats import TrialFailure
from repro.obs.metrics import MetricsRegistry
from repro.pool import Pool, Result

from .jobs import JobRecord, try_cached_result
from .pool import FaultHook, _run_job
from .queue import BoundedJobQueue

__all__ = ["JobExecutor"]

#: Exponential-moving-average weight for the run-time-based retry hint.
_EMA_ALPHA = 0.3

#: Jobs one worker serves before it is recycled (leak hygiene).
_WORKER_JOB_LIMIT = 256

#: Pool events counted into ``svc.pool.*`` counters.
_COUNTERS = {
    "spawned": "svc.pool.spawned",
    "recycled": "svc.pool.recycled",
    "crash": "svc.pool.crashes",
    "served": "svc.pool.jobs",
}


class JobExecutor:
    """Slot threads running the jobs the loop takes off the fair queue.

    ``on_settled`` runs on the loop after each job's record turns
    terminal, ``on_retired`` once every slot has retired its worker.
    """

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
        on_settled: Callable[[], None] = lambda: None,
        on_retired: Callable[[], None] = lambda: None,
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
        #: Runs a callable on the loop thread; here, until start(), the
        #: caller's own thread.
        self._schedule: Callable[..., None] = lambda fn: fn()
        #: One single-worker pool per slot, driven only by that slot's
        #: thread, so job traffic on a pipe is single-threaded.
        task = functools.partial(_run_job, fault_hook, cache)
        self._pools = [
            Pool(task, max_tasks_per_worker=_WORKER_JOB_LIMIT,
                 on_event=self._note_pool, name=f"svc-pool-{slot}")
            for slot in range(slots)
        ]
        self._threads: List[threading.Thread] = []
        #: One inbox per slot thread, made by start(): a job, or None to
        #: retire the slot.
        self._inboxes: List["_queue.SimpleQueue[Any]"] = []
        #: The record each slot runs (None = free).
        self._running: List[Optional[JobRecord]] = [None] * slots
        self._retiring = False
        self._retired_slots = 0
        self._on_settled, self._on_retired = on_settled, on_retired
        #: EMA of the settled jobs' run times (start to settle, no queue wait).
        self._ema_run: Optional[float] = None
        metrics.gauge("svc.workers.slots").set(slots)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, schedule: Callable[..., None]) -> None:
        """Pre-fork one worker per slot, then spawn the slot threads.

        Workers are forked before the slot threads (and before the HTTP
        event loop) exist, so every worker starts from a quiet image.
        What jobs run is loaded first, so every worker, replacements
        included, inherits it instead of importing it once per
        lifetime: numpy (three apps use it) and the inference stack with
        networkx.  From then on ``schedule`` runs a callable on the loop
        thread: every hand-back of a slot thread and every pool event
        goes through it.
        """
        if self._threads:
            raise RuntimeError("executor already started")
        preload("numpy", "networkx", "repro.infer")
        for pool in self._pools:
            pool.start()
        self._schedule = schedule
        self._inboxes = [_queue.SimpleQueue() for _ in range(self.slots)]
        for i, inbox in enumerate(self._inboxes):
            t = threading.Thread(target=self._slot_loop, args=(i, inbox),
                                 name=f"svc-slot-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    def kill(self, timeout: float = 10.0) -> None:
        """Once :meth:`retire` has run, hard-kill every worker (in-flight
        jobs account as crashes, and nothing is retried or respawned from
        here on) and wait for the slot threads."""
        for pool in self._pools:
            pool.kill()
        for t in self._threads:
            t.join(timeout=timeout)

    def worker_pid(self, slot: int) -> Optional[int]:
        """PID of the slot's current worker (tests verify persistence)."""
        return self._pools[slot].pids()[0]

    # ------------------------------------------------------------------
    # Loop methods
    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        """Slots currently executing a job."""
        return sum(record is not None for record in self._running)

    def retry_hint(self) -> float:
        """Suggested client backoff: the backlog's run time spread over the
        slots (asked only on a rejection, so the queue holds ``maxsize``).
        Until a job settles, the longest run in progress stands in."""
        backlog = self._queue.maxsize + self.slots  # full queue + (worst case) running
        per_job = self._ema_run
        if per_job is None:
            now = time.monotonic()
            per_job = max((now - r.started_at for r in self._running if r is not None), default=0.0)
        return min(30.0, max(0.05, backlog * per_job / self.slots))

    def dispatch(self) -> None:
        """Hand queued jobs to free slots; once the queue is closed and
        nothing is queued or running, :meth:`retire` the slots."""
        if self._retiring:
            return
        for slot, inbox in enumerate(self._inboxes):
            if self._running[slot] is not None:
                continue
            record = self._queue.get()
            if record is None:
                break
            # In-flight tenant accounting brackets the whole execution:
            # a tenant's running jobs count against its fair share.
            self._queue.note_running(record)
            record.mark_running()
            self._running[slot] = record
            self._note_busy()
            wait = self._metrics.histogram("svc.job_queue_wait_seconds", volatile=True)
            wait.observe(record.queue_wait())
            spec = record.spec
            inbox.put((spec, self.job_timeout if spec.job_timeout is None else spec.job_timeout))
        if self._queue.closed and self._queue.depth == 0 and self.busy == 0:
            self.retire()

    def retire(self) -> None:
        """Feed the slots no more jobs: each slot thread retires its worker
        once its current job, if any, is handed back."""
        if not self._retiring:
            self._retiring = True
            for inbox in self._inboxes:
                inbox.put(None)
            if not self._inboxes:  # never started: no slot has a worker
                self._on_retired()

    def _settle(self, slot: int, cached: Any, result: Optional[Result], deltas: Any) -> None:
        """One slot's hand-back: fold the job's metrics in, finish its
        record and feed the slot."""
        record, self._running[slot] = self._running[slot], None
        self._metrics.merge_wire(deltas)
        if result is not None:
            record.attempts = result.attempts
            if result.attempts > 1:
                self._metrics.counter("svc.jobs.retries", volatile=True).inc(
                    result.attempts - 1
                )
        # Account before the record turns terminal: completing it answers
        # parked long-polls, and a client acting on that answer (e.g.
        # scraping /metrics) must see this job already counted.
        self._note_done(record, failed=result is not None and not result.ok)
        self._note_busy()
        self._queue.note_finished(record)
        if cached is not None:
            record.finish(cached)
        elif result.ok:
            record.finish(result.value)
        else:
            spec = record.spec
            record.fail(TrialFailure(
                seed=spec.seed if spec.kind == "explore" else spec.base_seed,
                kind=result.kind, attempts=result.attempts, message=result.message,
            ))
        self._on_settled()
        self.dispatch()

    def _slot_retired(self) -> None:
        """One slot thread retired its worker; the last one calls back."""
        self._retired_slots += 1
        if self._retired_slots == self.slots:
            self._on_retired()

    def _note_busy(self) -> None:
        self._metrics.gauge("svc.workers.busy", volatile=True).set(self.busy)

    def _count(self, event: str) -> None:
        """Fold one pool event into the ``svc.pool.*`` metrics."""
        if event in _COUNTERS:
            self._metrics.counter(_COUNTERS[event], volatile=True).inc()
        if event in ("spawned", "retired"):
            live = sum(pid is not None for p in self._pools for pid in p.pids())
            self._metrics.gauge("svc.pool.workers", volatile=True).set(live)

    def _note_done(self, record: JobRecord, failed: bool) -> None:
        """Fold a finishing job into the metrics and the run-time EMA."""
        now = time.monotonic()
        latency, run = now - record.submitted_at, now - record.started_at
        name = "svc.jobs.failed" if failed else "svc.jobs.completed"
        self._metrics.counter(name, volatile=True).inc()
        self._metrics.histogram("svc.job_latency_seconds", volatile=True).observe(latency)
        if self._ema_run is None:
            self._ema_run = run
        else:
            self._ema_run += _EMA_ALPHA * (run - self._ema_run)

    # ------------------------------------------------------------------
    # Slot threads
    # ------------------------------------------------------------------
    def _slot_loop(self, slot: int, inbox: Any) -> None:
        """One slot thread: run each job its inbox hands it and hand the
        outcome back; retire the slot's worker when the inbox says so."""
        pool = self._pools[slot]
        while (job := inbox.get()) is not None:
            spec, budget = job
            job_metrics = MetricsRegistry()
            cache = None if self.cache is None else self.cache.with_metrics(job_metrics)
            cached = try_cached_result(cache, spec)
            result = None
            if cached is None:
                (result,) = pool.map([spec], max_retries=self.max_job_retries,
                                     timeout=budget)
                if result.ok:
                    payload, deltas = result.value
                    if deltas:
                        job_metrics.merge_wire(deltas)
                    result = dataclasses.replace(result, value=payload)
            self._schedule(functools.partial(
                self._settle, slot, cached, result, job_metrics.to_wire()
            ))
        pool.close()
        self._schedule(self._slot_retired)

    def _note_pool(self, event: str) -> None:
        """A pool's event hook (any thread): count it on the loop."""
        self._schedule(functools.partial(self._count, event))
