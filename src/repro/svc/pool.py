"""Pre-forked persistent worker pool: import once, serve many jobs.

The original executor forked a **fresh child per job attempt**, so every
job paid fork + module-import cost before its first trial.  This module
replaces that with one long-lived worker process per executor slot:
workers are forked once at service start (before the event-loop thread
exists, from a quiet single-threaded image), pull jobs over a private
duplex pipe, and run :func:`repro.svc.jobs.execute_job` — the same
library entry point as before, so results stay bit-identical.

The harness fault model is preserved exactly:

* **Timeout** — a worker that exceeds the job's wall-clock budget is
  killed and eagerly respawned; the attempt reports ``kind="timeout"``
  (the executor never retries a timeout — the job is deterministic).
* **Crash** — a worker that dies mid-job (segfault, ``os._exit``) is
  detected via pipe EOF / process death, respawned, and the attempt
  reports ``kind="crash"`` so the executor's bounded retry re-runs the
  job on the fresh worker.
* **Exception** — a job body that raises is reported as
  ``kind="exception"`` *without* killing the worker; Python exceptions
  don't corrupt the process image.

Workers are **recycled** (gracefully replaced) after
``max_jobs_per_worker`` jobs as leak hygiene, and are non-daemonic so a
job may fan its trials over a nested :mod:`repro.harness.parallel` pool.
A worker closes every parent-side pipe end its fork copied before it
serves, so the daemon is the only holder of each worker's peer end: a
daemon that dies without a goodbye (SIGKILL) reaches its idle workers
as pipe EOF, and they exit instead of lingering as orphans.
Because each worker rebinds the shared result cache to a private
registry per job and ships the counter deltas back over the pipe, the
service's ``cache.*`` metrics stay accurate across the fork boundary.

Operational surface: ``svc.pool.workers`` (gauge) plus the
``svc.pool.spawned`` / ``svc.pool.recycled`` / ``svc.pool.crashes`` /
``svc.pool.jobs`` counters — all volatile, all on ``GET /metrics``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

from .jobs import JobSpec, execute_job

__all__ = ["FaultHook", "WorkerPool"]

#: Pipe poll period while a job runs on a worker (seconds).
_POLL = 0.05

#: Fault-injection hook type: ``hook(spec, attempt)`` runs in the worker
#: before the job body (raise → exception; ``os._exit`` → crash).
FaultHook = Callable[[JobSpec, int], None]


def _worker_main(
    conn,
    fault_hook: Optional[FaultHook],
    cache: Optional[Any],
    inherited: List[Any],
) -> None:
    """Worker-process body: serve jobs off the pipe until told to exit.

    Message protocol (worker side): receive ``("job", spec, attempt)``,
    answer ``("ok", payload, cache_wire)`` or ``("err", message)``;
    receive ``("exit",)`` (or pipe EOF) and return.  A crash simply
    never answers — the parent notices the dead process.  ``inherited``
    are the parent-side pipe ends the fork copied (this worker's own and
    every other live worker's); they are closed first so that the
    parent's death is seen here as EOF.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "exit":
            break
        _, spec, attempt = msg
        cache_wire = None
        try:
            if fault_hook is not None:
                fault_hook(spec, attempt)
            # Fresh registry per job: increments in forked memory would
            # be lost, so the deltas travel back on the wire.  It holds
            # both cache.* counters and the explore path's own counters
            # (explore.dpor.* cut accounting).
            job_reg = MetricsRegistry()
            job_cache = cache.with_metrics(job_reg) if cache is not None else None
            payload = execute_job(spec, cache=job_cache, metrics=job_reg)
            wire = job_reg.to_wire()
            if wire:
                cache_wire = wire
        except Exception as exc:  # noqa: BLE001 - forwarded as a structured failure
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except OSError:
                break
        else:
            try:
                conn.send(("ok", payload, cache_wire))
            except OSError:
                break
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """One live worker process plus its parent-side pipe end."""

    __slots__ = ("proc", "conn", "jobs_served")

    def __init__(self, proc: Any, conn: Any) -> None:
        self.proc = proc
        self.conn = conn
        self.jobs_served = 0

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Fixed-size pool of persistent job workers, one per executor slot.

    Each slot's worker is driven only by that slot's executor thread, so
    job traffic on a pipe is single-threaded; the pool lock guards only
    the worker table (respawn vs. shutdown races).
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        *,
        slots: int,
        fault_hook: Optional[FaultHook] = None,
        cache: Optional[Any] = None,
        max_jobs_per_worker: int = 256,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"pool slots must be positive, got {slots}")
        if max_jobs_per_worker <= 0:
            raise ValueError(
                f"max_jobs_per_worker must be positive, got {max_jobs_per_worker}"
            )
        self._metrics = metrics
        self.slots = slots
        self.max_jobs_per_worker = max_jobs_per_worker
        self._fault_hook = fault_hook
        self._cache = cache
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[Optional[_Worker]] = [None] * slots
        self._lock = threading.Lock()
        # Serialises pipe creation + fork, so no worker is forked while
        # another worker's pipe exists but is not yet in ``_workers``.
        self._spawn_lock = threading.Lock()
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Pre-fork one worker per slot (call before other threads exist)."""
        for slot in range(self.slots):
            self._spawn(slot)
        return self

    def _spawn(self, slot: int) -> Optional[_Worker]:
        """Fork a fresh worker for ``slot`` (None while shutting down)."""
        with self._lock:
            if self._stopping:
                return None
        with self._spawn_lock:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            inherited: List[Any] = []
            if self._ctx.get_start_method() == "fork":
                with self._lock:
                    inherited = [parent_conn] + [
                        w.conn for w in self._workers if w is not None
                    ]
            # Non-daemonic: the job may spawn its own harness.parallel pool.
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._fault_hook, self._cache, inherited),
                name=f"svc-pool-{slot}",
                daemon=False,
            )
            proc.start()
            child_conn.close()
            worker = _Worker(proc, parent_conn)
            with self._lock:
                if self._stopping:
                    # Lost the race with shutdown: don't publish the worker.
                    proc.kill()
                    proc.join(timeout=5)
                    worker.close()
                    return None
                self._workers[slot] = worker
                self._metrics.counter("svc.pool.spawned", volatile=True).inc()
                self._count_workers_locked()
        return worker

    def _count_workers_locked(self) -> None:
        live = sum(1 for w in self._workers if w is not None)
        self._metrics.gauge("svc.pool.workers", volatile=True).set(live)

    def _retire(self, slot: int, worker: _Worker, *, kill: bool) -> None:
        """Take a worker out of service and reap the process."""
        with self._lock:
            if self._workers[slot] is worker:
                self._workers[slot] = None
                self._count_workers_locked()
        if kill:
            if worker.proc.is_alive():
                worker.proc.kill()
        else:
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5)
        worker.close()

    def worker_pid(self, slot: int) -> Optional[int]:
        """PID of the slot's current worker (tests verify persistence)."""
        with self._lock:
            worker = self._workers[slot]
            return None if worker is None else worker.proc.pid

    def kill_running(self) -> None:
        """Hard-kill every worker (in-flight jobs die as crashes)."""
        with self._lock:
            workers = [w for w in self._workers if w is not None]
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.kill()

    def shutdown(self, kill: bool = False, timeout: float = 10.0) -> None:
        """Retire every worker; ``kill`` skips the graceful exit message."""
        with self._lock:
            self._stopping = True
            workers = list(enumerate(self._workers))
        for slot, worker in workers:
            if worker is not None:
                self._retire(slot, worker, kill=kill)

    # ------------------------------------------------------------------
    # Job execution (slot threads)
    # ------------------------------------------------------------------
    def run(
        self,
        slot: int,
        spec: JobSpec,
        attempt: int,
        budget: Optional[float],
    ) -> Tuple[bool, Optional[dict], Optional[str], Optional[str]]:
        """Run one job attempt on the slot's worker under the budget.

        Returns ``(ok, payload, failure_kind, failure_message)`` with the
        executor's kind vocabulary.  Crashed or timed-out workers are
        respawned eagerly so the slot is ready for the next job.
        """
        with self._lock:
            worker = self._workers[slot]
        if worker is None or not worker.proc.is_alive():
            if worker is not None:
                self._retire(slot, worker, kill=True)
            worker = self._spawn(slot)
            if worker is None:  # shutting down
                return False, None, "crash", "worker pool is stopping"
        try:
            worker.conn.send(("job", spec, attempt))
        except (OSError, ValueError):
            self._note_crash()
            self._retire(slot, worker, kill=True)
            self._spawn(slot)
            return False, None, "crash", "job worker pipe broken"
        deadline = None if budget is None else time.monotonic() + budget
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0 and not worker.conn.poll():
                # Budget exhausted mid-job: the worker is wedged on a
                # deterministic job — kill it and hand the slot a fresh one.
                self._retire(slot, worker, kill=True)
                self._spawn(slot)
                return False, None, "timeout", f"exceeded job_timeout={budget}s"
            poll = _POLL if remaining is None else max(0.0, min(_POLL, remaining))
            if worker.conn.poll(poll):
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    self._note_crash()
                    self._retire(slot, worker, kill=True)
                    self._spawn(slot)
                    return False, None, "crash", "job worker died mid-job"
                self._note_job(slot, worker)
                if msg[0] == "ok":
                    if len(msg) > 2 and msg[2]:
                        # Fold the worker's cache.* counter deltas in.
                        with self._lock:
                            self._metrics.merge_wire(msg[2])
                    return True, msg[1], None, None
                # Exception: the worker survives — no respawn needed.
                return False, None, "exception", msg[1]
            if not worker.proc.is_alive() and not worker.conn.poll():
                self._note_crash()
                self._retire(slot, worker, kill=True)
                self._spawn(slot)
                return False, None, "crash", "job worker exited without a result"

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _note_crash(self) -> None:
        with self._lock:
            self._metrics.counter("svc.pool.crashes", volatile=True).inc()

    def _note_job(self, slot: int, worker: _Worker) -> None:
        """Count a served job; recycle the worker past its job budget."""
        worker.jobs_served += 1
        with self._lock:
            self._metrics.counter("svc.pool.jobs", volatile=True).inc()
        if worker.jobs_served >= self.max_jobs_per_worker:
            with self._lock:
                self._metrics.counter("svc.pool.recycled", volatile=True).inc()
            self._retire(slot, worker, kill=False)
            self._spawn(slot)
