"""Pre-forked persistent job workers: import once, serve many jobs.

Each executor slot owns one single-worker :class:`repro.pool.Pool`.  Its
worker is forked once at service start (before the event-loop thread
exists, from a quiet single-threaded image), pulls jobs over its
private pipe and runs :func:`repro.svc.jobs.execute_job` — the same
library entry point as the CLI, so results stay bit-identical.

Faults follow the pool's one contract (:mod:`repro.pool`): a job that
raises or whose worker crashes is retried within the executor's
``max_job_retries`` (a crashed worker is replaced first), and a job
over its wall-clock budget has its worker killed and replaced and is
never retried.  Workers are **recycled** (gracefully replaced) after
``max_jobs_per_worker`` jobs as leak hygiene.  Each worker rebinds the
shared result cache to a private registry per job and ships the counter
deltas back with the result; :meth:`WorkerPool.run` merges them into
the job's own registry, which the slot thread hands to the loop.

Once started, every pool event reaches the registry through the
``schedule`` :meth:`WorkerPool.start` was given (the daemon's loop).
Operational surface: ``svc.pool.workers`` (gauge) plus the
``svc.pool.spawned`` / ``svc.pool.recycled`` / ``svc.pool.crashes``
(worker deaths; timeout kills are not crashes) / ``svc.pool.jobs`` (jobs
a worker answered) counters — all volatile, all on ``GET /metrics``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, Optional, Tuple

from repro._lazy import preload
from repro.obs.metrics import MetricsRegistry
from repro.pool import Pool, Result

from .jobs import JobSpec, execute_job

__all__ = ["FaultHook", "WorkerPool"]

#: Fault-injection hook type: ``hook(spec, attempt)`` runs in the worker
#: before the job body (raise → exception; ``os._exit`` → crash).
FaultHook = Callable[[JobSpec, int], None]

#: Pool events counted into ``svc.pool.*`` counters.
_COUNTERS = {
    "spawned": "svc.pool.spawned",
    "recycled": "svc.pool.recycled",
    "crash": "svc.pool.crashes",
    "served": "svc.pool.jobs",
}


def _run_job(
    fault_hook: Optional[FaultHook],
    cache: Optional[Any],
    spec: JobSpec,
    attempt: int,
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Pool task: one job attempt; returns ``(payload, metric deltas)``.

    ``execute_job`` is looked up in this module's globals on every call,
    so a wrapper installed here before the pool forks runs in the worker.
    """
    if fault_hook is not None:
        fault_hook(spec, attempt)
    # Fresh registry per job: increments in forked memory would be lost,
    # so the deltas travel back with the result.  It holds both cache.*
    # counters and the explore path's own counters (explore.dpor.*).
    job_reg = MetricsRegistry()
    job_cache = cache.with_metrics(job_reg) if cache is not None else None
    payload = execute_job(spec, cache=job_cache, metrics=job_reg)
    return payload, job_reg.to_wire() or None


class WorkerPool:
    """One single-worker pool per executor slot.

    Each slot's pool is driven only by that slot's thread, so job traffic
    on a pipe is single-threaded.
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
        #: Runs each pool event's metric write (here, until start()).
        self._schedule: Callable[..., None] = lambda fn: fn()
        task = functools.partial(_run_job, fault_hook, cache)
        self._pools = [
            Pool(
                task,
                max_tasks_per_worker=max_jobs_per_worker,
                on_event=self._note,
                name=f"svc-pool-{slot}",
            )
            for slot in range(slots)
        ]

    def start(self, schedule: Optional[Callable[..., None]] = None) -> "WorkerPool":
        """Pre-fork one worker per slot (call before other threads exist).

        From then on ``schedule`` (when given) runs each pool event's
        metric write where the registry lives.  What jobs run is loaded
        first, so every worker, replacements included, inherits it
        instead of importing it once per lifetime: numpy (three apps use
        it) and the inference stack with networkx.
        """
        preload("numpy", "networkx", "repro.infer")
        for pool in self._pools:
            pool.start()
        if schedule is not None:
            self._schedule = schedule
        return self

    def worker_pid(self, slot: int) -> Optional[int]:
        """PID of the slot's current worker (tests verify persistence)."""
        return self._pools[slot].pids()[0]

    def kill_running(self) -> None:
        """Hard-kill every worker: in-flight jobs die as crashes, and no
        job is retried or respawned from here on."""
        for pool in self._pools:
            pool.kill()

    def retire(self, slot: int) -> None:
        """Retire the slot's worker (its slot thread calls this last)."""
        self._pools[slot].close()

    def run(
        self,
        slot: int,
        spec: JobSpec,
        budget: Optional[float],
        max_retries: int,
        metrics: MetricsRegistry,
    ) -> Result:
        """Run one job on the slot's worker under the wall-clock budget,
        retrying up to ``max_retries`` times; the result's value is the
        job's wire payload, and the worker's metric deltas are merged into
        ``metrics`` (the job's own registry)."""
        (result,) = self._pools[slot].map(
            [spec], max_retries=max_retries, timeout=budget
        )
        if not result.ok:
            return result
        payload, deltas = result.value
        if deltas:
            metrics.merge_wire(deltas)
        return dataclasses.replace(result, value=payload)

    def _note(self, event: str) -> None:
        self._schedule(functools.partial(self._count, event))

    def _count(self, event: str) -> None:
        """Fold one pool event into the ``svc.pool.*`` metrics."""
        if event in _COUNTERS:
            self._metrics.counter(_COUNTERS[event], volatile=True).inc()
        if event in ("spawned", "retired"):
            live = sum(pid is not None for p in self._pools for pid in p.pids())
            self._metrics.gauge("svc.pool.workers", volatile=True).set(live)
