"""The worker side of the daemon's pre-forked job workers.

Each executor slot owns one single-worker :class:`repro.pool.Pool`
(:class:`~repro.svc.executor.JobExecutor` builds and drives them).  Its
worker is forked once at service start, pulls jobs over its private
pipe and runs :func:`_run_job`, which calls
:func:`repro.svc.jobs.execute_job` — the same library entry point as
the CLI, so results stay bit-identical.

This module holds only what runs in the worker: the pool task and the
type of the tests' fault-injection hook.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

from .jobs import JobSpec, execute_job

__all__ = ["FaultHook"]

#: Fault-injection hook type: ``hook(spec, attempt)`` runs in the worker
#: before the job body (raise → exception; ``os._exit`` → crash).
FaultHook = Callable[[JobSpec, int], None]


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
