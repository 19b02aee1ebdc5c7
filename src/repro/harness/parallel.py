"""Parallel trial sweeps: seeded trials fanned over :class:`repro.pool.Pool`.

The paper's protocol runs every configuration 100 times; each trial is
fully determined by ``(app class, config, seed)``, so the sweep is
embarrassingly parallel.  Seeds are dealt to worker *processes* (the
kernel is pure Python; threads would serialise on the GIL) in chunks to
amortise IPC, and every per-trial result streams back individually,
keyed by seed, into a :class:`~repro.harness.stats.TrialAggregator`.
The aggregator accepts each seed exactly once, refuses to finalise with
seeds unaccounted for and orders by seed, so for any fixed seed range
the parallel and serial runners return identical :class:`TrialStats`
(same hit counts, same per-seed runtime lists), whatever the worker
count, the chunking or the faults on the way — every paper table stays
reproducible.

Crashes, exceptions and per-trial timeouts follow the pool's one fault
contract (:mod:`repro.pool`); a trial that exhausts it is recorded as a
structured :class:`~repro.harness.stats.TrialFailure`, and the sweep
never aborts because one worker died.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
from typing import Any, Callable, Dict, Optional, Type

from repro._lazy import bound_in, preload
from repro.apps.base import AppConfig, BaseApp
from repro.obs.metrics import MetricsRegistry
from repro.pool import ParallelExecutionError, Pool

from .stats import TrialAggregator, TrialFailure, TrialOutcome, TrialStats

__all__ = [
    "ParallelExecutionError",
    "run_trials_parallel",
    "execute_trial",
    "default_workers",
]


def check_trial_count(n: int) -> None:
    """Refuse a negative sweep size; ``n == 0`` is the empty sweep."""
    if n < 0:
        raise ValueError(f"n must be >= 0 (number of trials), got {n}")


def default_workers() -> int:
    """Worker count used for ``workers="auto"``: one per CPU, min 2."""
    return max(2, os.cpu_count() or 1)


def execute_trial(
    app_cls: Type[BaseApp], cfg: AppConfig, seed: int,
    reuse_obs: Optional[MetricsRegistry] = None,
) -> TrialOutcome:
    """Run one seeded trial and reduce it to a picklable scalar record.

    This is the single definition of "one trial" — the serial loop in
    :mod:`repro.harness.runner` and every pool worker call exactly this,
    so the two execution modes cannot diverge semantically.  When the
    config asks for metrics, the trial runs under a per-trial
    :class:`repro.obs.MetricsRegistry` that travels back on the outcome
    in wire form; wall-clock latency is recorded as a *volatile* metric
    (excluded from the parallel == serial determinism contract).

    ``reuse_obs`` lets a sweep share one registry across its trials (it
    is reset before each trial) — allocating ~20 metric objects per
    trial costs more in allocation + GC than the trial's entire flush,
    so both runners pass a sweep-scoped registry.  Reuse is an
    optimisation only: zeroed metrics left over from earlier trials
    merge as exact no-ops, so the merged sweep registry is identical.
    """
    app = app_cls(dataclasses.replace(cfg, params=dict(cfg.params)))
    obs = None
    wall = None
    if cfg.collect_metrics:
        if reuse_obs is not None:
            obs = reuse_obs
            obs.reset()
        else:
            obs = MetricsRegistry()
        t0 = time.perf_counter()
    run = app.run(seed=seed, obs=obs)
    wire = None
    if obs is not None:
        # Wall-clock latency is volatile (and per-sweep anyway), so it
        # travels as a plain float and is folded into one histogram by
        # the aggregator — no per-trial Histogram allocation here.
        wall = time.perf_counter() - t0
        wire = obs.to_wire()
    return TrialOutcome(
        seed=seed,
        bug_hit=bool(run.bug_hit),
        bp_hit=bool(run.bp_hit()),
        runtime=run.runtime,
        error_time=run.error_time if run.bug_hit else None,
        metrics=wire,
        wall_time=wall,
    )


def _run_trial(
    app_cls: Type[BaseApp],
    cfg: AppConfig,
    trial_hook: Optional[Callable[[int, int], None]],
    reuse: Optional[MetricsRegistry],
    seed: int,
    attempt: int,
) -> TrialOutcome:
    """Pool task: one seeded trial.

    ``trial_hook(seed, attempt)`` runs first; it exists for
    fault-injection tests (raise → trial error; ``os._exit`` → worker
    crash) and is None in production use.  ``reuse`` is copied into each
    worker, so every worker shares one registry across its trials.
    """
    if trial_hook is not None:
        trial_hook(seed, attempt)
    return execute_trial(app_cls, cfg, seed, reuse_obs=reuse)


def run_trials_parallel(
    app_cls: Type[BaseApp],
    n: int = 100,
    bug: Optional[str] = None,
    timeout: float = 0.100,
    flip_order: bool = False,
    use_policies: bool = True,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    *,
    workers: int = 0,
    trial_timeout: Optional[float] = None,
    max_retries: int = 2,
    chunk_size: Optional[int] = None,
    trial_hook: Optional[Callable[[int, int], None]] = None,
    collect_metrics: bool = False,
    on_outcome: Optional[Callable[[TrialOutcome], None]] = None,
) -> TrialStats:
    """Parallel, fault-tolerant equivalent of :func:`repro.harness.run_trials`.

    ``workers <= 0`` picks :func:`default_workers`.  ``trial_timeout`` is
    the per-trial *wall-clock* budget (None = unlimited) — unrelated to
    the breakpoint pause ``timeout``, which is virtual time inside the
    simulation.  ``max_retries`` bounds additional attempts for a trial
    whose worker crashed or raised.  ``trial_hook`` is a picklable
    fault-injection callable for tests.  ``on_outcome`` observes each
    successful outcome parent-side as it streams in (failures never reach
    it — the result cache relies on that to store only real results).
    """
    from repro.obs.context import current_sink

    check_trial_count(n)
    collect = collect_metrics or current_sink() is not None
    if n == 0:
        return TrialAggregator(
            app_cls.name, bug, base_seed, 0, collect_metrics=collect
        ).finalize()
    if workers <= 0:
        workers = default_workers()
    workers = min(workers, n)
    cfg = AppConfig(
        bug=bug,
        timeout=timeout,
        flip_order=flip_order,
        use_policies=use_policies,
        params=dict(params or {}),
        collect_metrics=collect,
    )
    if chunk_size is None:
        # ~4 chunks per worker, so one slow chunk cannot leave the rest
        # of the pool idle at the tail of the sweep.
        chunk_size = max(1, n // (workers * 4))
    reuse = MetricsRegistry() if collect else None
    task = functools.partial(_run_trial, app_cls, cfg, trial_hook, reuse)
    agg = TrialAggregator(app_cls.name, bug, base_seed, n, collect_metrics=collect)

    def note(event: str) -> None:
        if event in ("crash", "timeout"):
            agg.note_worker_crash()

    # Workers inherit what this process loaded: the lazily bound modules
    # the app's module uses (numpy, for three apps) run once here, not
    # once per worker.
    preload(*bound_in(sys.modules[app_cls.__module__]))
    with Pool(task, workers, on_event=note, name="repro-trials") as pool:
        for result in pool.map(
            range(base_seed, base_seed + n),
            max_retries=max_retries,
            timeout=trial_timeout,
            chunk_size=chunk_size,
        ):
            for _ in range(result.attempts - 1):
                agg.note_retry()
            if result.ok:
                agg.add(result.value)
                if on_outcome is not None:
                    on_outcome(result.value)
            else:
                agg.add_failure(TrialFailure(
                    seed=result.task, kind=result.kind,
                    attempts=result.attempts, message=result.message,
                ))
    return agg.finalize()
