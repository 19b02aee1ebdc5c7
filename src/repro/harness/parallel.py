"""Trial sweeps: one loop runs a seed list into an aggregator, in-process or on a pool.

The paper's protocol runs every configuration 100 times; each trial is
fully determined by ``(app class, config, seed)``, so the sweep is
embarrassingly parallel.  :func:`run_seeds` is the one loop behind every
sweep — uncached (:func:`repro.harness.run_trials`) and cached (the
result cache hands it every missing seed of a request in one call).  With no workers it runs
the seeds in-process; otherwise it deals them to the worker *processes*
of one :class:`repro.pool.Pool` (the kernel is pure Python; threads
would serialise on the GIL) in chunks to amortise IPC.  Either way
each trial's :data:`~repro.harness.stats.Row` goes, keyed by seed, into
the caller's :class:`~repro.harness.stats.TrialAggregator`, which
accepts each seed exactly once, refuses to finalise with seeds
unaccounted for and folds by seed, so for any fixed seed range every
runner returns identical :class:`TrialStats` (same hit counts, same
per-seed runtime lists), whatever the worker count, the chunking or the
faults on the way — every paper table stays reproducible.

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
from typing import Any, Callable, Dict, Optional, Sequence, Type, Union

from repro._lazy import bound_in, preload
from repro.apps.base import AppConfig, BaseApp
from repro.obs.context import current_sink
from repro.obs.metrics import MetricsRegistry
from repro.pool import ParallelExecutionError, Pool

from .stats import Row, TrialAggregator, TrialFailure

__all__ = [
    "ParallelExecutionError",
    "run_seeds",
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


def _resolve_workers(workers: Union[int, str, None]) -> int:
    """Normalise the ``workers`` argument: 0 means "stay serial"."""
    if workers is None:
        return 0
    if workers == "auto":
        return default_workers()
    w = int(workers)
    if w < 0:
        raise ValueError(
            f"workers must be >= 0 (0 = serial) or 'auto', got {w}"
        )
    return w


def sweep_aggregator(
    app_cls: Type[BaseApp], n: int, bug: Optional[str], base_seed: int, collect_metrics: bool
) -> TrialAggregator:
    """The empty aggregator of one sweep.

    It collects metrics when asked to or when an ambient sink is active
    (:func:`repro.obs.collecting`).
    """
    collect = collect_metrics or current_sink() is not None
    return TrialAggregator(app_cls.name, bug, base_seed, n, collect_metrics=collect)


def execute_trial(
    app_cls: Type[BaseApp], cfg: AppConfig, seed: int,
    reuse_obs: Optional[MetricsRegistry] = None,
) -> Row:
    """Run one seeded trial and reduce it to its picklable :data:`~repro.harness.stats.Row`.

    This is the single definition of "one trial" — the in-process loop
    and every pool worker call exactly this, so the two execution modes
    cannot diverge semantically.  When the config asks for metrics, the
    trial runs under a per-trial :class:`repro.obs.MetricsRegistry`
    whose wire form travels back in the row, next to the trial's
    wall-clock latency (volatile: excluded from the determinism
    contract).

    ``reuse_obs`` lets a sweep share one registry across its trials (it
    is reset before each trial) — allocating ~20 metric objects per
    trial costs more in allocation + GC than the trial's entire flush,
    so :func:`run_seeds` passes a sweep-scoped registry.  Reuse is an
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
    return [
        bool(run.bug_hit),
        bool(run.bp_hit()),
        run.runtime,
        run.error_time if run.bug_hit else None,
        wall,
        wire,
    ]


def _run_trial(
    app_cls: Type[BaseApp],
    cfg: AppConfig,
    trial_hook: Optional[Callable[[int, int], None]],
    reuse: Optional[MetricsRegistry],
    seed: int,
    attempt: int,
) -> Row:
    """Pool task: one seeded trial.

    ``trial_hook(seed, attempt)`` runs first; it exists for
    fault-injection tests (raise → trial error; ``os._exit`` → worker
    crash) and is None in production use.  ``reuse`` is copied into each
    worker, so every worker shares one registry across its trials.
    """
    if trial_hook is not None:
        trial_hook(seed, attempt)
    return execute_trial(app_cls, cfg, seed, reuse_obs=reuse)


def run_seeds(
    agg: TrialAggregator,
    app_cls: Type[BaseApp],
    seeds: Sequence[int],
    *,
    timeout: float = 0.100,
    flip_order: bool = False,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    workers: Union[int, str, None] = None,
    trial_timeout: Optional[float] = None,
    max_retries: int = 2,
    chunk_size: Optional[int] = None,
    trial_hook: Optional[Callable[[int, int], None]] = None,
) -> None:
    """Run ``seeds`` into ``agg``: the one loop of every trial sweep.

    The configuration is ``agg``'s bug and metrics setting plus these
    keywords, which mean what they mean to
    :func:`repro.harness.run_trials`.  With no workers (``None``/``0``)
    the seeds run in-process, in order, and a trial that raises
    propagates; ``trial_timeout``, ``max_retries`` and ``trial_hook``
    need a pool.  Otherwise they run on one :class:`~repro.pool.Pool` of
    at most ``workers`` processes, in batches of ``chunk_size`` (by
    default about four per worker, so one slow batch cannot leave the
    rest of the pool idle at the tail of the sweep); each retry and
    worker crash is noted on ``agg`` and a trial that exhausts the
    pool's fault contract is added as a :class:`TrialFailure`.
    """
    cfg = AppConfig(
        bug=agg.bug,
        timeout=timeout,
        flip_order=flip_order,
        use_policies=use_policies,
        params=dict(params or {}),
        collect_metrics=agg.collect_metrics,
    )
    # One registry for the whole sweep, reset per trial (see
    # execute_trial); a pool copies it into each worker.
    reuse = MetricsRegistry() if agg.collect_metrics else None
    workers = min(_resolve_workers(workers), len(seeds))
    if not workers:
        for seed in seeds:
            agg.add(seed, execute_trial(app_cls, cfg, seed, reuse_obs=reuse))
        return
    if chunk_size is None:
        chunk_size = max(1, len(seeds) // (workers * 4))
    task = functools.partial(_run_trial, app_cls, cfg, trial_hook, reuse)

    def note(event: str) -> None:
        if event in ("crash", "timeout"):
            agg.note_worker_crash()

    # Workers inherit what this process loaded: the lazily bound modules
    # the app's module uses (numpy, for three apps) run once here, not
    # once per worker.
    preload(*bound_in(sys.modules[app_cls.__module__]))
    with Pool(task, workers, on_event=note, name="repro-trials") as pool:
        for result in pool.map(
            seeds, max_retries=max_retries, timeout=trial_timeout, chunk_size=chunk_size
        ):
            for _ in range(result.attempts - 1):
                agg.note_retry()
            if result.ok:
                agg.add(result.task, result.value)
            else:
                agg.add_failure(TrialFailure(
                    seed=result.task, kind=result.kind,
                    attempts=result.attempts, message=result.message,
                ))

