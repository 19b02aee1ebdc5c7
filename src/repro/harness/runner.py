"""Trial runner: the experiment loop behind every table.

The paper's protocol (Section 6): "we ran each program with the
breakpoints 100 times to measure the empirical probability of hitting the
breakpoint".  :func:`run_trials` is that loop — fresh app instance per
trial, seeds ``base_seed .. base_seed+n-1``, everything deterministic and
replayable.  :func:`measure` pairs a plain and a breakpoint configuration
to produce the runtime-overhead columns.

Both functions accept ``workers``: ``None``/``0`` runs the trials
in-process, any other value on the fault-tolerant process pool
(``workers="auto"`` sizes to the machine), and ``cache`` serves stored
seeds from a :class:`repro.cache.ResultCache`.  Every path builds one
:class:`~repro.harness.stats.TrialAggregator` and feeds it through the
one loop, :func:`repro.harness.parallel.run_seeds`, so for a fixed seed
range they return identical :class:`TrialStats` — the determinism
contract every paper table relies on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, Type, Union

from repro.apps.base import BaseApp

from .parallel import _resolve_workers, check_trial_count, run_seeds, sweep_aggregator
from .stats import TrialStats

__all__ = ["run_trials", "measure", "OverheadRow"]


def run_trials(
    app_cls: Type[BaseApp],
    n: int = 100,
    bug: Optional[str] = None,
    timeout: float = 0.100,
    flip_order: bool = False,
    use_policies: bool = True,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    workers: Union[int, str, None] = None,
    trial_timeout: Optional[float] = None,
    max_retries: int = 2,
    collect_metrics: bool = False,
    cache: Optional[Any] = None,
    trial_hook: Optional[Callable[[int, int], None]] = None,
) -> TrialStats:
    """Run ``n`` seeded executions of one configuration.

    ``timeout`` is the breakpoint pause ``T`` (virtual seconds inside the
    simulation); ``trial_timeout`` is a per-trial *wall-clock* budget and
    requires workers (a serial loop cannot preempt itself).

    ``collect_metrics`` runs every trial under a fresh metrics registry
    and attaches the merged registry snapshot to the returned
    stats (``TrialStats.metrics``); it is implied when an ambient sink is
    active (:func:`repro.obs.collecting`).  Merging happens in ascending
    seed order inside the aggregator, so the non-volatile metrics are
    bit-identical between the serial and parallel paths.

    ``cache`` (a :class:`repro.cache.ResultCache`) serves the sweep from
    the content-addressed store, running only seeds it has never seen —
    the returned stats are bit-identical either way.  ``trial_hook`` is
    the pool's fault-injection hook (tests only; requires workers, never
    part of the cache fingerprint).
    """
    check_trial_count(n)
    workers = _resolve_workers(workers)
    if trial_timeout is not None and not workers:
        raise ValueError("trial_timeout requires workers (serial trials cannot be preempted)")
    options = dict(
        timeout=timeout,
        flip_order=flip_order,
        use_policies=use_policies,
        params=params,
        workers=workers,
        trial_timeout=trial_timeout,
        max_retries=max_retries,
        trial_hook=trial_hook,
    )
    if cache is not None:
        return cache.run_trials(
            app_cls, n=n, bug=bug, base_seed=base_seed,
            collect_metrics=collect_metrics, **options,
        )
    agg = sweep_aggregator(app_cls, n, bug, base_seed, collect_metrics)
    run_seeds(agg, app_cls, range(base_seed, base_seed + n), **options)
    return agg.finalize()


@dataclasses.dataclass
class OverheadRow:
    """One Table 1 measurement: plain vs with-breakpoints runtime."""

    app: str
    bug: str
    normal_runtime: float
    bp_runtime: float
    probability: float
    bp_hit_rate: float

    @property
    def overhead_pct(self) -> float:
        """Slowdown of the instrumented run, in percent."""
        if self.normal_runtime <= 0:
            return 0.0
        return 100.0 * (self.bp_runtime - self.normal_runtime) / self.normal_runtime


def measure(
    app_cls: Type[BaseApp],
    bug: str,
    n: int = 100,
    timeout: float = 0.100,
    use_policies: bool = True,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    workers: Union[int, str, None] = None,
    trial_timeout: Optional[float] = None,
    cache: Optional[Any] = None,
) -> OverheadRow:
    """Paired normal/with-breakpoints measurement for one bug."""
    plain = run_trials(
        app_cls, n=n, bug=None, base_seed=base_seed, params=params,
        workers=workers, trial_timeout=trial_timeout, cache=cache,
    )
    with_bp = run_trials(
        app_cls, n=n, bug=bug, timeout=timeout, use_policies=use_policies,
        base_seed=base_seed, params=params,
        workers=workers, trial_timeout=trial_timeout, cache=cache,
    )
    return OverheadRow(
        app=app_cls.name,
        bug=bug,
        normal_runtime=plain.mean_runtime,
        bp_runtime=with_bp.mean_runtime,
        probability=with_bp.probability,
        bp_hit_rate=with_bp.bp_hit_rate,
    )
