"""The push-button pipeline: one logged trace to ranked, confirmed bugs.

:func:`infer_app` is the subsystem's entry point (the ``repro infer``
CLI command, the svc ``"infer"`` job kind, and the library API are all
thin wrappers around it):

1. run the app once, plain, with tracing (the "one logged trace"),
2. analyse it with the full detector battery and generate breakpoint
   candidates from the deduplicated findings
   (:func:`~repro.infer.candidates.generate_candidates`),
3. match candidates to the registry's declared bugs and confirm each
   matched bug through the ordinary trial harness in both resolution
   orders (:func:`~repro.infer.confirm.confirm_bug`) — parallel via
   ``workers``, memoized via the result cache,
4. steer unmatched candidates with active testing
   (:func:`~repro.infer.confirm.steer_candidate`),
5. rank confirmed candidates by probability and pause cost
   (:mod:`repro.infer.rank`) and attach atomic-region fix suggestions
   (:mod:`repro.infer.fixes`),
6. emit the structured :class:`~repro.infer.report.InferenceReport`.

Every stage is deterministic given the configuration, so the whole
report is cacheable under one canonical-JSON fingerprint
(:func:`repro.cache.infer_key`, which takes this function's keywords);
``infer.*`` counters land in the passed metrics registry or the
ambient sink.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.apps import get_app
from repro.apps.base import AppConfig
from repro.detect import analysis_to_dict, analyze
from repro.harness.runner import run_trials
from repro.obs.context import current_sink
from repro.svc.jobs import stats_to_wire

from .candidates import generate_candidates, match_candidate
from .confirm import confirm_bug, steer_candidate
from .fixes import suggest_fix
from .rank import pause_cost, rank_confirmed
from .report import (
    CONFIRMED,
    STEERED,
    UNCONFIRMED,
    UNMATCHED,
    CandidateResult,
    InferenceReport,
)

__all__ = ["INFER_VERSION", "infer_app", "run_inference"]

#: Version tag of the pipeline's heuristics (matching tiers, candidate
#: generation, confirmation rule).  Part of the cache fingerprint: bump
#: it whenever a heuristic change can alter a report, so stale cached
#: reports stop matching.
INFER_VERSION = 1


def _counter(obs: Any, name: str, by: int = 1) -> None:
    """Bump an ``infer.*`` counter in ``obs`` or the ambient sink."""
    registry = obs if obs is not None else current_sink()
    if registry is not None:
        registry.counter(name).inc(by)


def infer_app(
    app_name: str,
    *,
    seed: int = 0,
    trials: int = 20,
    timeout: float = 0.100,
    base_seed: int = 0,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    workers: Any = None,
    trial_timeout: Optional[float] = None,
    steer_attempts: int = 5,
    cache: Any = None,
    obs: Any = None,
) -> InferenceReport:
    """Infer, confirm and rank breakpoints for ``app_name``.

    With a :class:`repro.cache.ResultCache`, the *whole report* is
    memoized under its inference fingerprint (a warm rerun returns the
    stored report without executing anything) and, on a cold run, the
    per-candidate trial sweeps are additionally memoized individually —
    so even a cold inference reuses any sweep a previous ``repro run``
    already paid for.
    """
    if cache is not None:
        return cache.infer(
            app_name,
            seed=seed,
            trials=trials,
            timeout=timeout,
            base_seed=base_seed,
            use_policies=use_policies,
            params=params,
            trial_timeout=trial_timeout,
            steer_attempts=steer_attempts,
            workers=workers,
            obs=obs,
        )
    return run_inference(
        app_name,
        seed=seed,
        trials=trials,
        timeout=timeout,
        base_seed=base_seed,
        use_policies=use_policies,
        params=params,
        workers=workers,
        trial_timeout=trial_timeout,
        steer_attempts=steer_attempts,
        trial_cache=None,
        obs=obs,
    )


def run_inference(
    app_name: str,
    *,
    seed: int = 0,
    trials: int = 20,
    timeout: float = 0.100,
    base_seed: int = 0,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    workers: Any = None,
    trial_timeout: Optional[float] = None,
    steer_attempts: int = 5,
    trial_cache: Any = None,
    obs: Any = None,
) -> InferenceReport:
    """The uncached pipeline body (``trial_cache`` memoizes sweeps only).

    :class:`repro.cache.ResultCache.infer` calls this on a report-level
    miss, passing itself as ``trial_cache`` so the inner sweeps are
    still served from / recorded into the store.
    """
    cls = get_app(app_name)
    app = cls(AppConfig(bug=None, use_policies=use_policies, params=dict(params or {})))
    run = app.run(seed=seed, record_trace=True)
    trace = run.result.trace

    analysis = analyze(trace)
    candidates = generate_candidates(analysis)
    _counter(obs, "infer.reports.total", analysis.total_findings)
    _counter(obs, "infer.reports.unique", len(analysis.unique_findings()))
    _counter(obs, "infer.candidates.generated", len(candidates))

    matches = [match_candidate(c, cls) for c in candidates]
    _counter(
        obs, "infer.candidates.matched", sum(1 for m in matches if m is not None)
    )

    sweep_kwargs = dict(
        n=trials,
        timeout=timeout,
        base_seed=base_seed,
        use_policies=use_policies,
        params=params,
        workers=workers,
        trial_timeout=trial_timeout,
        cache=trial_cache,
    )
    # One confirmation per distinct bug — several candidates may denote
    # the same bug; the sweep runs once and its verdict is shared.
    confirmations: Dict[str, Any] = {}
    for match in matches:
        if match is not None and match.bug not in confirmations:
            confirmations[match.bug] = confirm_bug(cls, match.bug, **sweep_kwargs)
            _counter(obs, "infer.sweeps", confirmations[match.bug].orders_tried)

    baseline = run_trials(
        cls,
        bug=None,
        n=trials,
        timeout=timeout,
        base_seed=base_seed,
        use_policies=use_policies,
        params=params,
        workers=workers,
        trial_timeout=trial_timeout,
        cache=trial_cache,
    )
    _counter(obs, "infer.sweeps")

    results: List[CandidateResult] = []
    confirmed_rows: List[tuple] = []  # (index into results, name, stats, cost)
    for candidate, match in zip(candidates, matches):
        if match is not None:
            conf = confirmations[match.bug]
            if conf.confirmed:
                cost = pause_cost(conf.stats, baseline)
                # suggest_fix returns None for kinds with no atomic-
                # region repair shape (races, deadlocks).
                fix = suggest_fix(candidate, trace)
                if fix is not None:
                    _counter(obs, "infer.fixes.suggested")
                results.append(
                    CandidateResult(
                        candidate=candidate,
                        status=CONFIRMED,
                        match=match,
                        flip_order=conf.flip_order,
                        orders_tried=conf.orders_tried,
                        stats=conf.stats,
                        fix=fix,
                        pause_cost=cost,
                    )
                )
                confirmed_rows.append(
                    (len(results) - 1, candidate.name, conf.stats, cost)
                )
                _counter(obs, "infer.candidates.confirmed")
            else:
                results.append(
                    CandidateResult(
                        candidate=candidate,
                        status=UNCONFIRMED,
                        match=match,
                        orders_tried=conf.orders_tried,
                        stats=conf.stats,
                    )
                )
                _counter(obs, "infer.candidates.unconfirmed")
        else:
            steer = steer_candidate(
                cls,
                candidate,
                attempts=steer_attempts,
                base_seed=base_seed,
                params=params,
            )
            status = STEERED if steer.steered else UNMATCHED
            results.append(
                CandidateResult(candidate=candidate, status=status, steer=steer)
            )
            _counter(obs, f"infer.candidates.{status}")

    ranks = rank_confirmed([(name, stats, cost) for _, name, stats, cost in confirmed_rows])
    for (index, _name, _stats, _cost), rank in zip(confirmed_rows, ranks):
        results[index] = dataclasses.replace(results[index], rank=rank)

    return InferenceReport(
        app=cls.name,
        trace_seed=seed,
        trials=trials,
        base_seed=base_seed,
        timeout=timeout,
        analysis=analysis_to_dict(analysis),
        baseline=stats_to_wire(baseline),
        results=tuple(results),
    )
