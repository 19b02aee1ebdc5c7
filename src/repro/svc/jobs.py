"""Job model: what a client submits, what the service hands back.

A *job* is one unit of reproduction work — either a seeded breakpoint
trial sweep (the paper's 100-run protocol, executed by
:func:`repro.harness.run_trials`) or a schedule-space exploration
(:func:`repro.harness.explore_app`).  The service is strictly a
*transport* layer around those two entry points: :func:`execute_job` is
the only function that runs a job, it is the same code path the CLI and
the library use, and its output is reduced to JSON with a lossless float
round-trip so the client can reconstruct results **bit-identical** to a
direct in-process call (``tests/svc/test_differential.py`` enforces
this).

Job-level failures (a job whose worker crashes, times out, or raises)
reuse the harness's :class:`~repro.harness.stats.TrialFailure` record —
same ``kind`` vocabulary (``"crash"`` / ``"timeout"`` / ``"exception"``),
same attempt accounting — so a service client reads failures exactly the
way a `run_trials` caller reads per-trial failures.  A
:class:`JobRecord` is plain data of the daemon's event-loop thread.
"""

from __future__ import annotations

import dataclasses
import logging
import re
import time
from typing import Any, Dict, Optional, Tuple

from repro.apps import get_app
from repro.harness.stats import TrialFailure, TrialStats

__all__ = [
    "JobValidationError",
    "JobSpec",
    "JobRecord",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "TERMINAL_STATES",
    "execute_job",
    "job_call",
    "try_cached_result",
    "result_from_wire",
    "stats_to_wire",
    "stats_from_wire",
    "failure_to_wire",
    "failure_from_wire",
]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: States after which a record never changes again.
TERMINAL_STATES = frozenset({DONE, FAILED})

#: Legal tenant names: short, metric-key-safe identifiers.
_TENANT_RE = re.compile(r"[A-Za-z0-9._-]{1,64}")

class JobValidationError(ValueError):
    """The submitted job spec is malformed or names unknown entities."""


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One reproduction job, fully described by JSON-able scalars.

    ``kind`` selects the entry point: ``"trials"`` runs the seeded trial
    sweep, ``"explore"`` enumerates the schedule space, ``"infer"``
    runs the inference pipeline.  Every field below maps one-to-one
    onto a parameter of :func:`repro.harness.run_trials`,
    :func:`repro.harness.explore_summary` or
    :func:`repro.infer.infer_app` (:func:`job_call` is that map), which
    is what makes the service's determinism argument a one-liner: same
    spec, same seeds, same code path, same result.

    ``workers`` fans the job's trials (or, with ``dpor``, its
    exploration shards) over a nested :class:`repro.pool.Pool` of that
    many processes *inside* the job's worker; 0 keeps the serial loop
    and negative counts are refused.  ``job_timeout`` is the per-job
    wall-clock budget enforced by the executor (None defers to the
    service default).
    """

    kind: str = "trials"
    app: str = ""
    bug: Optional[str] = None
    # --- inference parameters (repro.infer.infer_app; reuses trials/
    # base_seed/timeout/seed/params/workers/trial_timeout above+below) ---
    steer_attempts: int = 5
    # --- trials parameters (repro.harness.run_trials) ---
    trials: int = 100
    base_seed: int = 0
    timeout: float = 0.100
    flip_order: bool = False
    use_policies: bool = True
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    workers: int = 0
    trial_timeout: Optional[float] = None
    max_retries: int = 2
    collect_metrics: bool = False
    # --- exploration parameters (repro.harness.explore_app) ---
    dpor: bool = False
    sleep_sets: bool = False
    #: Named the removed fork snapshot executor.  Kept because the
    #: ``repro.svc/1`` wire sends every field; ``validate`` refuses True.
    snapshots: bool = False
    shard_depth: int = 2
    max_schedules: int = 2000
    max_steps: Optional[int] = None
    seed: int = 0
    witness_limit: int = 3
    #: Preemption-bounded search: cut schedules needing more than this
    #: many preemptions (None = unbounded).  Result-relevant — joins the
    #: cache fingerprint and the routing fingerprint.
    bound_preemptions: Optional[int] = None
    #: Variable-bounded search: cut schedules whose preemptions touch
    #: more than this many distinct synchronisation variables.
    bound_variables: Optional[int] = None
    # --- service-level knobs ---
    job_timeout: Optional[float] = None
    #: Bypass the service's shared result cache for this job only
    #: (results are bit-identical either way; this exists for
    #: measurement and for forcing a recompute).
    no_cache: bool = False
    #: Fair-share accounting identity (multi-tenant fleets).  Purely an
    #: admission-control label: it feeds the queue's weighted-fair
    #: dequeue and per-tenant shedding but never the result, the cache
    #: key, or the routing fingerprint — two tenants submitting the same
    #: config share one cache entry and one shard.
    tenant: str = "anon"

    def validate(self) -> "JobSpec":
        """Check the spec against the app registry; return self.

        Raises :class:`JobValidationError` with a client-presentable
        message — the server maps it to HTTP 400.
        """
        if self.kind not in ("trials", "explore", "infer"):
            raise JobValidationError(
                f"unknown job kind {self.kind!r} "
                "(expected 'trials', 'explore' or 'infer')"
            )
        try:
            cls = get_app(self.app)
        except KeyError:
            raise JobValidationError(f"unknown app {self.app!r}") from None
        if self.bug is not None and self.bug not in cls.bugs:
            raise JobValidationError(
                f"{self.app} has no bug {self.bug!r}; known: {list(cls.bugs)}"
            )
        if self.kind in ("trials", "infer") and self.trials <= 0:
            raise JobValidationError(f"trials must be positive, got {self.trials}")
        if self.workers < 0:
            raise JobValidationError(
                f"workers must be >= 0 (0 = serial), got {self.workers}"
            )
        timed = self.kind in ("trials", "infer") and self.trial_timeout is not None
        if timed and self.workers == 0:
            raise JobValidationError("trial_timeout requires workers > 0")
        if self.kind == "infer" and self.bug is not None:
            raise JobValidationError(
                "infer jobs take no bug: the pipeline discovers bugs itself"
            )
        if self.kind == "infer" and self.steer_attempts < 0:
            raise JobValidationError(
                f"steer_attempts must be >= 0, got {self.steer_attempts}"
            )
        if self.snapshots:
            raise JobValidationError(
                "snapshots is no longer supported: the fork snapshot "
                "executor was removed (explorations replay statelessly)"
            )
        if self.kind == "explore" and self.sleep_sets and not self.dpor:
            raise JobValidationError(
                "sleep_sets requires dpor: sleep sets prune the DPOR walk"
            )
        if self.kind == "explore" and self.max_schedules <= 0:
            raise JobValidationError(
                f"max_schedules must be positive, got {self.max_schedules}"
            )
        if self.bound_preemptions is not None and self.bound_preemptions < 0:
            raise JobValidationError(
                f"bound_preemptions must be >= 0, got {self.bound_preemptions}"
            )
        if self.bound_variables is not None and self.bound_variables < 0:
            raise JobValidationError(
                f"bound_variables must be >= 0, got {self.bound_variables}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise JobValidationError(f"job_timeout must be positive, got {self.job_timeout}")
        if (
            not isinstance(self.tenant, str)
            or not _TENANT_RE.fullmatch(self.tenant)
        ):
            raise JobValidationError(
                f"tenant must match [A-Za-z0-9._-]{{1,64}}, got {self.tenant!r}"
            )
        return self

    def to_json(self) -> Dict[str, Any]:
        """The spec as a JSON-able dict (the ``POST /jobs`` body)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "JobSpec":
        """Parse a wire dict, rejecting unknown fields loudly."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise JobValidationError(f"unknown job spec field(s): {sorted(unknown)}")
        try:
            spec = cls(**doc)
        except TypeError as exc:
            raise JobValidationError(str(exc)) from None
        return spec


# ---------------------------------------------------------------------------
# Result serialization (lossless: JSON floats round-trip via repr)
# ---------------------------------------------------------------------------


def failure_to_wire(failure: TrialFailure) -> Dict[str, Any]:
    """One :class:`TrialFailure` as a JSON dict."""
    return {
        "seed": failure.seed,
        "kind": failure.kind,
        "attempts": failure.attempts,
        "message": failure.message,
    }


def failure_from_wire(doc: Dict[str, Any]) -> TrialFailure:
    """Inverse of :func:`failure_to_wire`."""
    return TrialFailure(
        seed=doc["seed"],
        kind=doc["kind"],
        attempts=doc["attempts"],
        message=doc.get("message", ""),
    )


def stats_to_wire(stats: TrialStats) -> Dict[str, Any]:
    """A :class:`TrialStats` as a JSON dict, bit-identical on round-trip.

    Every float travels through ``repr`` (Python's ``json`` module), so
    ``stats_from_wire(stats_to_wire(s)) == s`` exactly — runtimes, error
    times, and the metrics snapshot included.
    """
    return {
        "type": "trials",
        "app": stats.app,
        "bug": stats.bug,
        "trials": stats.trials,
        "bug_hits": stats.bug_hits,
        "bp_hits": stats.bp_hits,
        "runtimes": list(stats.runtimes),
        "error_times": list(stats.error_times),
        "failures": [failure_to_wire(f) for f in stats.failures],
        "metrics": stats.metrics,
    }


def stats_from_wire(doc: Dict[str, Any]) -> TrialStats:
    """Inverse of :func:`stats_to_wire`."""
    return TrialStats(
        app=doc["app"],
        bug=doc["bug"],
        trials=doc["trials"],
        bug_hits=doc["bug_hits"],
        bp_hits=doc["bp_hits"],
        runtimes=list(doc["runtimes"]),
        error_times=list(doc["error_times"]),
        failures=[failure_from_wire(f) for f in doc.get("failures", [])],
        metrics=doc.get("metrics"),
    )


def job_call(spec: JobSpec) -> Tuple[Any, Dict[str, Any]]:
    """The library call that runs ``spec``: its first argument and keywords.

    ``run_trials(app_cls, **kw)``, ``explore_summary(app, **kw)`` or
    ``infer_app(app, **kw)``.  The job's cache entry is a function of
    these keywords alone: :func:`execute_job` makes the call,
    :func:`try_cached_result` passes them to the cache's ``fetch_<kind>``
    and :func:`~repro.svc.router.routing_fingerprint` to the kind's key
    function (:mod:`repro.cache.fingerprint`), so the three agree on the
    entry by construction.  ``KeyError`` for an unknown app.
    """
    kw: Dict[str, Any] = dict(
        timeout=spec.timeout,
        use_policies=spec.use_policies,
        params=dict(spec.params),
        workers=spec.workers or None,
    )
    if spec.kind == "trials":
        kw.update(
            n=spec.trials,
            bug=spec.bug,
            flip_order=spec.flip_order,
            base_seed=spec.base_seed,
            trial_timeout=spec.trial_timeout,
            max_retries=spec.max_retries,
            collect_metrics=spec.collect_metrics,
        )
        return get_app(spec.app), kw
    if spec.kind == "explore":
        from repro.sim.explore import Bound

        kw.update(
            bug=spec.bug,
            witness_limit=spec.witness_limit,
            dpor=spec.dpor,
            sleep_sets=spec.sleep_sets,
            shard_depth=spec.shard_depth,
            max_schedules=spec.max_schedules,
            max_steps=spec.max_steps,
            seed=spec.seed,
            bound=Bound.from_values(spec.bound_preemptions, spec.bound_variables),
        )
        return spec.app, kw
    kw.update(
        seed=spec.seed,
        trials=spec.trials,
        base_seed=spec.base_seed,
        trial_timeout=spec.trial_timeout,
        steer_attempts=spec.steer_attempts,
    )
    return spec.app, kw


def _to_wire(result: Any) -> Dict[str, Any]:
    return stats_to_wire(result) if isinstance(result, TrialStats) else result.to_wire()


def result_from_wire(doc: Dict[str, Any]) -> Any:
    """Inverse of the wire form :func:`execute_job` returns.

    The document's ``type`` tag names its kind, and the result is what
    that kind's library call returns: a :class:`TrialStats`, an
    :class:`~repro.harness.ExplorationSummary` or an
    :class:`~repro.infer.InferenceReport`.
    """
    kind = doc.get("type")
    if kind == "trials":
        return stats_from_wire(doc)
    if kind == "explore":
        from repro.harness.exploration import ExplorationSummary

        return ExplorationSummary.from_wire(doc)
    if kind == "infer":
        from repro.infer.report import InferenceReport

        return InferenceReport.from_wire(doc)
    raise ValueError(f"unknown result type {kind!r}")


def execute_job(
    spec: JobSpec,
    cache: Optional[Any] = None,
    metrics: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run one job to completion and return its wire-form result.

    This runs inside the service's pool worker process.  It is a thin
    dispatch onto the library entry points (:func:`job_call`) — the
    service adds no semantics here, which is exactly the differential
    battery's claim.  ``cache`` is the service's shared
    :class:`repro.cache.ResultCache` (ignored when the spec opts out);
    cached and fresh results are bit-identical by the cache's own
    contract.  ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` the explore and infer
    paths count into: the ``explore.*`` counters (schedules, steps,
    cuts, ``explore.dpor.*``), sharded or not, and the ``infer.*``
    counters of a pipeline that runs — purely observational, never
    result-affecting.
    """
    first, kw = job_call(spec)
    kw["cache"] = None if spec.no_cache else cache
    if spec.kind == "trials":
        from repro.harness import run_trials as call
    else:
        kw["obs"] = metrics
        if spec.kind == "explore":
            from repro.harness import explore_summary as call
        else:
            from repro.infer import infer_app as call
    return _to_wire(call(first, **kw))


def try_cached_result(cache: Optional[Any], spec: JobSpec) -> Optional[Dict[str, Any]]:
    """Parent-side full-coverage cache lookup for a job spec.

    Returns the job's wire payload when the cache can serve it entirely
    (letting the executor skip the pool worker), or None when any part
    would have to run — partial coverage is left to the pool worker,
    which runs only the missing seeds.
    """
    if cache is None or spec.no_cache:
        return None
    try:
        first, kw = job_call(spec)
        result = getattr(cache, f"fetch_{spec.kind}")(first, **kw)
        return None if result is None else _to_wire(result)
    except Exception:  # noqa: BLE001 - a broken cache must never fail a job
        return None


# ---------------------------------------------------------------------------
# Job records (server-side lifecycle)
# ---------------------------------------------------------------------------


class JobRecord:
    """Server-side lifecycle of one accepted job.

    Once the service has started, only its event-loop thread reads or
    writes a record: it moves the record through ``queued → running →
    done | failed``, and completion callbacks (:meth:`subscribe`) run on
    that thread too.  Wall-clock stamps are operational data (volatile
    in the metrics sense) — they never feed into results.
    """

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = QUEUED
        self.attempts = 0
        self.result: Optional[Dict[str, Any]] = None
        self.failure: Optional[TrialFailure] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._subs: list = []

    # -- transitions ----------------------------------------------------
    def mark_running(self) -> None:
        """Queue → running (stamps the queue-wait boundary)."""
        self.state = RUNNING
        self.started_at = time.monotonic()

    def finish(self, result: Dict[str, Any]) -> None:
        """Running → done with a wire-form result payload."""
        self.result = result
        self.state = DONE
        self._settle()

    def fail(self, failure: TrialFailure) -> None:
        """Running → failed with a :class:`TrialFailure` account."""
        self.failure = failure
        self.state = FAILED
        self._settle()

    def _settle(self) -> None:
        """Stamp the end; fire-and-clear every completion callback once."""
        self.finished_at = time.monotonic()
        subs, self._subs = self._subs, []
        for cb in subs:
            try:
                cb()
            except Exception:  # noqa: BLE001 - a waiter must not break others
                logging.getLogger(__name__).exception("a callback of %s raised", self.id)

    def subscribe(self, callback) -> None:
        """Register ``callback()`` to run once the unfinished job turns
        terminal (the async frontend's long-polls ride this)."""
        self._subs.append(callback)

    def unsubscribe(self, callback) -> None:
        """Remove a pending completion callback (no-op if already fired)."""
        try:
            self._subs.remove(callback)
        except ValueError:
            pass

    # -- readers ----------------------------------------------------------
    @property
    def terminal(self) -> bool:
        """Has the job reached a final state?"""
        return self.state in TERMINAL_STATES

    def queue_wait(self) -> Optional[float]:
        """Seconds spent queued, once running (None while queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def latency(self) -> Optional[float]:
        """Submit-to-terminal wall seconds, once terminal."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_json(self, include_result: bool = True) -> Dict[str, Any]:
        """The record as the wire dict ``GET /jobs/<id>`` returns."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "kind": self.spec.kind,
            "app": self.spec.app,
            "bug": self.spec.bug,
            "tenant": self.spec.tenant,
            "attempts": self.attempts,
            "queue_wait_seconds": self.queue_wait(),
            "latency_seconds": self.latency(),
        }
        if include_result:
            doc["result"] = self.result
            doc["failure"] = (
                failure_to_wire(self.failure) if self.failure is not None else None
            )
        return doc
