"""Aggregation of repeated app executions.

One seeded trial's result is one :data:`Row`,
``[bug_hit, bp_hit, runtime, error_time, wall_time, metrics]``, from
end to end: the trial returns it, the process pool pickles it back, the
result cache stores and serves it as is, and :class:`TrialAggregator`
folds it.  The layout is decided here alone (:func:`is_row` checks one
read back from disk); the cache never looks inside a row.

:class:`TrialStats` summarises a seed range.  The aggregator builds one
from rows that may arrive in any order (pool workers finish out of
order; a cached sweep adds its stored rows before the fresh ones) and
folds them in ascending-seed order, which is what makes a pooled or
cached sweep's output bit-identical to the in-process loop.
"""

from __future__ import annotations

import dataclasses
import math
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "Row",
    "TrialStats",
    "TrialFailure",
    "TrialAggregator",
    "is_row",
    "wilson_interval",
]

#: One seeded trial: ``[bug_hit, bp_hit, runtime, error_time, wall_time,
#: metrics]``.  ``error_time`` is None unless the bug hit; ``wall_time``
#: (wall-clock seconds, volatile) and ``metrics`` (the trial's registry
#: in :meth:`~repro.obs.metrics.MetricsRegistry.to_wire` form) are None
#: unless the sweep collects metrics.  Stored rows keep this layout on
#: disk, under ``CACHE_SCHEMA`` 1.
Row = List[Any]

_NUMBER = (int, float)


def is_row(row: Any) -> bool:
    """Whether ``row`` is a well-formed :data:`Row` (as JSON reads one back).

    Six fields, in order: two bools; a number; a number or None; a
    number or None; None or a list.
    """
    return (
        type(row) is list
        and len(row) == 6
        and type(row[0]) is bool
        and type(row[1]) is bool
        and type(row[2]) in _NUMBER
        and (row[3] is None or type(row[3]) in _NUMBER)
        and (row[4] is None or type(row[4]) in _NUMBER)
        and (row[5] is None or type(row[5]) is list)
    )


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion.

    Used to report reproduction probabilities with honest uncertainty
    (100 trials, the paper's count, gives ~±4% near the middle).
    """
    if n == 0:
        return (0.0, 1.0)
    p = hits / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    margin = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - margin), min(1.0, centre + margin))


@dataclasses.dataclass(frozen=True)
class TrialFailure:
    """A trial the runner could not complete.

    ``kind`` is ``"timeout"`` (exceeded the per-trial wall-clock budget),
    ``"crash"`` (the worker process died mid-trial) or ``"exception"``
    (the trial raised); ``attempts`` counts executions consumed including
    retries.  Failed trials contribute nothing to the hit counters or
    runtime lists — they are accounted, not silently dropped.
    """

    seed: int
    kind: str  # "timeout" | "crash" | "exception"
    attempts: int
    message: str = ""


@dataclasses.dataclass
class TrialStats:
    """Summary of ``n`` seeded executions of one app configuration."""

    app: str
    bug: Optional[str]
    trials: int
    bug_hits: int
    bp_hits: int
    runtimes: List[float]
    error_times: List[float]
    #: Trials that never produced a result (parallel runner only; the
    #: serial loop either completes every trial or raises).
    failures: List[TrialFailure] = dataclasses.field(default_factory=list)
    #: Merged metrics snapshot (see :mod:`repro.obs.metrics`), or None
    #: when the sweep ran without metrics collection.  Entries flagged
    #: ``volatile`` (wall-clock latencies, retry counts) are exempt from
    #: the parallel == serial equivalence contract; everything else is
    #: bit-identical across runner modes for a fixed seed range.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def probability(self) -> float:
        """The paper's "Prob." column: fraction of runs hitting the bug."""
        return self.bug_hits / self.trials if self.trials else 0.0

    @property
    def bp_hit_rate(self) -> float:
        """The Section 5 "BP hit (%)" column."""
        return self.bp_hits / self.trials if self.trials else 0.0

    @property
    def mean_runtime(self) -> float:
        """Mean virtual runtime over successful trials."""
        return sum(self.runtimes) / len(self.runtimes) if self.runtimes else 0.0

    @property
    def mtte(self) -> Optional[float]:
        """Mean time to error over the runs where the error manifested."""
        if not self.error_times:
            return None
        return sum(self.error_times) / len(self.error_times)

    def probability_ci(self) -> tuple:
        """Wilson score interval for the reproduction probability."""
        return wilson_interval(self.bug_hits, self.trials)

    def __str__(self) -> str:
        return (
            f"{self.app}/{self.bug}: prob={self.probability:.2f} "
            f"bp={self.bp_hit_rate:.2f} runtime={self.mean_runtime:.4f}s"
        )


class TrialAggregator:
    """Order-independent accumulation of a seed range's rows.

    The equivalence contract of every runner is enforced here, in code:
    every seed is accepted exactly once and only inside the requested
    range (otherwise :meth:`add` raises), and :meth:`finalize` refuses
    to produce stats unless each seed is accounted for by either a row
    or a recorded failure.  Because finalisation folds by seed, the
    resulting :class:`TrialStats` does not depend on arrival order — a
    pool of N workers, a cache hit and the in-process loop produce
    identical objects.
    """

    def __init__(
        self,
        app: str,
        bug: Optional[str],
        base_seed: int,
        n: int,
        collect_metrics: bool = False,
    ) -> None:
        self.app = app
        self.bug = bug
        self.base_seed = base_seed
        self.n = n
        self.collect_metrics = collect_metrics
        self._rows: Dict[int, Row] = {}
        self._failures: Dict[int, TrialFailure] = {}
        #: Runner-side (non-trial) observations: retries, worker crashes.
        #: Volatile by construction — they depend on scheduling of real
        #: processes, so they are excluded from the determinism contract.
        self._runner_metrics = None
        if collect_metrics:
            from repro.obs.metrics import MetricsRegistry

            self._runner_metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def note_retry(self) -> None:
        """A trial attempt is being re-queued after a crash/exception."""
        if self._runner_metrics is not None:
            self._runner_metrics.counter("harness.retries", volatile=True).inc()

    def note_worker_crash(self) -> None:
        """A pool worker died (or was killed for a timeout)."""
        if self._runner_metrics is not None:
            self._runner_metrics.counter("harness.worker_crashes", volatile=True).inc()

    # ------------------------------------------------------------------
    def add(self, seed: int, row: Row) -> None:
        """Take one seed's row; a seed out of range or seen before is rejected."""
        if not (self.base_seed <= seed < self.base_seed + self.n):
            raise ValueError(f"seed {seed} outside trial range")
        if seed in self._rows or seed in self._failures:
            raise ValueError(f"seed {seed} reported twice")
        self._rows[seed] = row

    def add_failure(self, failure: TrialFailure) -> None:
        """Record a failed trial (excluded from the hit counters)."""
        if failure.seed in self._rows or failure.seed in self._failures:
            raise ValueError(f"seed {failure.seed} reported twice")
        self._failures[failure.seed] = failure

    # ------------------------------------------------------------------
    @property
    def rows(self) -> Mapping[int, Row]:
        """The rows taken so far, by seed (a read-only view)."""
        return MappingProxyType(self._rows)

    @property
    def pending(self) -> int:
        """Seeds not yet accounted for."""
        return self.n - len(self._rows) - len(self._failures)

    def finalize(self) -> TrialStats:
        """Seal and return the seed-ordered TrialStats."""
        if self.pending:
            missing = [
                s
                for s in range(self.base_seed, self.base_seed + self.n)
                if s not in self._rows and s not in self._failures
            ]
            raise ValueError(f"unaccounted seeds: {missing[:10]} (+{max(0, len(missing) - 10)})")
        rows = [self._rows[seed] for seed in sorted(self._rows)]
        bug_hits = bp_hits = 0
        runtimes: List[float] = []
        error_times: List[float] = []
        for bug_hit, bp_hit, runtime, error_time, _, _ in rows:
            bug_hits += bug_hit
            bp_hits += bp_hit
            runtimes.append(runtime)
            if bug_hit and error_time is not None:
                error_times.append(error_time)
        return TrialStats(
            app=self.app,
            bug=self.bug,
            trials=self.n,
            bug_hits=bug_hits,
            bp_hits=bp_hits,
            runtimes=runtimes,
            error_times=error_times,
            failures=[self._failures[s] for s in sorted(self._failures)],
            metrics=self._merged_metrics(rows, bug_hits, bp_hits, runtimes),
        )

    def _merged_metrics(
        self, rows: List[Row], bug_hits: int, bp_hits: int, runtimes: List[float]
    ) -> Optional[Dict[str, Any]]:
        """Merge the seed-ordered rows' registries and add the
        harness-level aggregates.

        Determinism contract: every per-trial snapshot is a pure function
        of ``(app, config, seed)`` and the merge order is the sorted seed
        range, so every runner builds identical registries — only
        metrics explicitly flagged volatile (wall-clock latency,
        retries, crashes) may differ.  The merged registry is also folded
        into the ambient sink when :func:`repro.obs.collecting` is active.
        """
        if not self.collect_metrics:
            return None
        from repro.obs.context import current_sink
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        for row in rows:
            if row[5]:
                merged.merge_wire(row[5])
        merged.counter("harness.trials").inc(len(rows))
        merged.counter("harness.bug_hits").inc(bug_hits)
        merged.counter("harness.bp_hits").inc(bp_hits)
        h = merged.histogram("harness.trial_runtime_seconds")
        for rt in runtimes:
            h.observe(rt)
        for seed in sorted(self._failures):
            kind = self._failures[seed].kind
            merged.counter(f"harness.failures.{kind}").inc()
        walls = [row[4] for row in rows if row[4] is not None]
        if walls:
            wall = merged.histogram("harness.trial_wall_seconds", volatile=True)
            for w in walls:
                wall.observe(w)
        merged.merge(self._runner_metrics)
        sink = current_sink()
        if sink is not None:
            sink.merge(merged)
        return merged.snapshot()
