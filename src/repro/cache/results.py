"""ResultCache — memoized trial sweeps and exploration summaries.

Memoization is sound here because trials are replay-deterministic: a
:class:`~repro.harness.stats.TrialOutcome` is a pure function of
``(app, config, seed)`` and an exploration summary of its strategy
tuple, so a stored result is indistinguishable from a recomputed one
(DESIGN.md section on result caching; proven bit-identical by
``tests/cache/test_differential.py``).

Two structural decisions carry the correctness argument:

* **Per-seed storage, shared aggregation.**  Trial entries store
  individual per-seed outcome rows under a *config* fingerprint (the
  seed range is not part of the storage key).  Any requested range is
  served by replaying covered rows and running only the missing
  contiguous segments fresh, then folding everything through the same
  ascending-seed :class:`~repro.harness.stats.TrialAggregator` both
  runners use — so a warm ``0..199`` answer assembled from a cached
  ``0..99`` plus a fresh suffix is bit-identical to a cold ``0..199``
  run for any split.
* **Failures are never cached.**  Only successful outcomes are stored;
  a seed that timed out or crashed is re-run on every request, so a
  transient failure can never be replayed as if it were a result.

The rows of one config live in immutable segment files, one per
contiguous run of fresh successful seeds (:meth:`CacheStore.segments`):
a store writes only the seeds it ran, and a lookup lists the config's
directory once and opens only the segments its range overlaps — a
lookup whose range no segment name covers opens no file at all.

Counters (all volatile — they describe this process's luck, not the
computation): ``cache.hit`` (full coverage), ``cache.partial_hit``,
``cache.miss``, ``cache.store``, ``cache.evict``, ``cache.corrupt``.
They land in the cache's bound registry or, failing that, the ambient
:func:`repro.obs.collecting` sink.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.obs.context import current_sink
from repro.obs.metrics import MetricsRegistry

from .fingerprint import (
    CACHE_SCHEMA,
    canonical_json,
    fingerprint_doc,
    storage_config_doc,
    trial_config_doc,
)
from .store import DEFAULT_MAX_BYTES, CacheStore, Segment, StoreStats

__all__ = ["ResultCache"]


def _normalized(doc: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-round-trip-stable form of a config doc (what entries embed)."""
    return json.loads(canonical_json(doc))


def _segments(seeds: List[int]) -> List[Segment]:
    """Group sorted seeds into contiguous ``(start, count)`` runs."""
    out: List[Segment] = []
    for s in seeds:
        if out and s == out[-1][0] + out[-1][1]:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((s, 1))
    return out


def _covers(segments: List[Segment], lo: int, hi: int) -> bool:
    """Whether the seed runs ``segments`` together hold every seed in ``lo..hi-1``."""
    for start, count in sorted(segments):
        if start > lo:
            break
        lo = max(lo, start + count)
    return lo >= hi


class ResultCache:
    """Content-addressed on-disk store of trial and exploration results.

    ``metrics`` optionally binds a registry the ``cache.*`` counters
    increment into (the svc daemon binds its service registry; forked
    job children rebind via :meth:`with_metrics` and ship the deltas
    back over the result pipe).  Without one, counters fall through to
    the ambient :func:`repro.obs.collecting` sink when active.
    """

    def __init__(
        self,
        root: os.PathLike,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = metrics
        self.store = CacheStore(
            root,
            max_bytes=max_bytes,
            on_event=lambda name: self._count(f"cache.{name}"),
        )

    @property
    def root(self) -> str:
        """Directory the entries live under."""
        return str(self.store.root)

    def with_metrics(self, registry: Optional[MetricsRegistry]) -> "ResultCache":
        """Same on-disk store, counters bound to a different registry."""
        return ResultCache(
            self.store.root, max_bytes=self.store.max_bytes, metrics=registry
        )

    def _count(self, name: str) -> None:
        reg = self.metrics if self.metrics is not None else current_sink()
        if reg is not None:
            reg.counter(name, volatile=True).inc()

    # -- trials ------------------------------------------------------------

    def _trial_key(
        self,
        app_cls: Type,
        *,
        bug: Optional[str],
        timeout: float,
        flip_order: bool,
        use_policies: bool,
        params: Optional[Dict[str, Any]],
        collect: bool,
        trial_timeout: Optional[float],
    ) -> Tuple[str, Dict[str, Any]]:
        doc = trial_config_doc(
            app_cls,
            bug=bug,
            timeout=timeout,
            flip_order=flip_order,
            use_policies=use_policies,
            params=params,
            collect_metrics=collect,
            trial_timeout=trial_timeout,
        )
        return fingerprint_doc(doc), _normalized(doc)

    def _overlapping(self, key: str, lo: int, hi: int) -> List[Segment]:
        """The stored segments of ``key`` holding any seed in ``lo..hi-1``."""
        return [seg for seg in self.store.segments(key) if seg[0] < hi and lo < seg[0] + seg[1]]

    def _load_rows(
        self, key: str, config: Dict[str, Any], segments: List[Segment]
    ) -> Dict[int, List[Any]]:
        """Rows of every readable segment in ``segments``, keyed by seed."""
        rows: Dict[int, List[Any]] = {}
        for seg in segments:
            doc = self.store.load(key, segment=seg, expect_config=config)
            seeds = doc.get("seeds") if doc is not None else None
            if isinstance(seeds, dict):
                try:
                    rows.update({int(seed): row for seed, row in seeds.items()})
                except ValueError:
                    pass
        return rows

    @staticmethod
    def _outcome_from_row(seed: int, row: List[Any]):
        from repro.harness.stats import TrialOutcome

        bug_hit, bp_hit, runtime, error_time, wall_time, metrics = row
        return TrialOutcome(
            seed=seed,
            bug_hit=bool(bug_hit),
            bp_hit=bool(bp_hit),
            runtime=runtime,
            error_time=error_time,
            metrics=metrics,
            wall_time=wall_time,
        )

    @staticmethod
    def _row_from_outcome(outcome) -> List[Any]:
        return [
            bool(outcome.bug_hit),
            bool(outcome.bp_hit),
            outcome.runtime,
            outcome.error_time,
            outcome.wall_time,
            outcome.metrics,
        ]

    def run_trials(
        self,
        app_cls: Type,
        *,
        n: int,
        bug: Optional[str],
        timeout: float,
        flip_order: bool,
        use_policies: bool,
        base_seed: int,
        params: Optional[Dict[str, Any]],
        workers: Any,
        trial_timeout: Optional[float],
        max_retries: int,
        collect_metrics: bool,
        trial_hook: Any = None,
    ):
        """Serve a trial sweep from cache, running only what is missing.

        Covered seeds replay from stored rows; missing seeds run fresh
        (in contiguous segments, through the ordinary runner) with the
        ambient sink suppressed so metrics fold into the final
        aggregation exactly once.  Fresh *successful* outcomes are then
        stored as new segments, one per contiguous run (a failed seed
        splits a run); no stored segment is rewritten.
        """
        from repro.harness.stats import TrialAggregator
        from repro.obs.context import not_collecting

        collect = collect_metrics or current_sink() is not None
        key, config = self._trial_key(
            app_cls,
            bug=bug,
            timeout=timeout,
            flip_order=flip_order,
            use_policies=use_policies,
            params=params,
            collect=collect,
            trial_timeout=trial_timeout,
        )
        requested = range(base_seed, base_seed + n)
        rows = self._load_rows(key, config, self._overlapping(key, base_seed, base_seed + n))
        covered = [s for s in requested if s in rows]
        missing = [s for s in requested if s not in rows]
        if not missing:
            self._count("cache.hit")
        elif covered:
            self._count("cache.partial_hit")
        else:
            self._count("cache.miss")

        agg = TrialAggregator(app_cls.name, bug, base_seed, n, collect_metrics=collect)
        for seed in covered:
            agg.add(self._outcome_from_row(seed, rows[seed]))

        fresh: List[Any] = []
        if missing:
            from repro.harness.runner import run_trials

            with not_collecting():
                for start, count in _segments(missing):
                    part = run_trials(
                        app_cls,
                        n=count,
                        bug=bug,
                        timeout=timeout,
                        flip_order=flip_order,
                        use_policies=use_policies,
                        base_seed=start,
                        params=params,
                        workers=workers,
                        trial_timeout=trial_timeout,
                        max_retries=max_retries,
                        collect_metrics=collect,
                        on_outcome=fresh.append,
                        trial_hook=trial_hook,
                    )
                    for failure in part.failures:
                        agg.add_failure(failure)
            new_rows = {}
            for outcome in fresh:
                agg.add(outcome)
                new_rows[outcome.seed] = self._row_from_outcome(outcome)
            for start, count in _segments(sorted(new_rows)):
                self.store.store(
                    key,
                    {
                        "schema": CACHE_SCHEMA,
                        "kind": "trials",
                        "config": config,
                        "seeds": {str(s): new_rows[s] for s in range(start, start + count)},
                    },
                    segment=(start, count),
                )
        return agg.finalize()

    def fetch_trials(
        self,
        app_cls: Type,
        *,
        n: int,
        bug: Optional[str],
        timeout: float = 0.100,
        flip_order: bool = False,
        use_policies: bool = True,
        base_seed: int = 0,
        params: Optional[Dict[str, Any]] = None,
        trial_timeout: Optional[float] = None,
        collect_metrics: bool = False,
    ):
        """Fully-covered lookup: stats without running anything, or None.

        Used by the svc executor's parent-side fast path (a full hit
        skips the job fork entirely).  Counts ``cache.hit`` only when it
        serves — a miss here is not a cache miss yet, the job child will
        look again and count the real outcome.  A range the segment
        names do not cover is a miss decided by one directory listing,
        without opening a file.
        """
        from repro.harness.stats import TrialAggregator

        key, config = self._trial_key(
            app_cls,
            bug=bug,
            timeout=timeout,
            flip_order=flip_order,
            use_policies=use_policies,
            params=params,
            collect=collect_metrics,
            trial_timeout=trial_timeout,
        )
        requested = range(base_seed, base_seed + n)
        segments = self._overlapping(key, base_seed, base_seed + n)
        if not _covers(segments, base_seed, base_seed + n):
            return None
        rows = self._load_rows(key, config, segments)
        if any(s not in rows for s in requested):
            return None
        self._count("cache.hit")
        agg = TrialAggregator(
            app_cls.name, bug, base_seed, n, collect_metrics=collect_metrics
        )
        for seed in requested:
            agg.add(self._outcome_from_row(seed, rows[seed]))
        return agg.finalize()

    # -- explorations ------------------------------------------------------

    def _explore_key(
        self, app_name: str, bug: Optional[str], **fields: Any
    ) -> Tuple[str, Dict[str, Any], Type]:
        from repro.apps import get_app

        cls = get_app(app_name)
        if bug is not None and bug not in cls.bugs:
            raise KeyError(f"{app_name} has no bug {bug!r}; known: {list(cls.bugs)}")
        # The shared storage-key builder resolves max_steps=None to the
        # app default — the router hashes on the identical document.
        doc = storage_config_doc("explore", app_name, bug=bug, **fields)
        return fingerprint_doc(doc), _normalized(doc), cls

    def explore(
        self,
        app_name: str,
        bug: Optional[str] = None,
        *,
        dpor: bool = False,
        sleep_sets: bool = False,
        workers: Optional[int] = None,
        shard_depth: int = 2,
        max_schedules: int = 10_000,
        max_steps: Optional[int] = None,
        seed: int = 0,
        timeout: float = 0.100,
        use_policies: bool = True,
        params: Optional[Dict[str, Any]] = None,
        witness_limit: int = 3,
        obs: Any = None,
        bound: Optional[Any] = None,
    ):
        """Cached exploration summary; runs :func:`explore_app` on a miss.

        Only the summary (counts, DPOR stats, bounded witness list) is
        stored — the full outcome list is unbounded and cheap to
        regenerate when actually needed.  ``bound`` (a
        :class:`~repro.sim.explore.Bound` or None) cuts schedules, so it
        is part of the entry's content address.
        """
        from repro.harness.exploration import ExplorationSummary, explore_app

        if bound is not None and not bound.active:
            bound = None
        sharded = bool(dpor and workers)
        key, config, _cls = self._explore_key(
            app_name,
            bug,
            dpor=dpor,
            sleep_sets=sleep_sets,
            sharded=sharded,
            shard_depth=shard_depth if sharded else None,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            timeout=timeout,
            use_policies=use_policies,
            params=params,
            witness_limit=witness_limit,
            bound=bound.to_doc() if bound is not None else None,
        )
        entry = self.store.load(key, expect_config=config)
        if entry is not None and isinstance(entry.get("summary"), dict):
            self._count("cache.hit")
            return ExplorationSummary.from_wire(entry["summary"])
        self._count("cache.miss")
        res = explore_app(
            app_name,
            bug,
            dpor=dpor,
            sleep_sets=sleep_sets,
            workers=workers,
            shard_depth=shard_depth,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            timeout=timeout,
            use_policies=use_policies,
            params=params,
            obs=obs,
            bound=bound,
        )
        summary = res.summary(witness_limit=witness_limit)
        self.store.store(
            key,
            {
                "schema": CACHE_SCHEMA,
                "kind": "explore",
                "config": config,
                "summary": summary.to_wire(),
            },
        )
        return summary

    def fetch_explore(self, app_name: str, bug: Optional[str] = None, **kwargs: Any):
        """Hit-only exploration lookup (svc fast path); None on a miss."""
        from repro.harness.exploration import ExplorationSummary

        obs = kwargs.pop("obs", None)
        del obs  # fetch never executes, so a metrics registry is irrelevant
        workers = kwargs.pop("workers", None)
        shard_depth = kwargs.pop("shard_depth", 2)
        dpor = kwargs.get("dpor", False)
        sharded = bool(dpor and workers)
        bound = kwargs.pop("bound", None)
        if bound is not None and not bound.active:
            bound = None
        key, config, _cls = self._explore_key(
            app_name,
            bug,
            dpor=dpor,
            sleep_sets=kwargs.get("sleep_sets", False),
            sharded=sharded,
            shard_depth=shard_depth if sharded else None,
            max_schedules=kwargs.get("max_schedules", 10_000),
            max_steps=kwargs.get("max_steps"),
            seed=kwargs.get("seed", 0),
            timeout=kwargs.get("timeout", 0.100),
            use_policies=kwargs.get("use_policies", True),
            params=kwargs.get("params"),
            witness_limit=kwargs.get("witness_limit", 3),
            bound=bound.to_doc() if bound is not None else None,
        )
        entry = self.store.load(key, expect_config=config)
        if entry is None or not isinstance(entry.get("summary"), dict):
            return None
        self._count("cache.hit")
        return ExplorationSummary.from_wire(entry["summary"])

    # -- inference reports -------------------------------------------------

    def _infer_key(
        self, app_name: str, **fields: Any
    ) -> Tuple[str, Dict[str, Any], Type]:
        from repro.apps import get_app

        cls = get_app(app_name)
        # The shared storage-key builder folds INFER_VERSION in — the
        # router hashes on the identical document.
        doc = storage_config_doc("infer", app_name, **fields)
        return fingerprint_doc(doc), _normalized(doc), cls

    def infer(
        self,
        app_name: str,
        *,
        seed: int = 0,
        trials: int = 20,
        timeout: float = 0.100,
        base_seed: int = 0,
        use_policies: bool = True,
        params: Optional[Dict[str, Any]] = None,
        trial_timeout: Optional[float] = None,
        steer_attempts: int = 5,
        workers: Any = None,
        obs: Any = None,
    ):
        """Cached inference report; runs the pipeline on a miss.

        Two memoization layers compose here: a warm rerun is served
        whole from the stored report (nothing executes), while a cold
        run passes *this cache* down as the pipeline's trial cache, so
        the per-candidate confirmation sweeps reuse — and extend — the
        ordinary trial entries any ``repro run`` shares.
        """
        from repro.infer.pipeline import run_inference
        from repro.infer.report import InferenceReport

        key, config, _cls = self._infer_key(
            app_name,
            trace_seed=seed,
            trials=trials,
            base_seed=base_seed,
            timeout=timeout,
            use_policies=use_policies,
            params=params,
            trial_timeout=trial_timeout,
            steer_attempts=steer_attempts,
        )
        entry = self.store.load(key, expect_config=config)
        if entry is not None and isinstance(entry.get("report"), dict):
            self._count("cache.hit")
            return InferenceReport.from_wire(entry["report"])
        self._count("cache.miss")
        report = run_inference(
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
            trial_cache=self,
            obs=obs,
        )
        self.store.store(
            key,
            {
                "schema": CACHE_SCHEMA,
                "kind": "infer",
                "config": config,
                "report": report.to_wire(),
            },
        )
        return report

    def fetch_infer(self, app_name: str, **kwargs: Any):
        """Hit-only inference lookup (svc fast path); None on a miss."""
        from repro.infer.report import InferenceReport

        kwargs.pop("obs", None)
        kwargs.pop("workers", None)
        key, config, _cls = self._infer_key(
            app_name,
            trace_seed=kwargs.get("seed", 0),
            trials=kwargs.get("trials", 20),
            base_seed=kwargs.get("base_seed", 0),
            timeout=kwargs.get("timeout", 0.100),
            use_policies=kwargs.get("use_policies", True),
            params=kwargs.get("params"),
            trial_timeout=kwargs.get("trial_timeout"),
            steer_attempts=kwargs.get("steer_attempts", 5),
        )
        entry = self.store.load(key, expect_config=config)
        if entry is None or not isinstance(entry.get("report"), dict):
            return None
        self._count("cache.hit")
        return InferenceReport.from_wire(entry["report"])

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (``repro cache clear``)."""
        return self.store.clear()

    def stats(self) -> StoreStats:
        """On-disk accounting (``repro cache stats``)."""
        return self.store.stats()
