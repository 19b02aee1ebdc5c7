"""ResultCache — memoized trial sweeps and exploration summaries.

Memoization is sound here because trials are replay-deterministic: a
trial's :data:`~repro.harness.stats.Row` is a pure function of
``(app, config, seed)`` and an exploration summary of its strategy
tuple, so a stored result is indistinguishable from a recomputed one
(DESIGN.md section on result caching; proven bit-identical by
``tests/cache/test_differential.py``).

Two structural decisions carry the correctness argument:

* **Per-seed rows, one aggregator.**  Trial entries store the per-seed
  rows the runner produces, as they are, under a *config* fingerprint
  (the seed range is not part of the storage key); the cache never
  looks inside a row beyond :func:`~repro.harness.stats.is_row`.  A
  request builds the sweep's one
  :class:`~repro.harness.stats.TrialAggregator`, adds the stored rows
  of the seeds it covers, hands every missing seed to the runner's one
  loop (:func:`~repro.harness.parallel.run_seeds`) in a single call and
  finalizes once — so a warm ``0..199`` answer assembled from a cached
  ``0..99`` plus a fresh suffix is bit-identical to a cold ``0..199``
  run for any split, metrics and runner counters included.
* **Failures are never cached.**  Only successful rows are stored; a
  seed that timed out or crashed is re-run on every request, so a
  transient failure can never be replayed as if it were a result.

The rows of one config live in immutable segment files, one per
contiguous run of fresh successful seeds (:meth:`CacheStore.segments`):
a store writes only the seeds it ran, and a lookup lists the config's
directory once and opens only the segments its range overlaps — a
lookup whose range no segment name covers opens no file at all.  A
segment holding any malformed row is damaged: it is counted, deleted
and its seeds run again.

Counters (all volatile — they describe this process's luck, not the
computation): ``cache.hit`` (full coverage), ``cache.partial_hit``,
``cache.miss``, ``cache.store``, ``cache.evict``, ``cache.corrupt``.
They land in the cache's bound registry or, failing that, the ambient
:func:`repro.obs.collecting` sink.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Type

from repro.obs.context import current_sink
from repro.obs.metrics import MetricsRegistry

from .fingerprint import CACHE_SCHEMA, explore_key, infer_key, trials_key
from .store import DEFAULT_MAX_BYTES, CacheStore, Segment, StoreStats

__all__ = ["ResultCache"]


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

    def _store(
        self,
        key: str,
        kind: str,
        config: Dict[str, Any],
        field: str,
        value: Any,
        segment: Optional[Segment] = None,
    ) -> None:
        """Write one entry (or one trial segment) holding ``value`` as ``field``."""
        doc = {"schema": CACHE_SCHEMA, "kind": kind, "config": config, field: value}
        self.store.store(key, doc, segment=segment)

    # -- trials ------------------------------------------------------------

    def _overlapping(self, key: str, lo: int, hi: int) -> List[Segment]:
        """The stored segments of ``key`` holding any seed in ``lo..hi-1``."""
        return [seg for seg in self.store.segments(key) if seg[0] < hi and lo < seg[0] + seg[1]]

    def _load_rows(
        self, key: str, config: Dict[str, Any], segments: List[Segment]
    ) -> Dict[int, List[Any]]:
        """Rows of every readable segment in ``segments``, keyed by seed.

        A segment whose document is not a map of seeds to well-formed
        rows is damaged: the store deletes and counts it, and its seeds
        are missing.
        """
        from repro.harness.stats import is_row

        rows: Dict[int, List[Any]] = {}
        for seg in segments:
            doc = self.store.load(key, segment=seg, expect_config=config)
            if doc is None:
                continue
            try:
                got = {int(seed): row for seed, row in doc["seeds"].items()}
            except (AttributeError, KeyError, ValueError):
                got = None
            if got is None or not all(map(is_row, got.values())):
                self.store.reject(key, segment=seg)
                continue
            rows.update(got)
        return rows

    def run_trials(
        self,
        app_cls: Type,
        *,
        n: int = 100,
        bug: Optional[str] = None,
        base_seed: int = 0,
        collect_metrics: bool = False,
        **kwargs: Any,
    ):
        """Serve a trial sweep from cache, running only what is missing.

        Takes :func:`repro.harness.run_trials`'s keywords (``cache``
        aside).  The sweep's one aggregator takes the stored rows of the
        covered seeds; every missing seed runs fresh through
        :func:`~repro.harness.parallel.run_seeds` (one call, so one pool
        at most) into the same aggregator, which finalizes once.  Fresh
        rows are then stored as new segments, one per contiguous run of
        successful seeds (a failed seed splits a run); no stored segment
        is rewritten.
        """
        from repro.harness.parallel import run_seeds, sweep_aggregator

        agg = sweep_aggregator(app_cls, n, bug, base_seed, collect_metrics)
        key, config = trials_key(
            app_cls, bug=bug, collect_metrics=agg.collect_metrics, **kwargs
        )
        rows = self._load_rows(key, config, self._overlapping(key, base_seed, base_seed + n))
        missing = []
        for seed in range(base_seed, base_seed + n):
            if seed in rows:
                agg.add(seed, rows[seed])
            else:
                missing.append(seed)
        if not missing:
            self._count("cache.hit")
        elif len(missing) < n:
            self._count("cache.partial_hit")
        else:
            self._count("cache.miss")
        if missing:
            run_seeds(agg, app_cls, missing, **kwargs)
            fresh = agg.rows
            for start, count in _segments([s for s in missing if s in fresh]):
                seeds = {str(s): fresh[s] for s in range(start, start + count)}
                self._store(key, "trials", config, "seeds", seeds, segment=(start, count))
        return agg.finalize()

    def fetch_trials(
        self,
        app_cls: Type,
        *,
        n: int = 100,
        bug: Optional[str] = None,
        base_seed: int = 0,
        collect_metrics: bool = False,
        **kwargs: Any,
    ):
        """Fully-covered lookup: stats without running anything, or None.

        Same keywords as :meth:`run_trials`.  Used by the svc
        executor's parent-side fast path (a full hit skips the job fork
        entirely).  Counts ``cache.hit`` only when it serves — a miss
        here is not a cache miss yet, the job child will look again and
        count the real outcome.  A range the segment names do not cover
        is a miss decided by one directory listing, without opening a
        file.
        """
        from repro.harness.stats import TrialAggregator

        key, config = trials_key(
            app_cls, bug=bug, collect_metrics=collect_metrics, **kwargs
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
            agg.add(seed, rows[seed])
        return agg.finalize()

    # -- whole entries: explorations and inference reports ----------------

    def _fetch(
        self,
        key: str,
        config: Dict[str, Any],
        field: str,
        from_wire: Callable[[Dict[str, Any]], Any],
    ):
        """The stored ``field`` of a whole entry, decoded; None on a miss."""
        entry = self.store.load(key, expect_config=config)
        if entry is None or not isinstance(entry.get(field), dict):
            return None
        self._count("cache.hit")
        return from_wire(entry[field])

    def explore(
        self, app_name: str, bug: Optional[str] = None, *, witness_limit: int = 3, **kwargs: Any
    ):
        """Cached exploration summary; runs :func:`explore_app` on a miss.

        Takes :func:`repro.harness.explore_summary`'s keywords (``cache``
        aside).  Only the summary (counts, DPOR stats, bounded witness
        list) is stored — the full outcome list is unbounded and cheap
        to regenerate when actually needed.  ``bound`` (a
        :class:`~repro.sim.explore.Bound` or None) cuts schedules, so it
        is part of the entry's content address.
        """
        from repro.harness.exploration import ExplorationSummary, explore_app

        key, config = explore_key(app_name, bug, witness_limit=witness_limit, **kwargs)
        summary = self._fetch(key, config, "summary", ExplorationSummary.from_wire)
        if summary is None:
            self._count("cache.miss")
            res = explore_app(app_name, bug, **kwargs)
            summary = res.summary(witness_limit=witness_limit)
            self._store(key, "explore", config, "summary", summary.to_wire())
        return summary

    def fetch_explore(self, app_name: str, bug: Optional[str] = None, **kwargs: Any):
        """Hit-only exploration lookup (svc fast path); None on a miss.

        Same keywords as :meth:`explore`."""
        from repro.harness.exploration import ExplorationSummary

        key, config = explore_key(app_name, bug, **kwargs)
        return self._fetch(key, config, "summary", ExplorationSummary.from_wire)

    def infer(self, app_name: str, **kwargs: Any):
        """Cached inference report; runs the pipeline on a miss.

        Takes :func:`repro.infer.infer_app`'s keywords (``cache``
        aside).  Two memoization layers compose here: a warm rerun is
        served whole from the stored report (nothing executes), while a
        cold run passes *this cache* down as the pipeline's trial cache,
        so the per-candidate confirmation sweeps reuse — and extend —
        the ordinary trial entries any ``repro run`` shares.
        """
        from repro.infer.pipeline import run_inference
        from repro.infer.report import InferenceReport

        key, config = infer_key(app_name, **kwargs)
        report = self._fetch(key, config, "report", InferenceReport.from_wire)
        if report is None:
            self._count("cache.miss")
            report = run_inference(app_name, trial_cache=self, **kwargs)
            self._store(key, "infer", config, "report", report.to_wire())
        return report

    def fetch_infer(self, app_name: str, **kwargs: Any):
        """Hit-only inference lookup (svc fast path); None on a miss.

        Same keywords as :meth:`infer`."""
        from repro.infer.report import InferenceReport

        key, config = infer_key(app_name, **kwargs)
        return self._fetch(key, config, "report", InferenceReport.from_wire)

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (``repro cache clear``)."""
        return self.store.clear()

    def stats(self) -> StoreStats:
        """On-disk accounting (``repro cache stats``)."""
        return self.store.stats()
