"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is what instrumented code reports into: the kernel, the
breakpoint engine and the explorers take one as their ``obs`` argument
(the simulated trace, exported by :mod:`repro.obs.traceio`, is the
structured record).  Three properties drive the design:

* **Determinism** — a metric snapshot is a sorted, JSON-able dict and a
  merge is performed in a caller-chosen (seed) order, so the parallel
  trial runner can merge per-worker/per-trial snapshots and obtain *the
  same* registry the serial loop builds.  Metrics that are inherently
  non-deterministic (wall-clock latencies, retry counts that depend on
  which worker crashed) are flagged ``volatile`` and excluded from
  :func:`deterministic_view`, which the parallel-equivalence tests
  compare.
* **Cheap hot paths** — counters are bare attribute increments; the
  kernel accumulates plain ints/dicts during a run and flushes once at
  the end (see ``Kernel._flush_obs``), so per-step cost stays within the
  <5 % overhead gate.
* **Wire friendliness** — :meth:`MetricsRegistry.to_wire` produces a
  small picklable tuple that crosses the worker-process boundary as
  the last field of each trial's :data:`~repro.harness.stats.Row` (and
  is stored in that row, as JSON lists, by the result cache).

Histograms use fixed bucket upper bounds (Prometheus-style ``le``
semantics, plus an overflow bucket) so merging is exact bucket-wise
addition — no approximation, no order sensitivity in the counts.

The schedule explorers flush their own counter families here when given
a registry (the service's explore jobs always pass one):
``explore.schedules`` / ``explore.steps_executed`` /
``explore.replayed_choices`` for any walk, and
``explore.dpor.branches_added|conservative_fallbacks|sleep_set_prunes``
for the reduction — zero-valued counters are skipped.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "deterministic_view",
]

#: Default latency/duration buckets in seconds: 100 µs .. 60 s.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 10.0, 60.0
)


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value", "volatile")
    kind = "counter"

    def __init__(self, name: str, volatile: bool = False) -> None:
        self.name = name
        self.value = 0
        self.volatile = volatile

    def inc(self, n: int = 1) -> None:
        """Add ``n`` to the count."""
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot for JSON export."""
        return {"type": self.kind, "value": self.value, "volatile": self.volatile}


class Gauge:
    """Last-written value; merges by taking the maximum (documented
    choice: for per-trial gauges like high-water marks, the max over a
    sweep is the only order-independent reduction)."""

    __slots__ = ("name", "value", "volatile")
    kind = "gauge"

    def __init__(self, name: str, volatile: bool = False) -> None:
        self.name = name
        self.value: float = 0.0
        self.volatile = volatile

    def set(self, v: float) -> None:
        """Overwrite the current value."""
        self.value = v

    def max(self, v: float) -> None:
        """Raise the value to ``v`` if larger."""
        if v > self.value:
            self.value = v

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot for JSON export."""
        return {"type": self.kind, "value": self.value, "volatile": self.volatile}


class Histogram:
    """Fixed-bucket histogram with ``le`` upper bounds + overflow.

    ``counts[i]`` is the number of observations ``<= buckets[i]``
    (non-cumulative storage; cumulative form is derivable), ``counts[-1]``
    the overflow.  ``sum``/``count`` give the exact mean.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "volatile")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        volatile: bool = False,
    ) -> None:
        bs = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        if not bs or list(bs) != sorted(bs):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {bs}")
        self.name = name
        self.buckets = bs
        self.counts: List[int] = [0] * (len(bs) + 1)
        self.count = 0
        self.sum = 0.0
        self.volatile = volatile

    def observe(self, v: float) -> None:
        """Count ``v`` into its bucket and the running sum."""
        self.count += 1
        self.sum += v
        for i, le in enumerate(self.buckets):
            if v <= le:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot (buckets, counts, count, sum)."""
        return {
            "type": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "volatile": self.volatile,
        }


Metric = Union[Counter, Gauge, Histogram]


def deterministic_view(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The non-volatile subset of a snapshot — the part for which
    parallel and serial sweeps are contractually bit-identical."""
    return {k: v for k, v in snapshot.items() if not v.get("volatile")}


class MetricsRegistry:
    """Named metrics with get-or-create accessors and exact merging."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, volatile: bool = False) -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter, volatile=volatile)

    def gauge(self, name: str, volatile: bool = False) -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge, volatile=volatile)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        volatile: bool = False,
    ) -> Histogram:
        """Get or create the named histogram."""
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = Histogram(name, buckets, volatile=volatile)
        elif not isinstance(m, Histogram):
            raise TypeError(f"metric {name!r} is a {m.kind}, not a histogram")
        elif buckets is not None and tuple(buckets) != m.buckets:
            raise ValueError(f"metric {name!r} re-declared with different buckets")
        return m

    def reset(self) -> None:
        """Zero every metric in place, keeping the objects.

        The trial runners reuse one registry across the trials of a
        sweep (resetting between trials) instead of allocating ~20 fresh
        metric objects per trial — the allocation and GC churn of
        fresh-per-trial registries was the bulk of the obs overhead.
        Zeroed metrics that a given trial never touches still appear in
        its wire snapshot, but zero rows merge as exact no-ops, so the
        merged sweep registry is identical to the fresh-per-trial one.
        """
        for m in self._metrics.values():
            if m.__class__ is Histogram:
                m.counts = [0] * len(m.counts)
                m.count = 0
                m.sum = 0.0
            else:
                m.value = 0

    def add_counters(self, values: Dict[str, int], volatile: bool = False) -> None:
        """Bulk get-or-create-and-add for counters.

        The end-of-run flush paths (kernel, engine) fold a dozen-plus
        counter deltas into a fresh per-trial registry; doing it in one
        call keeps the flush cost a small fraction of a trial.
        """
        metrics = self._metrics
        for name, n in values.items():
            m = metrics.get(name)
            if m is None:
                metrics[name] = m = Counter(name, volatile=volatile)
            elif not isinstance(m, Counter):
                raise TypeError(f"metric {name!r} is a {m.kind}, not a counter")
            m.value += n

    def _get(self, name: str, cls: type, volatile: bool) -> Any:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name, volatile=volatile)
        elif not isinstance(m, cls):
            raise TypeError(f"metric {name!r} is a {m.kind}, not a {cls.kind}")
        return m

    def get(self, name: str) -> Optional[Metric]:
        """The named metric, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Sorted names of all registered metrics."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    # Snapshots and serialization
    # ------------------------------------------------------------------
    def snapshot(self, include_volatile: bool = True) -> Dict[str, Dict[str, Any]]:
        """Sorted, JSON-able view of every metric."""
        snap = {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}
        if not include_volatile:
            snap = deterministic_view(snap)
        return snap

    def to_json(self, indent: Optional[int] = 2, include_volatile: bool = True) -> str:
        """Sorted-key JSON text of the registry snapshot."""
        return json.dumps(
            self.snapshot(include_volatile=include_volatile),
            indent=indent,
            sort_keys=True,
        )

    def to_wire(self) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        """Compact picklable form for crossing process boundaries.

        Rows are in registry insertion order, not sorted — within one
        payload every row is a distinct metric, so row order cannot
        affect a merge, and this runs once per trial in collected
        sweeps (snapshots sort; the wire does not need to).
        """
        rows: List[Tuple[str, Tuple[Any, ...]]] = []
        append = rows.append
        for name, m in self._metrics.items():
            t = m.__class__
            if t is Counter:
                append((name, ("counter", m.value, m.volatile)))
            elif t is Gauge:
                append((name, ("gauge", m.value, m.volatile)))
            else:
                append(
                    (name, ("histogram", m.buckets, tuple(m.counts), m.count, m.sum, m.volatile))
                )
        return tuple(rows)

    @classmethod
    def from_wire(cls, wire: Iterable[Tuple[str, Tuple[Any, ...]]]) -> "MetricsRegistry":
        """Rebuild a registry from its picklable wire form."""
        reg = cls()
        reg.merge_wire(wire)
        return reg

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry through its wire form (exact;
        see :meth:`merge_wire`)."""
        self.merge_wire(other.to_wire())

    def merge_wire(self, wire: Iterable[Tuple[str, Tuple[Any, ...]]]) -> None:
        """Merge a :meth:`to_wire` payload (the worker → parent path).

        Inlined get-or-create: this runs once per trial per metric in
        every collected sweep, so it avoids the accessor indirection.
        """
        metrics = self._metrics
        for name, row in wire:
            kind = row[0]
            m = metrics.get(name)
            if kind == "counter":
                if m is None:
                    m = metrics[name] = Counter(name, volatile=row[2])
                elif not isinstance(m, Counter):
                    raise TypeError(f"metric {name!r} is a {m.kind}, not a counter")
                m.value += row[1]
            elif kind == "gauge":
                if m is None:
                    m = metrics[name] = Gauge(name, volatile=row[2])
                elif not isinstance(m, Gauge):
                    raise TypeError(f"metric {name!r} is a {m.kind}, not a gauge")
                if row[1] > m.value:
                    m.value = row[1]
            elif kind == "histogram":
                _, buckets, counts, count, total, volatile = row
                if m is None:
                    m = metrics[name] = Histogram(name, buckets, volatile=volatile)
                elif not isinstance(m, Histogram):
                    raise TypeError(f"metric {name!r} is a {m.kind}, not a histogram")
                elif tuple(buckets) != m.buckets:
                    raise ValueError(f"metric {name!r} re-declared with different buckets")
                mc = m.counts
                for i, c in enumerate(counts):
                    mc[i] += c
                m.count += count
                m.sum += total
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown wire metric kind {kind!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
