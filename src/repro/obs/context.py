"""ObsContext — the bundle instrumented components accept.

One :class:`ObsContext` pairs an :class:`~repro.obs.bus.EventBus` with a
:class:`~repro.obs.metrics.MetricsRegistry`.  Components (``Kernel``,
``BreakpointEngine``, the trial runner) take ``obs=None`` meaning *fully
disabled* — the instrumentation branches compile down to a single
``is not None`` test — or a context, meaning *collect metrics and expose
bus topics*.

The module also hosts the **ambient metrics sink**: a process-global
registry that, when set (via :func:`collecting`), switches every trial
sweep started underneath it into metrics-collection mode and receives
the merged per-sweep registries.  This is how ``--metrics-out`` on
``report`` gathers one registry across all five table builders without
threading a parameter through every call site; the flag still crosses
process boundaries explicitly (``AppConfig.collect_metrics``), so pool
workers behave identically under fork and spawn start methods.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence

from .bus import EventBus
from .metrics import MetricsRegistry

__all__ = ["ObsContext", "SlotCounters", "collecting", "current_sink", "not_collecting"]


class SlotCounters:
    """Flat-slot counter accumulation, folded into metrics at flush time.

    The hot-path contract of per-action accounting (the kernel's syscall
    mix, and any future per-event tally) is ``counts[slot] += 1`` — one
    list subscript, no hashing, no metrics-registry call.  The mapping
    from slot index to metric name lives here, applied once per run by
    :meth:`fold_into` instead of once per action.

    ``names`` is held by reference, not copied: callers that register
    slots lazily (``Kernel._count_unslotted_syscall``) extend the shared
    name list and the ``counts`` slab together, and the fold picks the
    new slots up automatically.  ``counts`` may trail ``names`` in
    length (slots named but never counted); it must never exceed it.
    """

    __slots__ = ("names", "counts")

    def __init__(self, names: Sequence[str]) -> None:
        self.names = names
        self.counts: List[int] = [0] * len(names)

    def fold_into(self, counters: Dict[str, int]) -> None:
        """Add every non-zero slot into ``counters`` under its name."""
        names = self.names
        for idx, n in enumerate(self.counts):
            if n:
                counters[names[idx]] = counters.get(names[idx], 0) + n


@dataclasses.dataclass
class ObsContext:
    """Event bus + metrics registry handed to instrumented components.

    Instrumented components may cache construction-time scratch on the
    context instance (undeclared private attributes such as the kernel's
    ``_kernel_scratch`` slab pool and the breakpoint engine's
    ``_engine_sigs`` signal tuple): a sweep reuses one context across
    all its trials (``reuse_obs``), so per-trial instrumented setup
    amortises to near zero.  The caches hold only bus signal endpoints
    (get-or-create on the bus anyway) and zeroed counter slabs, so they
    never change what a trial records.
    """

    bus: EventBus
    metrics: MetricsRegistry

    @classmethod
    def create(cls, bus_enabled: bool = True) -> "ObsContext":
        """Fresh context: empty registry, bus with no subscribers."""
        return cls(bus=EventBus(enabled=bus_enabled), metrics=MetricsRegistry())


#: Process-global merged-metrics sink (None = ambient collection off).
_SINK: Optional[MetricsRegistry] = None


def current_sink() -> Optional[MetricsRegistry]:
    """The ambient registry trial sweeps merge into, if one is set."""
    return _SINK


@contextlib.contextmanager
def collecting(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Enable ambient metrics collection for the dynamic extent.

    Every ``run_trials``/``measure`` sweep (serial or parallel) started
    inside the ``with`` block collects per-trial metrics and merges them
    into the yielded registry::

        with obs.collecting() as reg:
            harness.run_trials(App, n=100, bug="race1")
        print(reg.to_json())
    """
    global _SINK
    reg = registry if registry is not None else MetricsRegistry()
    prev = _SINK
    _SINK = reg
    try:
        yield reg
    finally:
        _SINK = prev


@contextlib.contextmanager
def not_collecting() -> Iterator[None]:
    """Suppress the ambient sink for the dynamic extent.

    Used by the result cache when it re-runs missing seed segments: each
    inner sweep would otherwise fold its merged registry into the sink
    *and* the cache's final re-aggregation would fold the same trials
    again — suppressing the sink around the inner runs keeps every trial
    counted exactly once.
    """
    global _SINK
    prev = _SINK
    _SINK = None
    try:
        yield
    finally:
        _SINK = prev
