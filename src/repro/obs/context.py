"""The ambient metrics sink.

A process-global :class:`~repro.obs.metrics.MetricsRegistry` that, when
set (via :func:`collecting`), switches every trial sweep started
underneath it into metrics-collection mode and receives each sweep's
merged registry once, when the sweep's one aggregator finalizes — a
cached sweep included, since its stored and fresh seeds fold into the
same aggregator.  This is how ``--metrics-out`` on ``report``
gathers one registry across all five table builders without threading
a parameter through every call site; the flag still crosses process
boundaries explicitly (``AppConfig.collect_metrics``), so pool workers
behave identically under fork and spawn start methods.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from .metrics import MetricsRegistry

__all__ = ["collecting", "current_sink"]


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
