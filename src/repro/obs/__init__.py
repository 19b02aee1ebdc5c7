"""``repro.obs`` — observability: metrics and trace export.

The measurement substrate for the reproduction's evaluation claims
(overhead, hit probability, pause-time distributions).  Two parts, plus
the ambient sink (:mod:`repro.obs.context`):

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  in a registry that snapshots to JSON and merges exactly (the parallel
  trial runner merges per-trial registries in seed order, so parallel
  and serial sweeps agree bit-for-bit on every non-volatile metric);
  instrumented components (kernel, breakpoint engine, explorers) take
  a registry as their ``obs`` argument;
* :mod:`repro.obs.traceio` — Chrome trace-event export (Perfetto) and a
  versioned JSONL serialization of :class:`repro.sim.Trace` whose
  header carries the recorded schedule, making every exported trace
  replayable via :mod:`repro.sim.replay`.  The trace is also the
  structured event record: spawns, thread ends and breakpoint
  postpones, hits and timeouts are its ``FORK``, ``END``/``FAIL`` and
  ``TRIGGER_POSTPONE``/``TRIGGER_HIT``/``TRIGGER_TIMEOUT`` ops.

Quick example::

    from repro import harness, obs

    with obs.collecting() as reg:
        harness.run_trials(SomeApp, n=100, bug="race1")
    print(reg.to_json())

CLI surface: ``python -m repro metrics <app>``, ``python -m repro
export-trace <app> --seed S --format chrome|jsonl``, and
``--metrics-out`` on ``run``/``report``.
"""

from .context import collecting, current_sink
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    deterministic_view,
)
from .traceio import (
    TRACE_SCHEMA,
    LoadedTrace,
    TraceObjRef,
    dump_chrome,
    dump_jsonl,
    event_from_dict,
    event_to_dict,
    load_jsonl,
    record_app_run,
    replay_recorded,
    to_chrome_trace,
    trace_to_jsonl,
)

__all__ = [
    "collecting",
    "current_sink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "deterministic_view",
    "TRACE_SCHEMA",
    "TraceObjRef",
    "LoadedTrace",
    "event_to_dict",
    "event_from_dict",
    "trace_to_jsonl",
    "dump_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "dump_chrome",
    "record_app_run",
    "replay_recorded",
]
