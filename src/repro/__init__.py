"""Concurrent Breakpoints — a reproduction of Park & Sen (PPoPP 2012).

A *concurrent breakpoint* ``(l1, l2, phi)`` names two program locations
and a predicate over two threads' joint state; the **BTrigger** mechanism
makes executions hit it with high probability by pausing threads whose
local half of the predicate holds until a partner arrives, then ordering
the pair.  This turns Heisenbugs — data races, deadlocks, atomicity
violations, missed notifications — into nearly-deterministic, replayable
test cases.

Package map:

========================  ====================================================
:mod:`repro.core`         the breakpoint library (paper's contribution):
                          triggers, the BTrigger engine, precision policies,
                          an OS-``threading`` backend for real programs
:mod:`repro.sim`          deterministic concurrency simulation substrate:
                          generator threads, virtual time, seeded schedulers
:mod:`repro.detect`       dynamic analyses over traces (Eraser locksets,
                          vector-clock races, lock graphs, contention,
                          atomicity) — Methodology I/II inputs
:mod:`repro.activetest`   CalFuzzer-style predict-and-confirm fuzzers
:mod:`repro.model`        Section 3 hit-probability theory + Monte-Carlo
:mod:`repro.apps`         the 18 evaluation subjects, re-created
:mod:`repro.harness`      the 100-trial experiment protocol and all table
                          builders (Table 1, Table 2, Section 5, 6.2, 6.3)
:mod:`repro.obs`          observability: metrics registry, Chrome-trace /
                          JSONL trace export with replayable schedules
========================  ====================================================

Quickstart (real threads)::

    from repro.core import ConflictTrigger, GLOBAL

    # thread 1, just before the racy read:
    if ConflictTrigger("bug42", obj).trigger_here(False, GLOBAL.timeout):
        ...  # breakpoint hit: the conflicting schedule was forced

    # thread 2, just before the racy write:
    ConflictTrigger("bug42", obj).trigger_here(True, GLOBAL.timeout)

See ``examples/quickstart.py`` for the complete runnable version.
"""

import importlib

from .core import (
    GLOBAL,
    AtomicityTrigger,
    BTrigger,
    CBSpec,
    ConflictTrigger,
    DeadlockTrigger,
    PredicateTrigger,
    SitePolicy,
)

__version__ = "1.0.0"

#: Subpackages imported on first access (``repro.sim``, ``from repro
#: import harness``), not with the package: a process loads only what
#: it runs.  :mod:`repro.core`'s light re-exports above stay eager.
_SUBPACKAGES = ("activetest", "apps", "core", "detect", "harness", "model", "obs", "sim")

__all__ = [
    *_SUBPACKAGES,
    "GLOBAL",
    "AtomicityTrigger",
    "BTrigger",
    "CBSpec",
    "ConflictTrigger",
    "DeadlockTrigger",
    "PredicateTrigger",
    "SitePolicy",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage on its first access."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
