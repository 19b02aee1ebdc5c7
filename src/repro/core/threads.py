"""OS-thread backend: the paper's light-weight library for real programs.

This is the faithful counterpart of the Java/C++ library of Section 4: a
few hundred lines linked into an ordinary multithreaded program, no
instrumentation, no special runtime.  Threads call
``bp.trigger_here(is_first_action, timeout)`` just before the breakpoint's
program location; the shared :class:`~repro.core.engine.BreakpointEngine`
decides postpone/match, and parked threads wait on ``threading.Event``
objects.

Ordering caveat: after a match the paper requires the first-action
thread's *next instruction* to execute before the second's.  Without
instrumentation this can only be approximated on a preemptive runtime —
member ``i`` of the match's release order (``entry.release``; 0 for the
first-action side of a pair) is held back for ``i * GLOBAL.order_window``
seconds.  The simulation backend enforces the ordering exactly (the
kernel pins the first thread for its next step), which is why the
evaluation harness uses it; see DESIGN.md decision 2 and the A1 ablation
bench.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from . import runtimectx
from .config import GLOBAL
from .engine import BreakpointEngine, BreakpointStats, Matched, Postponed, Skipped
from .locks import held_tracked_locks
from .spec import BTrigger

__all__ = ["trigger_here", "engine", "reset", "stats", "breakpoint_hit"]

_engine = BreakpointEngine()
_mutex = threading.Lock()


def engine() -> BreakpointEngine:
    """The process-wide engine behind all OS-thread breakpoints."""
    return _engine


def reset() -> None:
    """Clear postponed sets and statistics (call between test executions)."""
    with _mutex:
        _engine.reset()


def stats() -> Dict[str, BreakpointStats]:
    """Snapshot of per-breakpoint statistics."""
    with _mutex:
        return _engine.snapshot()


def breakpoint_hit(name: str) -> bool:
    """Did the named breakpoint fire at least once since the last reset?"""
    with _mutex:
        return _engine.stats_for(name).hit


def trigger_here(inst: BTrigger, is_first_action: bool, timeout: Optional[float] = None) -> bool:
    """Insert breakpoint ``inst`` at the caller's current program point.

    Returns ``True`` iff the breakpoint fired (both predicate halves
    satisfied by this thread and a partner).  With breakpoints globally
    disabled, returns ``False`` immediately — the assertion-like on/off
    switch of Section 4.
    """
    if not GLOBAL.enabled:
        return False
    if timeout is None:
        timeout = GLOBAL.timeout

    runtimectx.push_held_locks(held_tracked_locks())
    try:
        with _mutex:
            result = _engine.arrive(
                inst,
                is_first_action,
                thread_key=threading.get_ident(),
                now=time.monotonic(),
                timeout=timeout,
            )
            if isinstance(result, Matched):
                # Wake the parked partners; each finds its ``release`` set.
                for member in result.ordered:
                    if member is not result.entry:
                        member.handle.set()
            elif isinstance(result, Postponed):
                # Under the lock: a later arrival may match it at once.
                result.entry.handle = threading.Event()
    finally:
        runtimectx.pop_held_locks()

    if isinstance(result, Skipped):
        return False
    entry = result.entry
    if isinstance(result, Postponed):
        # Park until a match wakes this thread or the timeout passes.
        entry.handle.wait(timeout)
        with _mutex:
            if entry.release is None:
                _engine.expire(entry)
                return False
    # Approximate the release order with staggered head starts (exact
    # ordering lives in the simulation backend).
    if entry.release:
        time.sleep(GLOBAL.order_window * entry.release)
    return True
