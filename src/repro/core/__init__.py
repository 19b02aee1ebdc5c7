"""``repro.core`` — the concurrent-breakpoint library (the paper's contribution).

Public surface:

* :class:`BTrigger` and the concrete triggers
  (:class:`ConflictTrigger`, :class:`DeadlockTrigger`,
  :class:`AtomicityTrigger`, :class:`PredicateTrigger`) — paper Section 4;
* :class:`SitePolicy` — the Section 6.3 precision refinements;
* :class:`CBSpec` — declarative ``(l1, l2, phi)`` descriptions;
* :class:`BreakpointEngine` — the BTrigger matching mechanism (Section 3),
  shared by the OS-thread and simulation backends;
* :data:`GLOBAL` — the library configuration (pause time ``T``, on/off);
* OS-thread helpers: ``trigger_here`` semantics live on the trigger
  classes; :func:`reset` / :func:`stats` / :func:`breakpoint_hit` manage
  the process-wide engine; :class:`TrackedLock` enables the
  ``isLockTypeHeld`` refinement in real ``threading`` programs.
"""

from .config import GLOBAL, Config, DEFAULT_TIMEOUT
from .engine import (
    ArrivalResult,
    BreakpointEngine,
    BreakpointStats,
    Matched,
    Postponed,
    PostponedEntry,
    Skipped,
)
from .locks import TrackedLock, TrackedRLock, held_tracked_locks
from .predicates import SitePolicy
from .runtimectx import is_lock_type_held
from .spec import (
    AtomicityTrigger,
    GroupTrigger,
    BTrigger,
    CBSpec,
    ConflictTrigger,
    DeadlockTrigger,
    PredicateTrigger,
)
from .threads import breakpoint_hit, engine, reset, stats

__all__ = [
    "GLOBAL",
    "Config",
    "DEFAULT_TIMEOUT",
    "ArrivalResult",
    "BreakpointEngine",
    "BreakpointStats",
    "Matched",
    "Postponed",
    "PostponedEntry",
    "Skipped",
    "TrackedLock",
    "TrackedRLock",
    "held_tracked_locks",
    "SitePolicy",
    "is_lock_type_held",
    "AtomicityTrigger",
    "BTrigger",
    "CBSpec",
    "ConflictTrigger",
    "DeadlockTrigger",
    "GroupTrigger",
    "PredicateTrigger",
    "breakpoint_hit",
    "engine",
    "reset",
    "stats",
]
