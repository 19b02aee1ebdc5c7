"""Concurrent-breakpoint specifications and trigger classes (paper Sections 2 & 4).

A concurrent breakpoint is the tuple ``(l1, l2, phi)``: two program
locations plus a predicate over the joint local state of two threads.  The
paper's library realises it as an abstract class ``BTrigger`` with

* ``predicateLocal()``  — the thread-local half ``phi_t`` of the predicate,
* ``predicateGlobal(other)`` — the joint half ``phi_t1t2``, evaluated
  against a postponed partner instance, and
* ``triggerHere(isFirstAction, timeoutInMS)`` — called just before the
  breakpoint's program location; pauses/matches per the BTrigger
  mechanism (Section 3) and returns ``True`` iff the breakpoint fired.

This module defines the abstract class and the concrete triggers used in
the paper: :class:`ConflictTrigger` (data races, Figure 6; also atomicity
violations, Figure 3) and :class:`DeadlockTrigger` (Figure 8), plus a
generic :class:`PredicateTrigger` for ad-hoc predicates.  Instances are
created fresh at every site visit, capturing the thread's relevant local
state in constructor arguments — exactly the paper's
``(new ConflictTrigger("trigger1", p1)).triggerHere(...)`` idiom.

``trigger_here`` on these classes drives the OS-thread backend
(:mod:`repro.core.threads`).  Inside simulated programs, use
``yield from bp.sim_trigger_here(...)`` or the ``Trigger`` syscall
(:mod:`repro.sim.btrigger`); the matching semantics are identical because
both backends share one :class:`~repro.core.engine.BreakpointEngine`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Optional

from .config import GLOBAL
from .predicates import SitePolicy

__all__ = [
    "CBSpec",
    "BTrigger",
    "ConflictTrigger",
    "DeadlockTrigger",
    "AtomicityTrigger",
    "PredicateTrigger",
]


@dataclasses.dataclass(frozen=True)
class CBSpec:
    """Declarative description of a breakpoint ``(l1, l2, phi)``.

    Purely documentary — used in bug reports (Methodology I) and in
    experiment manifests; the executable artefact is a pair of trigger
    insertions.  ``loc_first`` is the location whose thread acts first.
    """

    name: str
    loc_first: str
    loc_second: str
    predicate: str = "t1.obj == t2.obj"
    kind: str = "race"  # race | deadlock | atomicity | missed-notify | custom

    def __str__(self) -> str:
        return f"<{self.loc_first}, {self.loc_second}, {self.predicate}> [{self.kind} {self.name!r}]"


class BTrigger(abc.ABC):
    """Abstract concurrent breakpoint (paper Figure 5).

    Two instances belong to the same breakpoint iff they share ``name``;
    ``predicate_global`` is expected to check the name itself (as the
    paper's implementations do), but the engine also pre-filters by name
    for efficiency.

    Subclasses capture thread-local state in their constructor and
    implement the two predicate halves.  ``policy`` attaches the Section
    6.3 precision refinements; pass a site-shared :class:`SitePolicy` so
    its counters span all instances created at the site.
    """

    __slots__ = ("name", "policy")

    #: Threads one match takes; :class:`GroupTrigger` sets its own.
    parties = 2

    def __init__(self, name: str, policy: Optional[SitePolicy] = None) -> None:
        if not name:
            raise ValueError("breakpoint name must be non-empty")
        self.name = name
        self.policy = policy

    def release_rank(self, is_first: bool) -> int:
        """This side's rank in its match's release order (lower goes first).

        A pair ranks its ``is_first_action`` side 0 and the other 1; the
        engine gives a tie to the side postponed earlier.
        """
        return 0 if is_first else 1

    # -- predicate halves -------------------------------------------------
    def predicate_local(self) -> bool:
        """``phi_t``: is this thread's local state breakpoint-relevant?

        Default: always true (the captured constructor state *is* the
        local condition for the built-in triggers).
        """
        return True

    @abc.abstractmethod
    def predicate_global(self, other: "BTrigger") -> bool:
        """``phi_t1t2``: do this instance and a partner jointly satisfy phi?"""

    # -- trigger points ----------------------------------------------------
    def trigger_here(self, is_first_action: bool, timeout: Optional[float] = None) -> bool:
        """Insert the breakpoint at the current (OS-thread) program point.

        Pauses the calling thread for up to ``timeout`` seconds (default
        ``GLOBAL.timeout``) waiting for a partner.  Returns ``True`` iff
        the breakpoint fired; the ``is_first_action=True`` side is
        released first (Section 2's scheduling action).
        """
        from . import threads  # local import: keep spec importable without threading setup

        return threads.trigger_here(self, is_first_action, timeout)

    def sim_trigger_here(self, is_first_action: bool, timeout: Optional[float] = None):
        """Generator form for simulated threads: ``hit = yield from bp.sim_trigger_here(...)``."""
        from repro.sim.syscalls import Trigger

        if timeout is None:
            timeout = GLOBAL.timeout
        result = yield Trigger(self, is_first_action, timeout)
        return result

    # Paper-faithful camelCase aliases -------------------------------------
    def predicateLocal(self) -> bool:  # noqa: N802 - paper API
        """Paper-spelling alias for :meth:`predicate_local`."""
        return self.predicate_local()

    def predicateGlobal(self, other: "BTrigger") -> bool:  # noqa: N802 - paper API
        """Paper-spelling alias for :meth:`predicate_global`."""
        return self.predicate_global(other)

    def triggerHere(self, isFirstAction: bool, timeoutInMS: int) -> bool:  # noqa: N802,N803 - paper API
        """Paper-spelling alias for :meth:`trigger_here` (timeout in ms)."""
        return self.trigger_here(isFirstAction, timeoutInMS / 1000.0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ConflictTrigger(BTrigger):
    """Breakpoint for data races: ``(l1, l2, t1.obj == t2.obj)`` (Figure 6).

    Fires when two threads reach their respective sites holding references
    to the *same* object (identity comparison, like Java ``==``).  Also
    the right trigger for atomicity violations expressed as
    ``t1.sb == t2.this`` (Figure 3) and for contended-monitor missed
    notifications, where ``obj`` is the monitor.
    """

    __slots__ = ("obj", "local", "side")

    def __init__(
        self,
        name: str,
        obj: object,
        policy: Optional[SitePolicy] = None,
        local: Optional[Callable[[], bool]] = None,
        side: Optional[str] = None,
    ) -> None:
        super().__init__(name, policy)
        self.obj = obj
        #: Optional extra local condition (``phi_t`` beyond "holds a
        #: reference to obj") — a Section 6.3 precision refinement that
        #: is per-site rather than per-breakpoint, e.g. "the object is
        #: still being constructed".
        self.local = local
        #: Optional site label refining the *global* predicate: when both
        #: instances carry a side, they only match across different
        #: sides.  Use for asymmetric conflicts (reader vs writer) where
        #: several threads share the reader site and must not pair with
        #: each other.
        self.side = side

    def predicate_local(self) -> bool:
        """This thread's half: always armed once reached."""
        if self.local is not None:
            return bool(self.local())
        return True

    def predicate_global(self, other: BTrigger) -> bool:
        """Joint predicate: both triggers watch the same object."""
        if not (
            self.name == other.name
            and isinstance(other, ConflictTrigger)
            and self.obj is other.obj
        ):
            return False
        if self.side is not None and other.side is not None and self.side == other.side:
            return False
        return True


class AtomicityTrigger(ConflictTrigger):
    """Alias of :class:`ConflictTrigger` with a self-documenting name.

    The paper triggers atomicity violations with the same object-identity
    predicate as data races (Section 2, Figure 3); a distinct class keeps
    reports and regression suites readable.
    """

    __slots__ = ()


class DeadlockTrigger(BTrigger):
    """Breakpoint for lock-inversion deadlocks (Figure 8).

    Captures ``lock1`` (already held) and ``lock2`` (about to be
    acquired).  Two instances match when they exhibit opposite order:
    ``a.lock1 is b.lock2 and a.lock2 is b.lock1`` — the classic ABBA
    cycle, as in the Jigsaw ``killClients`` / ``clientConnectionFinished``
    deadlock (Figure 2/9).
    """

    __slots__ = ("lock1", "lock2")

    def __init__(
        self, name: str, lock1: object, lock2: object, policy: Optional[SitePolicy] = None
    ) -> None:
        super().__init__(name, policy)
        self.lock1 = lock1
        self.lock2 = lock2

    def predicate_global(self, other: BTrigger) -> bool:
        """Joint predicate: the two lock pairs form an inversion."""
        return (
            self.name == other.name
            and isinstance(other, DeadlockTrigger)
            and self.lock1 is other.lock2
            and self.lock2 is other.lock1
        )


class GroupTrigger(ConflictTrigger):
    """An N-thread concurrent breakpoint ``(l1, ..., lk, phi)``.

    The paper (Section 2): "a concurrent breakpoint (l1, l2, l3, phi)
    involves three threads.  Our implementation ... can be extended
    accordingly."  This is that extension: the breakpoint fires when
    ``parties`` distinct threads are simultaneously postponed at
    same-name sites referencing the same object.

    ``rank`` is this member's :meth:`release_rank` and replaces
    ``is_first_action``, whose value is ignored.  The engine releases a
    group exactly as it releases a pair: ascending rank (rank 0 acts
    first), ties to the earlier park.
    """

    __slots__ = ("parties", "rank")

    def __init__(
        self,
        name: str,
        obj: object,
        parties: int,
        rank: int,
        policy: Optional[SitePolicy] = None,
        local: Optional[Callable[[], bool]] = None,
        side: Optional[str] = None,
    ) -> None:
        super().__init__(name, obj, policy=policy, local=local, side=side)
        if parties < 2:
            raise ValueError("a group breakpoint needs at least two parties")
        if not 0 <= rank < parties:
            raise ValueError("rank must be in [0, parties)")
        self.parties = parties
        self.rank = rank

    def release_rank(self, is_first: bool) -> int:
        """A member's rank is its own ``rank``; ``is_first`` is ignored."""
        return self.rank

    def predicate_global(self, other: BTrigger) -> bool:
        """Joint predicate over the whole ``parties``-sized party."""
        return (
            isinstance(other, GroupTrigger)
            and other.parties == self.parties
            and super().predicate_global(other)
        )


class PredicateTrigger(BTrigger):
    """Fully general breakpoint with callable predicate halves.

    ``state`` holds whatever local values the predicates need; ``local``
    receives this instance, ``glob`` receives ``(this, other)``.  Name
    equality and instance-type are checked before ``glob`` runs, mirroring
    the built-in triggers.
    """

    __slots__ = ("state", "_local", "_glob")

    def __init__(
        self,
        name: str,
        state: object = None,
        local: Optional[Callable[["PredicateTrigger"], bool]] = None,
        glob: Optional[Callable[["PredicateTrigger", "PredicateTrigger"], bool]] = None,
        policy: Optional[SitePolicy] = None,
    ) -> None:
        super().__init__(name, policy)
        self.state = state
        self._local = local
        self._glob = glob

    def predicate_local(self) -> bool:
        """Evaluate the user-supplied local half."""
        if self._local is None:
            return True
        return bool(self._local(self))

    def predicate_global(self, other: BTrigger) -> bool:
        """Evaluate the user-supplied joint predicate."""
        if self.name != other.name or not isinstance(other, PredicateTrigger):
            return False
        if self._glob is None:
            return True
        return bool(self._glob(self, other))
