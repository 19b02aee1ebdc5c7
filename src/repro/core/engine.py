"""The BTrigger matching state machine (paper Section 3).

BTrigger works as follows (quoting the paper's mechanism):

  During the execution of a program, whenever a thread reaches a state
  satisfying the predicate ``phi_ti``, we postpone the execution of the
  thread for T time units and keep the thread in a set *Postponed* for the
  postponed period.  [...]  If another thread reaches a state satisfying
  ``phi_tj`` and there is a postponed thread ``t'`` such that the local
  states of the two threads satisfy ``phi_t1t2``, then we report that the
  concurrent breakpoint has been reached [and] order the execution of the
  two threads according to the order given by the concurrent breakpoint.
  Note that we do not postpone the execution of a thread indefinitely
  because this could result in a deadlock situation.

This module implements exactly that bookkeeping — the *Postponed* sets,
matching, the release order, and per-breakpoint statistics — with no
threading or timing of its own.  A pair is the two-party case of one
rule: an arrival matches once it finds ``inst.parties - 1`` postponed
partners on distinct threads (``parties`` is 2 for every pair trigger; a
:class:`~repro.core.spec.GroupTrigger` sets its own), and every member is
released in ascending ``(inst.release_rank(is_first), park order)``.
For a pair that is Section 2's decision: the ``is_first_action`` side
goes first, and a tie goes to the thread postponed earlier.

Backends supply synchronisation and real or virtual timers:

* :mod:`repro.core.threads` wraps calls in a ``threading.Lock`` and parks
  threads on ``threading.Event`` objects;
* the simulation kernel (:mod:`repro.sim.kernel`) is single-threaded and
  parks ``SimThread`` objects on virtual timers.

Sharing the state machine guarantees the two backends cannot diverge in
matching semantics or statistics.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple, Union

from .spec import BTrigger

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->obs cycle
    from repro.obs import MetricsRegistry

__all__ = [
    "BreakpointStats",
    "PostponedEntry",
    "Matched",
    "Postponed",
    "Skipped",
    "ArrivalResult",
    "BreakpointEngine",
]


@dataclasses.dataclass
class BreakpointStats:
    """Counters for one breakpoint name.

    ``visits``      — calls to ``trigger_here`` at either site;
    ``local_skips`` — visits rejected by the local predicate / policy;
    ``postpones``   — visits that parked the thread;
    ``hits``        — successful matches (each match counts once);
    ``timeouts``    — postponements that expired unmatched.

    The paper's "BP hit (%)" column (Section 5 table) is
    ``hits / executions`` measured by the harness; these counters provide
    the per-run numerator.
    """

    visits: int = 0
    local_skips: int = 0
    postpones: int = 0
    hits: int = 0
    timeouts: int = 0

    @property
    def hit(self) -> bool:
        """True iff the breakpoint fired at least once."""
        return self.hits > 0


@dataclasses.dataclass
class PostponedEntry:
    """A parked thread waiting at a half-satisfied breakpoint."""

    token: int
    inst: BTrigger
    is_first: bool
    thread_key: Hashable
    deadline: float
    #: Arrival time — pause-duration metrics are ``release - park_time``.
    park_time: float = 0.0
    #: Backends stash their wake handle here (threading.Event / SimThread).
    handle: object = None
    #: This entry's index in its match's release order (0 acts first);
    #: None until a match takes the entry.
    release: Optional[int] = None


@dataclasses.dataclass
class Matched:
    """Arrival outcome: the arrival completed a party of ``inst.parties``.

    ``ordered`` holds every member, the arriving ``entry`` among them, in
    release order: ascending ``inst.release_rank(is_first)``, ties to the
    earlier park.  ``ordered[i].release == i``.
    """

    entry: PostponedEntry  # the arriving side (never parked)
    ordered: List[PostponedEntry]


@dataclasses.dataclass
class Postponed:
    """Arrival outcome: no partner yet; the thread must park until
    ``entry.deadline`` (or until matched by a later arrival)."""

    entry: PostponedEntry


@dataclasses.dataclass
class Skipped:
    """Arrival outcome: local predicate or policy rejected the visit."""

    reason: str


ArrivalResult = Union[Matched, Postponed, Skipped]


def _release_key(entry: PostponedEntry) -> Tuple[int, int]:
    """Release order: the trigger's rank for this side, then park order."""
    return entry.inst.release_rank(entry.is_first), entry.token


class BreakpointEngine:
    """Postponed-set bookkeeping shared by all breakpoints of one program run.

    Not thread-safe by itself: the caller must serialise all method calls
    (a single lock in the OS backend; the kernel's event loop in the
    simulation backend).
    """

    def __init__(self, obs: Optional["MetricsRegistry"] = None) -> None:
        self._postponed: Dict[str, List[PostponedEntry]] = {}
        self._tokens = itertools.count(1)
        self.stats: Dict[str, BreakpointStats] = {}
        #: Total matches across all names, cheap liveness signal for tests.
        self.total_hits = 0
        #: Metrics registry (duck-typed; ``None`` disables entirely).
        self.obs = obs
        #: Pause durations of matched/expired entries, flushed into the
        #: ``engine.pause_seconds`` histogram at end of run.  The
        #: counters (arrivals, skips, ...) need no hot-path work at all —
        #: they are derived from :attr:`stats` at flush time.  Assigned
        #: unconditionally (None when uninstrumented) to keep one
        #: instance shape — see the matching note in ``Kernel.__init__``
        #: about CPython shared-keys dicts.
        self._pause_log: Optional[List[float]] = None if obs is None else []

    # ------------------------------------------------------------------
    def flush_metrics(self, into: Optional[Dict[str, int]] = None) -> None:
        """Fold this run's breakpoint bookkeeping into the metrics registry.

        Called once at end of run (the kernel's ``_flush_obs``).  The hot
        paths maintain only :attr:`stats` — which they did before
        observability existed — plus a plain pause-duration list, so
        enabling metrics adds no per-arrival registry traffic.  An engine
        no thread ever visited emits nothing: plain (no-breakpoint) runs
        pay zero engine-metric cost, and ``engine.*`` keys appearing in a
        snapshot means breakpoint code actually executed.

        ``into`` lets the kernel collect the ``engine.*`` counters into
        its own end-of-run counter dict (keys are disjoint by prefix) so
        the whole run lands in one ``add_counters`` registry call;
        without it the counters are registered directly.
        """
        m = self.obs
        if m is None or not self.stats:
            return
        visits = skips = postpones = hits = timeouts = 0
        for st in self.stats.values():
            visits += st.visits
            skips += st.local_skips
            postpones += st.postpones
            hits += st.hits
            timeouts += st.timeouts
        counts = {
            "engine.arrivals": visits,
            "engine.local_skips": skips,
            "engine.postpones": postpones,
            "engine.matches": hits,
            "engine.timeouts": timeouts,
        }
        if into is not None:
            into.update(counts)
        else:
            m.add_counters(counts)
        if self._pause_log:
            h = m.histogram("engine.pause_seconds")
            for p in self._pause_log:
                h.observe(p)
            self._pause_log.clear()

    # ------------------------------------------------------------------
    def stats_for(self, name: str) -> BreakpointStats:
        """The per-breakpoint stats record, created on first use."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = BreakpointStats()
        return st

    def postponed_count(self, name: Optional[str] = None) -> int:
        """Currently parked threads (optionally for one breakpoint)."""
        if name is not None:
            return len(self._postponed.get(name, ()))
        return sum(len(v) for v in self._postponed.values())

    # ------------------------------------------------------------------
    def arrive(
        self,
        inst: BTrigger,
        is_first: bool,
        thread_key: Hashable,
        now: float,
        timeout: float,
    ) -> ArrivalResult:
        """A thread reached a breakpoint site; decide its fate.

        Evaluates the policy and local predicate, then scans the
        same-name postponed set, in park order, for ``inst.parties - 1``
        partners on threads distinct from each other and from this one
        whose joint predicate holds (``arriving.predicate_global(parked)``,
        the direction used in the paper's Figure 6 implementation).  On a
        match the partners leave the postponed set and every member's
        ``release`` index is set; the caller wakes the partners and
        enforces the order.  Otherwise the arrival is postponed.
        """
        st = self.stats_for(inst.name)
        st.visits += 1

        if inst.policy is not None and not inst.policy.should_attempt():
            st.local_skips += 1
            return Skipped("policy")
        if not inst.predicate_local():
            st.local_skips += 1
            return Skipped("predicate_local")

        entry = PostponedEntry(
            token=next(self._tokens),
            inst=inst,
            is_first=is_first,
            thread_key=thread_key,
            deadline=now + timeout,
            park_time=now,
        )

        queue = self._postponed.get(inst.name)
        if queue is None:
            queue = self._postponed[inst.name] = []
        # Built on the first find, so a visit that finds none allocates nothing.
        partners: Optional[List[PostponedEntry]] = None
        for parked in queue:
            key = parked.thread_key
            if key == thread_key or not inst.predicate_global(parked.inst):
                continue
            if partners is None:
                partners = [parked]
            elif any(p.thread_key == key for p in partners):
                continue
            else:
                partners.append(parked)
            if len(partners) == inst.parties - 1:
                break
        else:
            queue.append(entry)
            st.postpones += 1
            return Postponed(entry=entry)

        for p in partners:
            queue.remove(p)
        ordered = sorted((entry, *partners), key=_release_key)
        for i, member in enumerate(ordered):
            member.release = i
            if member.inst.policy is not None:
                member.inst.policy.record_trigger()
        st.hits += 1
        self.total_hits += 1
        if self.obs is not None:
            self._pause_log.extend(now - p.park_time for p in partners)
        return Matched(entry=entry, ordered=ordered)

    # ------------------------------------------------------------------
    def expire(self, entry: PostponedEntry) -> bool:
        """Timer fired for a postponed entry.

        Returns ``True`` if the entry was still parked (and is now
        removed, counted as a timeout); ``False`` if it had already been
        matched or cancelled, in which case the stale timer is ignored.
        """
        queue = self._postponed.get(entry.inst.name)
        if queue and entry in queue:
            queue.remove(entry)
            self.stats_for(entry.inst.name).timeouts += 1
            if self.obs is not None:
                self._pause_log.append(entry.deadline - entry.park_time)
            return True
        return False

    def cancel(self, entry: PostponedEntry) -> bool:
        """Withdraw a parked entry without counting a timeout (thread interrupted)."""
        queue = self._postponed.get(entry.inst.name)
        if queue and entry in queue:
            queue.remove(entry)
            return True
        return False

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, BreakpointStats]:
        """Copy of all per-name statistics (for harness reporting)."""
        return {k: dataclasses.replace(v) for k, v in self.stats.items()}

    def reset(self) -> None:
        """Drop all postponed entries and statistics (between trials)."""
        self._postponed.clear()
        self.stats.clear()
        self.total_hits = 0
