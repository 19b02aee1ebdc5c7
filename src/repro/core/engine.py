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
matching, ordering decision, and per-breakpoint statistics — with no
threading or timing of its own.  Backends supply synchronisation and real
or virtual timers:

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

from .spec import BTrigger, GroupTrigger

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
    #: Filled in by the engine when a partner matches this entry.
    matched_with: Optional["PostponedEntry"] = None
    #: True iff, after the match, this side's thread must act first.
    acts_first: bool = False


@dataclasses.dataclass
class Matched:
    """Arrival outcome: a partner was postponed and the predicates agree."""

    entry: PostponedEntry  # the arriving side (never parked)
    partner: PostponedEntry  # the previously postponed side


@dataclasses.dataclass
class MatchedGroup:
    """Arrival outcome for an N-thread breakpoint: the arriving entry
    completed a party of ``k``; ``ordered`` lists all k entries in the
    release order (rank 0 first)."""

    entry: PostponedEntry
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


ArrivalResult = Union[Matched, MatchedGroup, Postponed, Skipped]


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
        same-name postponed set for a partner on a *different* thread
        whose joint predicate holds (``arriving.predicate_global(parked)``,
        the direction used in the paper's Figure 6 implementation).  On a
        match the partner entry is removed from the postponed set and the
        ordering decision is recorded on both entries; the caller is
        responsible for waking the partner and enforcing the order.
        """
        st = self.stats_for(inst.name)
        st.visits += 1
        obs = self.obs

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

        if isinstance(inst, GroupTrigger):
            return self._arrive_group(inst, entry, st)

        queue = self._postponed.get(inst.name, ())
        for parked in queue:
            if parked.thread_key == thread_key:
                continue
            if inst.predicate_global(parked.inst):
                self._postponed[inst.name].remove(parked)
                first, second = self._decide_order(entry, parked)
                first.acts_first, second.acts_first = True, False
                entry.matched_with, parked.matched_with = parked, entry
                st.hits += 1
                self.total_hits += 1
                for side in (entry, parked):
                    if side.inst.policy is not None:
                        side.inst.policy.record_trigger()
                if obs is not None:
                    self._pause_log.append(now - parked.park_time)
                return Matched(entry=entry, partner=parked)

        self._postponed.setdefault(inst.name, []).append(entry)
        st.postpones += 1
        return Postponed(entry=entry)

    def _arrive_group(self, inst, entry: PostponedEntry, st: BreakpointStats) -> ArrivalResult:
        """N-thread matching: fire once ``parties`` distinct threads are
        simultaneously postponed at compatible sites."""
        queue = self._postponed.get(inst.name, [])
        partners: List[PostponedEntry] = []
        seen_threads = {entry.thread_key}
        for parked in queue:
            if parked.thread_key in seen_threads:
                continue
            if inst.predicate_global(parked.inst):
                partners.append(parked)
                seen_threads.add(parked.thread_key)
                if len(partners) == inst.parties - 1:
                    break
        if len(partners) < inst.parties - 1:
            self._postponed.setdefault(inst.name, []).append(entry)
            st.postpones += 1
            return Postponed(entry=entry)
        for parked in partners:
            self._postponed[inst.name].remove(parked)
        group = partners + [entry]
        # Release order: ascending rank, park order breaking ties.
        group.sort(key=lambda e: (getattr(e.inst, "rank", 0), e.token))
        for i, member in enumerate(group):
            member.acts_first = i == 0
            member.matched_with = entry if member is not entry else group[0]
        st.hits += 1
        self.total_hits += 1
        for member in group:
            if member.inst.policy is not None:
                member.inst.policy.record_trigger()
        if self.obs is not None:
            now = entry.park_time  # the completing arrival's timestamp
            for parked in partners:
                self._pause_log.append(now - parked.park_time)
        return MatchedGroup(entry=entry, ordered=group)

    @staticmethod
    def _decide_order(a: PostponedEntry, b: PostponedEntry) -> Tuple[PostponedEntry, PostponedEntry]:
        """Which side acts first (Section 2's scheduling decision)?

        The side whose ``trigger_here`` was called with
        ``is_first_action=True`` goes first.  If both sides claim the same
        flag (legal when a symmetric race is instrumented with one shared
        call site) the tie is broken in favour of the thread postponed
        earlier, which makes re-runs deterministic.
        """
        if a.is_first and not b.is_first:
            return a, b
        if b.is_first and not a.is_first:
            return b, a
        return (b, a) if b.token < a.token else (a, b)

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
