"""Lock-order-graph deadlock prediction (GoodLock-style, paper refs [4, 18]).

Builds a directed graph with an edge ``l1 -> l2`` whenever some thread
acquires ``l2`` while holding ``l1``; a cycle is a *potential* deadlock
even if this particular run did not deadlock.  For two-lock cycles — the
shape of every deadlock in the paper's benchmarks, e.g. Jigsaw's
``factory``/``csList`` inversion — the report carries the two acquisition
sites and lock names, which is exactly what a :class:`DeadlockTrigger`
pair needs (Methodology I).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro._lazy import networkx as nx

from repro.sim.trace import OP, Trace

from ._scan import HeldLockTracker
from .reports import DeadlockReport, dedupe

__all__ = ["LockGraph", "potential_deadlocks"]


class LockGraph:
    """Accumulates lock-order edges from one or more traces."""

    def __init__(self) -> None:
        self.graph = nx.DiGraph()
        # (held, acquired) -> set of (site, thread) witnesses
        self._witnesses: Dict[Tuple[Any, Any], Set[Tuple[str, str]]] = {}

    def feed(self, trace: Trace) -> "LockGraph":
        """Consume a trace's lock events into the order graph; returns self."""
        tracker = HeldLockTracker()
        for ev in trace:
            if ev.op == OP.ACQUIRE or ev.op == OP.ACQUIRE_REQ:
                for held in tracker.held(ev.tid):
                    if held is not ev.obj:
                        self.graph.add_edge(held, ev.obj)
                        self._witnesses.setdefault((held, ev.obj), set()).add(
                            (ev.loc, ev.tname)
                        )
            tracker.update(ev)
        return self

    def cycles(self) -> List[List[Any]]:
        """All simple cycles in the lock-order graph."""
        return list(nx.simple_cycles(self.graph))

    def reports(self) -> List[DeadlockReport]:
        """One report per cycle, with acquisition witnesses.

        Two-lock cycles (every deadlock in the paper's benchmarks) pair
        the two inverted acquisition sites — exactly a
        :class:`DeadlockTrigger` pair.  Longer cycles are reported along
        consecutive edges: each report names one "holds A, wants B" site
        and the next thread's "holds B, wants C" site; a chain of such
        breakpoints pins the whole cycle.
        """
        out: List[DeadlockReport] = []
        # Two-lock cycles are found by a direct edge scan rather than the
        # generic cycle enumerator: simple_cycles walks identity-hashed
        # node sets, so the orientation it returns a 2-cycle in varies
        # run to run.  Edge insertion order is trace order, which makes
        # the reported orientation the first direction the trace
        # witnessed — a pure function of the trace.
        seen_pairs: Set[Any] = set()
        for l1, l2 in self.graph.edges:
            if not self.graph.has_edge(l2, l1):
                continue
            pair = frozenset((l1, l2))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            fwd = self._witnesses.get((l1, l2))
            rev = self._witnesses.get((l2, l1))
            if not fwd or not rev:
                continue
            (loc1, t1) = sorted(fwd)[0]
            (loc2, t2) = sorted(rev)[0]
            self._emit(out, l1, l2, loc1, loc2, t1, t2)
        for cycle in self.cycles():
            n = len(cycle)
            if n <= 2:
                continue
            for i in range(n):
                a, b, c = cycle[i], cycle[(i + 1) % n], cycle[(i + 2) % n]
                fwd = self._witnesses.get((a, b))
                nxt = self._witnesses.get((b, c))
                if not fwd or not nxt:
                    continue
                (loc1, t1) = sorted(fwd)[0]
                (loc2, t2) = sorted(nxt)[0]
                self._emit(out, a, b, loc1, loc2, t1, t2)
        deduped: List[DeadlockReport] = dedupe(out)  # type: ignore[assignment]
        # simple_cycles enumeration order is also identity-dependent, so
        # canonicalise the list order too.
        deduped.sort(key=lambda r: (r.name, r.loc1, r.loc2, r.thread1 or "", r.thread2 or ""))
        return deduped

    @staticmethod
    def _emit(out: List[DeadlockReport], l1: Any, l2: Any, loc1: str, loc2: str, t1: str, t2: str) -> None:
        n1 = getattr(l1, "name", str(l1))
        n2 = getattr(l2, "name", str(l2))
        out.append(
            DeadlockReport(
                name=f"deadlock:{n1}<->{n2}",
                loc1=loc1,
                loc2=loc2,
                lock1=n1,
                lock2=n2,
                thread1=t1,
                thread2=t2,
            )
        )


def potential_deadlocks(trace: Trace) -> List[DeadlockReport]:
    """Potential deadlocks predicted from one trace's lock orders."""
    return LockGraph().feed(trace).reports()
