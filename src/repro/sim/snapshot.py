"""Schedule execution for the DFS explorers.

The explorers (:mod:`repro.sim.explore`, :mod:`repro.sim.dpor`) walk a
schedule tree by forced choice prefixes.  :class:`StatelessPool` turns
one prefix into one executed schedule: a fresh kernel, the forced
prefix replayed from step 0, then a lowest-tid free descent
(:class:`_DFSScheduler`), handed back as a :class:`RunRecord`.  The
kernel is deterministic given the choices, so replay is exact; its cost
is O(steps) per schedule.  Whatever an explorer derives from a run
(DPOR step footprints, variable-bound charges) it reads off the record's
``result.trace``: that is the run's own :class:`~repro.sim.trace.Trace`,
whose events hold the touched objects, so ``id`` keys stay valid after
the run.

Schedules are deliberately not resumed from forked snapshots of a
shared prefix: registry schedules are 8–483 kernel steps, and a fork
plus its bookkeeping per branch point costs more than replaying the
prefix (DESIGN.md section 6.8 has the measurements).

:class:`Bound` and :func:`count_preemptions` live here because the
scheduler enforces the preemption budget during the free descent.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .kernel import Kernel, RunResult
from .replay import ReplayDivergence
from .scheduler import Scheduler
from .thread import SimThread

__all__ = [
    "Bound",
    "RunRecord",
    "PoolStats",
    "StatelessPool",
    "count_preemptions",
]

_tid = attrgetter("tid")


@dataclasses.dataclass(frozen=True)
class Bound:
    """Composable cut-strategy configuration for bounded exploration.

    ``preemptions`` caps the number of *preemptive* context switches per
    schedule (a switch away from a thread that is still runnable — a
    forced switch off a blocked or finished thread is always free);
    ``variables`` caps the number of distinct shared objects, keyed by
    their process-portable ``Type:name`` identity, that preemptions are
    charged against across a schedule's prefix.  ``None`` disables that
    strategy; a bound with both fields ``None`` is a no-op everywhere.

    The bound is **result-relevant**: it is part of the exploration cache
    fingerprint, and a sufficiently large finite bound is bit-identical
    to no bound at all (the differential battery in
    ``tests/sim/test_bounding.py`` asserts this across every registry
    app).
    """

    preemptions: Optional[int] = None
    variables: Optional[int] = None

    def __post_init__(self) -> None:
        for field in ("preemptions", "variables"):
            v = getattr(self, field)
            if v is None:
                continue
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(
                    f"Bound.{field} must be a non-negative int or None, got {v!r}"
                )

    @property
    def active(self) -> bool:
        """Does this bound actually constrain anything?"""
        return self.preemptions is not None or self.variables is not None

    def to_doc(self) -> Optional[Dict[str, Optional[int]]]:
        """JSON-able form (None when inactive) for wire/cache documents."""
        if not self.active:
            return None
        return {"preemptions": self.preemptions, "variables": self.variables}

    @classmethod
    def from_doc(cls, doc: Optional[Dict[str, Optional[int]]]) -> Optional["Bound"]:
        """Inverse of :meth:`to_doc` (None stays None)."""
        if not doc:
            return None
        return cls(
            preemptions=doc.get("preemptions"), variables=doc.get("variables")
        )

    @classmethod
    def from_values(
        cls, preemptions: Optional[int] = None, variables: Optional[int] = None
    ) -> Optional["Bound"]:
        """Build a bound, collapsing the both-None case to None."""
        if preemptions is None and variables is None:
            return None
        return cls(preemptions=preemptions, variables=variables)


def count_preemptions(
    choices: Sequence[int], runnable_sets: Sequence[Tuple[int, ...]]
) -> int:
    """Preemptive switches in one schedule: depth ``d`` switched away
    from a thread that was still runnable there.  This is the reference
    recomputation the scheduler's incremental accounting is property-
    tested against."""
    n = 0
    for d in range(1, len(choices)):
        prev = choices[d - 1]
        if choices[d] != prev and prev in runnable_sets[d]:
            n += 1
    return n


class _DFSScheduler(Scheduler):
    """Follows a forced prefix, then always picks the lowest tid, and
    records the runnable set at every scheduling point.

    With a preemption :class:`Bound`, the free descent additionally
    refuses to *preempt* once the budget is spent: when the lowest-tid
    pick would switch away from a still-runnable previous thread and
    ``preemptions`` are exhausted, the scheduler stays on the previous
    thread instead (always legal — it is runnable).  At ``bound=None``
    or any budget the run never reaches, behaviour is bit-identical to
    the unbounded scheduler.  ``self.preemptions`` counts preemptive
    switches incrementally (forced-prefix ones included), a pure
    function of ``(choices, runnable_sets)`` (see
    :func:`count_preemptions`).

    Most picks see exactly one runnable thread (84 % on the e2e
    ``explore`` round): nothing can be chosen there and no switch can
    be preemptive, so that case only records the pick.  A forced tid
    that is not runnable means ``build`` did not rebuild the same
    program; it raises :class:`~repro.sim.replay.ReplayDivergence`
    naming the depth, the forced tid and the runnable tids.
    """

    def __init__(self, prefix: Sequence[int], bound: Optional["Bound"] = None) -> None:
        self.prefix = list(prefix)
        self.choices: List[int] = []
        self.runnable_sets: List[Tuple[int, ...]] = []
        self.bound = bound
        self.preemptions = 0

    def pick(self, runnable: Sequence[SimThread], step: int) -> SimThread:
        choices = self.choices
        depth = len(choices)
        forced = depth < len(self.prefix)
        if len(runnable) == 1:
            chosen = runnable[0]
            tid = chosen.tid
            if forced and self.prefix[depth] != tid:
                raise self._divergence(depth, (tid,))
            choices.append(tid)
            self.runnable_sets.append((tid,))
            return chosen
        tids = tuple(map(_tid, runnable))  # kernel pre-sorts by tid
        if forced:
            try:
                chosen = runnable[tids.index(self.prefix[depth])]
            except ValueError:
                raise self._divergence(depth, tids) from None
        else:
            chosen = runnable[0]
            b = self.bound
            if (
                b is not None
                and b.preemptions is not None
                and choices
                and self.preemptions >= b.preemptions
            ):
                prev = choices[-1]
                if chosen.tid != prev and prev in tids:
                    chosen = runnable[tids.index(prev)]
        tid = chosen.tid
        if choices:
            prev = choices[-1]
            if tid != prev and prev in tids:
                self.preemptions += 1
        choices.append(tid)
        self.runnable_sets.append(tids)
        return chosen

    def _divergence(self, depth: int, tids: Tuple[int, ...]) -> ReplayDivergence:
        return ReplayDivergence(
            f"forced prefix diverged at depth {depth}: tid {self.prefix[depth]} "
            f"is not runnable (runnable tids {list(tids)}); build must "
            "construct the same program on every call"
        )


@dataclasses.dataclass
class RunRecord:
    """Everything one executed schedule hands back to a DFS loop."""

    choices: Tuple[int, ...]
    runnable_sets: Tuple[Tuple[int, ...], ...]
    result: RunResult
    observed: Any
    #: Preemptive context switches in this schedule (see
    #: :func:`count_preemptions`, of which this is the incremental form).
    preemptions: int = 0


@dataclasses.dataclass
class PoolStats:
    """Executor counters; surfaced as ``explore.*`` obs metrics."""

    runs: int = 0
    executed_steps: int = 0  # kernel steps executed
    replayed_choices: int = 0  # forced choices re-fed from step 0


class StatelessPool:
    """Fresh kernel + full replay per schedule."""

    def __init__(
        self,
        build: Callable[[Kernel], None],
        *,
        seed: int = 0,
        max_steps: int = 20_000,
        max_time: float = float("inf"),
        record_trace: bool = False,
        observe: Optional[Callable[[Kernel], object]] = None,
        bound: Optional[Bound] = None,
    ) -> None:
        self._build = build
        self._seed = seed
        self._max_steps = max_steps
        self._max_time = max_time
        self._record_trace = record_trace
        self._observe = observe
        self._bound = bound
        self.stats = PoolStats()

    def run(self, prefix: Sequence[int]) -> RunRecord:
        """Execute one schedule from scratch (O(depth) replay)."""
        sched = _DFSScheduler(prefix, bound=self._bound)
        kernel = Kernel(
            scheduler=sched, seed=self._seed, record_trace=self._record_trace
        )
        self._build(kernel)
        result = kernel.run(max_steps=self._max_steps, max_time=self._max_time)
        observed = self._observe(kernel) if self._observe is not None else None
        self.stats.runs += 1
        self.stats.executed_steps += kernel.step
        self.stats.replayed_choices += len(sched.prefix)
        return RunRecord(
            choices=tuple(sched.choices),
            runnable_sets=tuple(sched.runnable_sets),
            result=result,
            observed=observed,
            preemptions=sched.preemptions,
        )
