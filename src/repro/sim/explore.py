"""Exhaustive (bounded) schedule exploration — a tiny model checker.

Enumerates *every* interleaving of a small simulated program by DFS over
scheduling choices.  Each schedule re-executes from step 0 with a
forced choice prefix (:class:`~repro.sim.snapshot.StatelessPool`) — the
kernel is deterministic given the choices, so replay is exact and costs
O(steps) per schedule.

In the paper's terms this is the CHESS-style systematic baseline
[25, 26]: it proves a Heisenbug's schedule *exists* and measures how
rare it is — `found in 3 of 1 026 interleavings` — which is precisely
why stumbling on it randomly is hopeless and a concurrent breakpoint is
worth inserting.

Use :func:`explore` on programs with a few dozen scheduling points; the
schedule tree is exponential, so ``max_schedules`` caps the walk (the
``complete`` flag says whether the cap hit).

The walk's stack holds one entry per unexplored sibling, ``(choices,
depth, alt)``: the tuple of choices of the run that found it (shared by
all its siblings), the depth of the branch and the tid taken there.
The branch's prefix, ``choices[:depth]`` then ``alt``, is built only
when the entry is popped.  A run of L choices with k runnable threads
therefore pushes about L·(k−1) small tuples instead of as many prefix
copies (L²·(k−1)/2 list cells), which a capped walk mostly never pops.

The same walk, branched only above a fixed depth, is the shard frontier
of :func:`repro.sim.dpor.explore_dpor_sharded` (:func:`_frontier`), and
:func:`merge_shards` joins the shards' explorations again.  The per-run
bookkeeping the DPOR walk shares with this one lives here too: a run's
:class:`Outcome` (:func:`_outcome`) and its bound cut predicate
(:func:`_cutter`).
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import sys
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .kernel import Kernel, RunResult
from .snapshot import Bound, PoolStats, RunRecord, StatelessPool, count_preemptions
from .trace import Trace

__all__ = [
    "Bound",
    "Outcome",
    "Exploration",
    "count_preemptions",
    "explore",
    "merge_shards",
]


@dataclasses.dataclass
class Outcome:
    """One fully-executed schedule."""

    choices: Tuple[int, ...]
    result: RunResult
    #: Snapshot taken by ``explore``'s ``observe`` hook after the run
    #: (final shared state, oracle verdicts, ...); None if no hook.
    observed: object = None
    #: Probability a uniform random scheduler would walk exactly this
    #: schedule: the product of ``1/len(runnable)`` over every
    #: scheduling point (see :meth:`Exploration.probability`).
    weight: float = 1.0
    #: Preemptive context switches this schedule performed (see
    #: :func:`repro.sim.snapshot.count_preemptions`).
    preemptions: int = 0


@dataclasses.dataclass
class Exploration:
    """The set of explored schedules."""

    outcomes: List[Outcome]
    complete: bool  # False iff max_schedules stopped the walk
    #: Branches cut by the preemption bound (0 when unbounded).
    preemption_cuts: int = 0
    #: Branches cut by the variable bound (0 when unbounded).
    variable_cuts: int = 0

    @property
    def count(self) -> int:
        """Number of explored schedules."""
        return len(self.outcomes)

    def matching(self, pred: Callable[[Outcome], bool]) -> List[Outcome]:
        """Outcomes whose observation satisfies ``pred``."""
        return [o for o in self.outcomes if pred(o)]

    def probability(self, pred: Callable[[Outcome], bool], weighted: bool = False) -> float:
        """Fraction of explored schedules satisfying ``pred``.

        With ``weighted=False`` each *leaf schedule* counts equally; the
        answer is "how many of the possible interleavings are buggy".
        That is not the distribution a uniform random scheduler induces:
        a leaf behind ten binary choices is walked with probability
        2**-10, not 1/count.

        With ``weighted=True`` each schedule counts by its branch-choice
        probability — the product of ``1/len(runnable)`` at every
        scheduling point, normalised over the explored set — so on a
        complete exploration the answer matches the hit probability a
        uniform :class:`~repro.sim.scheduler.RandomScheduler` (without
        delay noise) would observe.  On a capped exploration it is the
        probability conditioned on landing in the explored subset.
        """
        if not self.outcomes:
            return 0.0
        if not weighted:
            return len(self.matching(pred)) / len(self.outcomes)
        total = sum(o.weight for o in self.outcomes)
        if total <= 0.0:
            return 0.0
        return sum(o.weight for o in self.outcomes if pred(o)) / total

    def witnesses(self, pred: Callable[[Outcome], bool], limit: int = 3) -> List[Tuple[int, ...]]:
        """Choice lists (replayable schedules) of up to ``limit`` matches."""
        return [o.choices for o in self.matching(pred)[:limit]]


def _schedule_weight(runnable_sets: Sequence[Tuple[int, ...]]) -> float:
    """Probability of this exact schedule under uniform random choice."""
    w = 1.0
    for tids in runnable_sets:
        n = len(tids)
        if n > 1:
            w /= n
    return w


def _outcome(rec: RunRecord) -> Outcome:
    """The outcome of one executed schedule."""
    return Outcome(
        rec.choices,
        rec.result,
        rec.observed,
        _schedule_weight(rec.runnable_sets),
        rec.preemptions,
    )


# ---------------------------------------------------------------------------
# Bounded search: the cut predicate shared by explore() and the DPOR loop
# ---------------------------------------------------------------------------


def _preemption_prefix_counts(
    choices: Sequence[int], runnable_sets: Sequence[Tuple[int, ...]]
) -> List[int]:
    """``out[d]`` = preemptive switches within ``choices[:d]`` (so
    ``out[len(choices)] == count_preemptions(...)``)."""
    out = [0] * (len(choices) + 1)
    acc = 0
    for d in range(1, len(choices) + 1):
        prev = choices[d - 1 - 1] if d >= 2 else None
        if d >= 2 and choices[d - 1] != prev and prev in runnable_sets[d - 1]:
            acc += 1
        out[d] = acc
    return out


def _var_key(obj: Any) -> str:
    """Process-portable identity of a shared object for variable
    bounding: ``Type:name``.  Every sim primitive carries a stable
    ``name`` (auto-assigned in creation order), so the key set is
    deterministic across process restarts — unlike ``id()``."""
    return f"{type(obj).__name__}:{getattr(obj, 'name', '')}"


def _name_footprints(trace: Trace, n_choices: int) -> List[FrozenSet[str]]:
    """Per-scheduling-point sets of shared-object keys touched by the
    chosen transition.  Tolerates every op (including timed SLEEPs,
    which carry no object) since plain ``explore`` accepts timed apps."""
    foot: List[set] = [set() for _ in range(n_choices)]
    objs, steps = trace.columns("obj", "step")
    for obj, step in zip(objs, steps):
        idx = step - 1
        if obj is not None and 0 <= idx < n_choices:
            foot[idx].add(_var_key(obj))
    return [frozenset(s) for s in foot]


def _variable_charges(
    choices: Sequence[int],
    runnable_sets: Sequence[Tuple[int, ...]],
    vfoot: Sequence[FrozenSet[str]],
) -> Tuple[List[FrozenSet[str]], List[FrozenSet[str]]]:
    """Charge preemptions to the variables of the preempted transition.

    Returns ``(charged, extra)``: ``charged[d]`` is the union of keys
    charged by preemptions within ``choices[:d]``; ``extra[d]`` is the
    charge a preemption *at* depth ``d`` would add — the pending
    transition of ``choices[d-1]`` (its next occurrence at or after
    ``d``), empty when unknowable (the thread never runs again in this
    schedule — conservative: uncharged).
    """
    n = len(choices)
    occ: Dict[int, List[int]] = {}
    for d, t in enumerate(choices):
        occ.setdefault(t, []).append(d)

    def pending_vars(t: int, d: int) -> FrozenSet[str]:
        lst = occ.get(t)
        if not lst:
            return frozenset()
        k = bisect.bisect_left(lst, d)
        return vfoot[lst[k]] if k < len(lst) else frozenset()

    charged: List[FrozenSet[str]] = [frozenset()] * (n + 1)
    extra: List[FrozenSet[str]] = [frozenset()] * n
    cur: FrozenSet[str] = frozenset()
    for d in range(n):
        charged[d] = cur
        if d >= 1 and choices[d - 1] in runnable_sets[d]:
            ch = pending_vars(choices[d - 1], d)
            extra[d] = ch
            if choices[d] != choices[d - 1]:
                cur = cur | ch
    charged[n] = cur
    return charged, extra


def _cutter(bound: Bound, rec: RunRecord) -> Callable[[int, int], Optional[str]]:
    """The bound's cut predicate over one run.

    ``cut(depth, alt)`` says whether branching to ``alt`` at ``depth``
    would exceed the budget: ``"p"`` (preemption bound), ``"v"``
    (variable bound) or None.  It reads this run's arrays, which is
    valid because the branch shares its first ``depth`` choices with
    the run.  Variable bounding reads the run's trace, so a walk under
    ``bound.variables`` must record one.
    """
    choices, runnable_sets = rec.choices, rec.runnable_sets
    cum_p = _preemption_prefix_counts(choices, runnable_sets)
    if bound.variables is not None:
        vfoot = _name_footprints(rec.result.trace, len(choices))
        charged, extra = _variable_charges(choices, runnable_sets, vfoot)

    def cut(depth: int, alt: int) -> Optional[str]:
        preempt = (
            depth >= 1
            and alt != choices[depth - 1]
            and choices[depth - 1] in runnable_sets[depth]
        )
        if bound.preemptions is not None:
            if cum_p[depth] + (1 if preempt else 0) > bound.preemptions:
                return "p"
        if bound.variables is not None:
            c = charged[depth] | extra[depth] if preempt else charged[depth]
            if len(c) > bound.variables:
                return "v"
        return None

    return cut


def _flush_explore_obs(obs: Any, stats: PoolStats, extra: Optional[Dict[str, int]] = None) -> None:
    """Fold executor counters into a metrics registry (``explore.*``
    namespace; zero counts are skipped like the kernel's own flush
    does)."""
    if obs is None:
        return
    counts = {
        "explore.schedules": stats.runs,
        "explore.steps_executed": stats.executed_steps,
        "explore.replayed_choices": stats.replayed_choices,
    }
    if extra:
        counts.update(extra)
    obs.add_counters({k: v for k, v in counts.items() if v})


def explore(
    build: Callable[[Kernel], None],
    max_schedules: int = 10_000,
    max_steps: int = 20_000,
    seed: int = 0,
    observe: Optional[Callable[[Kernel], object]] = None,
    prefix: Sequence[int] = (),
    max_time: float = math.inf,
    obs: Any = None,
    bound: Optional[Bound] = None,
) -> Exploration:
    """Enumerate the program's schedule tree by DFS.

    ``build`` must be deterministic apart from scheduling (it receives a
    fresh, fixed-seed kernel per run).  Each scheduling point with ``k``
    runnable threads branches ``k`` ways; the walk visits every leaf once
    until ``max_schedules`` is exhausted.  ``observe(kernel)`` runs after
    each schedule and its value is stored on the outcome — use it to
    snapshot final shared state before the next run rebuilds everything.

    ``prefix`` restricts the walk to the subtree under a forced choice
    prefix: only alternatives at depth >= ``len(prefix)`` are branched.
    Subtrees of distinct same-length prefixes are disjoint by
    construction, which is what sharding builds on.

    ``obs`` (a :class:`repro.obs.MetricsRegistry`) collects ``explore.*``
    counters: schedules, steps executed, replayed choices, cuts.

    ``bound`` applies the composable cut strategies of :class:`Bound`:
    branches whose schedule would exceed the preemption or variable
    budget are cut (counted in ``Exploration.preemption_cuts`` /
    ``variable_cuts``) and the free descent beyond a forced prefix
    never preempts past the budget.  A large-enough bound explores the
    bit-identical outcome set in the identical order as ``bound=None``.
    """
    return _walk(
        build, max_schedules, max_steps, seed, observe, prefix, max_time, obs, bound
    )[0]


def _walk(
    build: Callable[[Kernel], None],
    max_schedules: float,
    max_steps: int,
    seed: int,
    observe: Optional[Callable[[Kernel], object]],
    prefix: Sequence[int],
    max_time: float,
    obs: Any,
    bound: Optional[Bound],
    split: int = sys.maxsize,
) -> Tuple[Exploration, List[Tuple[int, ...]]]:
    """The DFS of :func:`explore`, branching only at depths below ``split``.

    Runs that make fewer than ``split`` choices are the walk's outcomes;
    every other run's first ``split`` choices are a shard, and a branch
    that reaches ``split`` is one without running it.  Returns the
    exploration and the sorted shards (none at the default ``split``).
    """
    if bound is not None and not bound.active:
        bound = None
    want_vars = bound is not None and bound.variables is not None
    pool = StatelessPool(
        build,
        seed=seed,
        max_steps=max_steps,
        max_time=max_time,
        observe=observe,
        bound=bound,
        record_trace=want_vars,
    )
    pcuts = vcuts = 0
    try:
        outcomes: List[Outcome] = []
        shards: List[Tuple[int, ...]] = []
        # Lazy branches (module docstring); the walk's own prefix has
        # no alt.
        stack: List[Tuple[Sequence[int], int, Optional[int]]] = [
            (prefix, len(prefix), None)
        ]
        complete = True
        while stack:
            if len(outcomes) >= max_schedules:
                complete = False
                break
            src, depth, alt = stack.pop()
            prefix = list(src[:depth])
            if alt is not None:
                prefix.append(alt)
            if len(prefix) == split:
                shards.append(tuple(prefix))
                continue
            rec = pool.run(prefix)
            choices = rec.choices
            cut = _cutter(bound, rec) if bound is not None else None
            if want_vars:
                # The trace exists only for the variable footprints;
                # strip it so bounded output matches unbounded exactly.
                rec.result = dataclasses.replace(rec.result, trace=None)
            if len(choices) < split:
                outcomes.append(_outcome(rec))
            else:
                shards.append(choices[:split])
            # Unexplored siblings: at each depth at or beyond this
            # prefix, every runnable tid other than the chosen one
            # starts a branch nobody has visited yet.  Push
            # shallow-first so the DFS pops the deepest branch next
            # (keeps the stack small).
            for depth in range(len(prefix), min(len(choices), split)):
                chosen = choices[depth]
                for alt in rec.runnable_sets[depth]:
                    if alt == chosen:
                        continue
                    verdict = cut(depth, alt) if cut is not None else None
                    if verdict is None:
                        stack.append((choices, depth, alt))
                    elif verdict == "p":
                        pcuts += 1
                    else:
                        vcuts += 1
        shards.sort()
        return (
            Exploration(
                outcomes=outcomes,
                complete=complete,
                preemption_cuts=pcuts,
                variable_cuts=vcuts,
            ),
            shards,
        )
    finally:
        _flush_explore_obs(
            obs,
            pool.stats,
            {"explore.preemption_cuts": pcuts, "explore.variable_cuts": vcuts},
        )


# ---------------------------------------------------------------------------
# Sharding: the prefix frontier + deduplicated merge
# ---------------------------------------------------------------------------


def _frontier(
    build: Callable[[Kernel], None],
    shard_depth: int,
    max_steps: int,
    seed: int,
    observe: Optional[Callable[[Kernel], object]],
    bound: Optional[Bound] = None,
) -> Tuple[List[Tuple[int, ...]], List[Outcome], Tuple[int, int]]:
    """Enumerate all choice prefixes of length ``shard_depth``.

    This is :func:`explore`'s walk, uncapped and branched only above the
    shard depth.  Runs that terminate before making ``shard_depth``
    choices are single-leaf subtrees: they are returned as finished
    outcomes rather than shards (a shard DFS would just re-run them).
    Returns ``(shards, direct outcomes, (preemption_cuts,
    variable_cuts))``, the shards in lexicographic order.

    Because the frontier branches at *every* runnable tid above the
    shard depth (bar what a ``bound`` cuts), it is exhaustive there —
    which is what makes restricting per-shard DPOR backtracking to
    depths >= ``shard_depth`` sound in
    :func:`repro.sim.dpor.explore_dpor_sharded`.
    """
    ex, shards = _walk(
        build, math.inf, max_steps, seed, observe, (), math.inf, None, bound,
        split=shard_depth,
    )
    return shards, ex.outcomes, (ex.preemption_cuts, ex.variable_cuts)


def merge_shards(shards: Sequence[Exploration]) -> Exploration:
    """Combine per-shard explorations into one canonical result.

    Enforces the sharding contract in code: a schedule (choice tuple)
    appearing in more than one shard means the shards were not disjoint —
    the merge raises rather than silently double-counting, because every
    probability computed from the exploration divides by the outcome
    count.  Outcomes are ordered lexicographically by choice tuple, a
    canonical order independent of shard completion order.
    """
    seen = set()
    merged: List[Outcome] = []
    for shard in shards:
        for outcome in shard.outcomes:
            if outcome.choices in seen:
                raise ValueError(
                    f"duplicate schedule across shards: {outcome.choices}"
                )
            seen.add(outcome.choices)
            merged.append(outcome)
    merged.sort(key=lambda o: o.choices)
    return Exploration(
        outcomes=merged,
        complete=all(s.complete for s in shards),
        preemption_cuts=sum(s.preemption_cuts for s in shards),
        variable_cuts=sum(s.variable_cuts for s in shards),
    )
