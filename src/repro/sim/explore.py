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
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.pool import FORKS, Pool

from .kernel import Kernel, RunResult
from .snapshot import Bound, PoolStats, StatelessPool, _DFSScheduler, count_preemptions

__all__ = [
    "Bound",
    "Outcome",
    "Exploration",
    "count_preemptions",
    "explore",
    "explore_sharded",
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


# ---------------------------------------------------------------------------
# Bounded search: cut-strategy helpers shared by explore() and the DPOR loop
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


def _name_footprints(trace: Sequence[Any], n_choices: int) -> List[FrozenSet[str]]:
    """Per-scheduling-point sets of shared-object keys touched by the
    chosen transition.  Tolerates every op (including timed SLEEPs,
    which carry no object) since plain ``explore`` accepts timed apps."""
    foot: List[set] = [set() for _ in range(n_choices)]
    for ev in trace:
        idx = ev.step - 1
        if 0 <= idx < n_choices and ev.obj is not None:
            foot[idx].add(_var_key(ev.obj))
    return [frozenset(s) for s in foot]


def _var_footprint_extras(kernel: Kernel, sched: _DFSScheduler) -> dict:
    """Pool postprocess hook: name-keyed footprints for variable
    bounding (computed in-process — the trace holds live objects)."""
    return {"vfoot": _name_footprints(kernel.trace, len(sched.choices))}


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


def _cut_verdict(
    bound: Bound,
    cum_p: Sequence[int],
    charges: Optional[Tuple[List[FrozenSet[str]], List[FrozenSet[str]]]],
    choices: Sequence[int],
    runnable_sets: Sequence[Tuple[int, ...]],
    depth: int,
    alt: int,
) -> Optional[str]:
    """Would branching to ``alt`` at ``depth`` exceed the budget?

    Returns ``"p"`` (preemption bound), ``"v"`` (variable bound) or
    None.  All arrays describe the *current* run, which is valid because
    the branch shares its first ``depth`` choices with it.
    """
    preempt = (
        depth >= 1
        and alt != choices[depth - 1]
        and choices[depth - 1] in runnable_sets[depth]
    )
    if bound.preemptions is not None:
        if cum_p[depth] + (1 if preempt else 0) > bound.preemptions:
            return "p"
    if bound.variables is not None and charges is not None:
        charged, extra = charges
        c = charged[depth]
        if preempt:
            c = c | extra[depth]
        if len(c) > bound.variables:
            return "v"
    return None


def _flush_explore_obs(obs: Any, stats: PoolStats, extra: Optional[Dict[str, int]] = None) -> None:
    """Fold executor counters into an ``ObsContext`` metrics registry
    (``explore.*`` namespace; zero counts are skipped like the kernel's
    own flush does)."""
    if obs is None:
        return
    counts = {
        "explore.schedules": stats.runs,
        "explore.steps_executed": stats.executed_steps,
        "explore.replayed_choices": stats.replayed_choices,
    }
    if extra:
        counts.update(extra)
    obs.metrics.add_counters({k: v for k, v in counts.items() if v})


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
    This is the sharding primitive of :func:`explore_sharded` — subtrees
    of distinct same-length prefixes are disjoint by construction.

    ``obs`` (an :class:`repro.obs.ObsContext`) collects ``explore.*``
    counters: schedules, steps executed, replayed choices, cuts.

    ``bound`` applies the composable cut strategies of :class:`Bound`:
    branches whose schedule would exceed the preemption or variable
    budget are cut (counted in ``Exploration.preemption_cuts`` /
    ``variable_cuts``) and the free descent beyond a forced prefix
    never preempts past the budget.  A large-enough bound explores the
    bit-identical outcome set in the identical order as ``bound=None``.
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
        postprocess=_var_footprint_extras if want_vars else None,
    )
    pcuts = vcuts = 0
    try:
        outcomes: List[Outcome] = []
        stack: List[List[int]] = [list(prefix)]
        complete = True
        while stack:
            if len(outcomes) >= max_schedules:
                complete = False
                break
            prefix = stack.pop()
            rec = pool.run(prefix)
            result = rec.result
            if want_vars and result.trace is not None:
                # The trace exists only to compute variable footprints;
                # strip it so bounded output matches unbounded exactly.
                result = dataclasses.replace(result, trace=None)
            outcomes.append(
                Outcome(
                    rec.choices,
                    result,
                    rec.observed,
                    _schedule_weight(rec.runnable_sets),
                    rec.preemptions,
                )
            )
            # Unexplored siblings: at each depth at or beyond this
            # prefix, every runnable tid other than the chosen one
            # starts a branch nobody has visited yet (unbounded descent
            # always picks the minimum, so "other than" reduces to
            # "greater than" there).  Push shallow-first so the DFS
            # pops the deepest branch next (keeps the stack small).
            if bound is None:
                for depth in range(len(prefix), len(rec.choices)):
                    chosen = rec.choices[depth]
                    for alt in rec.runnable_sets[depth]:
                        if alt > chosen:
                            stack.append(list(rec.choices[:depth]) + [alt])
            else:
                cum_p = _preemption_prefix_counts(rec.choices, rec.runnable_sets)
                charges = (
                    _variable_charges(
                        rec.choices, rec.runnable_sets, rec.extras["vfoot"]
                    )
                    if want_vars
                    else None
                )
                for depth in range(len(prefix), len(rec.choices)):
                    chosen = rec.choices[depth]
                    for alt in rec.runnable_sets[depth]:
                        if alt == chosen:
                            continue
                        verdict = _cut_verdict(
                            bound,
                            cum_p,
                            charges,
                            rec.choices,
                            rec.runnable_sets,
                            depth,
                            alt,
                        )
                        if verdict == "p":
                            pcuts += 1
                        elif verdict == "v":
                            vcuts += 1
                        else:
                            stack.append(list(rec.choices[:depth]) + [alt])
        return Exploration(
            outcomes=outcomes,
            complete=complete,
            preemption_cuts=pcuts,
            variable_cuts=vcuts,
        )
    finally:
        _flush_explore_obs(
            obs,
            pool.stats,
            {"explore.preemption_cuts": pcuts, "explore.variable_cuts": vcuts},
        )


# ---------------------------------------------------------------------------
# Parallel exploration: disjoint prefix shards + deduplicated merge
# ---------------------------------------------------------------------------


def _sanitize_outcome(outcome: Outcome) -> Outcome:
    """Make an outcome process-portable and worker-count independent.

    ``RunResult.threads`` holds live generators (unpicklable) and
    ``deadlock`` an exception whose custom constructor breaks pickle
    round-trips; both are stripped.  Everything tests and analyses key on
    (choices, scalar result fields, trace, breakpoint stats, observed
    snapshot) survives intact.  Serial and process shard execution both
    go through this, so ``explore_sharded`` output does not depend on the
    worker count.
    """
    res = outcome.result
    if res.threads or res.deadlock is not None:
        res = dataclasses.replace(res, threads=[], deadlock=None)
    return Outcome(
        outcome.choices, res, outcome.observed, outcome.weight, outcome.preemptions
    )


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


def _frontier(
    build: Callable[[Kernel], None],
    shard_depth: int,
    max_steps: int,
    seed: int,
    observe: Optional[Callable[[Kernel], object]],
    bound: Optional[Bound] = None,
) -> Tuple[List[List[int]], List[Outcome], Tuple[int, int]]:
    """Enumerate all choice prefixes of length ``shard_depth``.

    Runs that terminate before making ``shard_depth`` choices are
    single-leaf subtrees: they are returned as finished outcomes rather
    than shards (a shard DFS would just re-run them).

    Because the frontier branches at *every* runnable tid above the
    shard depth, it is exhaustive there — which is also what makes
    restricting per-shard DPOR backtracking to depths >= ``shard_depth``
    sound in :func:`repro.sim.dpor.explore_dpor_sharded`.

    With a ``bound``, over-budget prefix expansions are cut exactly like
    :func:`explore` cuts branches (the descent-chosen continuation is
    always kept); returns the ``(preemption_cuts, variable_cuts)`` pair
    as the third element.
    """
    if bound is not None and not bound.active:
        bound = None
    want_vars = bound is not None and bound.variables is not None
    prefixes: List[List[int]] = [[]]
    direct: List[Outcome] = []
    pcuts = vcuts = 0
    for _ in range(shard_depth):
        nxt: List[List[int]] = []
        for p in prefixes:
            sched = _DFSScheduler(p, bound=bound)
            kernel = Kernel(scheduler=sched, seed=seed, record_trace=want_vars)
            build(kernel)
            result = kernel.run(max_steps=max_steps)
            if len(sched.choices) <= len(p):
                observed = observe(kernel) if observe is not None else None
                if want_vars and result.trace is not None:
                    result = dataclasses.replace(result, trace=None)
                direct.append(
                    Outcome(
                        tuple(sched.choices),
                        result,
                        observed,
                        _schedule_weight(sched.runnable_sets),
                        sched.preemptions,
                    )
                )
            elif bound is None:
                for tid in sched.runnable_sets[len(p)]:
                    nxt.append(p + [tid])
            else:
                depth = len(p)
                chosen = sched.choices[depth]
                cum_p = _preemption_prefix_counts(sched.choices, sched.runnable_sets)
                charges = (
                    _variable_charges(
                        sched.choices,
                        sched.runnable_sets,
                        _name_footprints(kernel.trace, len(sched.choices)),
                    )
                    if want_vars
                    else None
                )
                for tid in sched.runnable_sets[depth]:
                    if tid == chosen:
                        nxt.append(p + [tid])
                        continue
                    verdict = _cut_verdict(
                        bound,
                        cum_p,
                        charges,
                        sched.choices,
                        sched.runnable_sets,
                        depth,
                        tid,
                    )
                    if verdict == "p":
                        pcuts += 1
                    elif verdict == "v":
                        vcuts += 1
                    else:
                        nxt.append(p + [tid])
        prefixes = nxt
        if not prefixes:
            break
    return prefixes, direct, (pcuts, vcuts)


def _map_shards(
    task: Callable[[int, Any], Any],
    shards: Sequence[Any],
    workers: Optional[int],
    fault_hook: Optional[Callable[[int, int], None]] = None,
) -> List[Any]:
    """``task(idx, shard)`` for every shard, in shard order.

    With ``workers > 1`` (and fork, since ``task`` is a closure the
    workers inherit) the shards run on a :class:`repro.pool.Pool` with no
    retries; a shard that fails there is recomputed here, so results are
    a function of ``(task, shards)`` alone, never of worker count or
    faults.  ``fault_hook(shard_idx, attempt)`` runs in the worker before
    each shard (the tests' crash-injection point).
    """
    results: Dict[int, Any] = {}
    if workers is not None and workers > 1 and len(shards) > 1 and FORKS:

        def run(idx: int, attempt: int) -> Any:
            if fault_hook is not None:
                fault_hook(idx, attempt)
            return task(idx, shards[idx])

        with Pool(run, min(workers, len(shards)), name="repro-shards") as pool:
            results = {r.task: r.value for r in pool.map(range(len(shards))) if r.ok}
    return [
        results[idx] if idx in results else task(idx, shard)
        for idx, shard in enumerate(shards)
    ]


def explore_sharded(
    build: Callable[[Kernel], None],
    max_schedules: int = 10_000,
    max_steps: int = 20_000,
    seed: int = 0,
    observe: Optional[Callable[[Kernel], object]] = None,
    workers: Optional[int] = None,
    shard_depth: int = 2,
    bound: Optional[Bound] = None,
) -> Exploration:
    """Schedule-tree enumeration over disjoint prefix shards.

    The tree is split at depth ``shard_depth`` into one shard per
    surviving prefix; each shard is a completely independent stateless
    DFS (disjoint by construction, enforced at merge time by
    :func:`merge_shards`).  With ``workers > 1`` and a ``fork`` start
    method available the shards run across worker processes — ``build``
    and ``observe`` may be ordinary closures because fork inherits them;
    per-outcome data returned across the process boundary must be
    picklable.  A shard whose worker dies is re-explored serially in the
    parent: the walk degrades, it does not abort.

    ``max_schedules`` bounds each shard's walk (a capped exploration may
    therefore visit a different subset of leaves than capped serial
    :func:`explore`; uncapped results cover the identical full set).
    Outcomes are returned in lexicographic choice order, a canonical
    order independent of worker count and timing.
    """
    shards, direct, (front_p, front_v) = _frontier(
        build, shard_depth, max_steps, seed, observe, bound
    )
    direct = [_sanitize_outcome(o) for o in direct]

    def task(idx: int, prefix: List[int]) -> Exploration:
        ex = explore(
            build,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            observe=observe,
            prefix=prefix,
            bound=bound,
        )
        return Exploration(
            outcomes=[_sanitize_outcome(o) for o in ex.outcomes],
            complete=ex.complete,
            preemption_cuts=ex.preemption_cuts,
            variable_cuts=ex.variable_cuts,
        )

    shard_results = _map_shards(task, shards, workers)
    shard_results.append(Exploration(outcomes=direct, complete=True))
    merged = merge_shards(shard_results)
    merged.preemption_cuts += front_p
    merged.variable_cuts += front_v
    return merged
