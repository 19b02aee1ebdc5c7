"""Dynamic partial-order reduction (Flanagan & Godefroid style).

Plain DFS exploration (:mod:`repro.sim.explore`) branches at *every*
scheduling point, so independent operations are permuted uselessly — the
tree is exponential in total steps.  DPOR observes, after each executed
schedule, which steps were actually *dependent* (two different threads
touching the same object, at least one effectful) and adds backtracking
branches only where reordering dependent pairs could produce a different
behaviour.  Every Mazurkiewicz trace (equivalence class of schedules up
to commuting independent steps) is still visited at least once.

The explorer is the classical explicit-path DFS: one frame per depth of
the current schedule holds the tids already explored from that state,
the backtrack set race analysis filled in, and (optionally) the state's
sleep set.  After each run the race analysis adds backtrack points to
frames along the current path only; the search then resumes from the
deepest frame with an unexplored backtrack tid.  Because deeper frames
are discarded on backtracking, a sibling's subtree is fully explored
before the next sibling starts — the traversal order sleep-set
soundness depends on.

Dependence here is object-based and conservative:

* two accesses to the same :class:`SharedCell` with at least one write;
* any two operations on the same lock / condition / semaphore / barrier /
  event;
* breakpoint operations on the same name.

When a dependent later step's thread was *not* runnable at the earlier
point, the standard conservative fallback adds all runnable threads
there.  The result is exact for the programs this explorer targets (no
timers — timed operations make steps non-commutable with the clock and
are rejected).

Two orthogonal extensions on top of the base algorithm:

* ``sleep_sets=True`` — Godefroid sleep sets: when a sibling ``t`` has
  been fully explored from a state, ``t`` enters the *sleep set* of the
  next sibling's subtree and stays there while execution only performs
  steps independent of ``t``'s pending transition (waking at the first
  dependent one).  A run whose free descent schedules a sleeping tid is
  *sleep-set blocked*: everything below that step is a commutation of a
  subtree explored earlier, so the outcome is dropped and the walk is
  redirected; :class:`DporStats.sleep_set_prunes` counts these cuts.
  Blocked runs are still *executed* and race-analyzed in full — DPOR
  discovers backtrack points lazily from executed runs, so skipping a
  covered subtree without running anything would also skip the race
  analysis only its runs perform (races whose reversals reach *outside*
  the covered subtree), losing behaviours.  Sleep sets therefore reduce
  the number of *schedules counted*, never the set of distinct
  behaviours reached — the differential battery asserts behaviour-set
  equality against plain DPOR.
* :func:`explore_dpor_sharded` — the schedule tree is split at a fixed
  depth into disjoint-prefix shards that run DPOR independently across
  forked workers.  The frontier is the plain walk of
  :func:`repro.sim.explore.explore`, branched only above the shard
  depth.  Because it branches at *every* runnable tid there, any
  backtrack a shard would need above that depth already exists as a
  sibling shard — so per-shard backtracking can be soundly restricted
  to depths inside the shard.  The merged result is bit-identical for
  any worker count (crashed workers' shards are recomputed serially in
  the parent), though the exhaustive frontier may execute more
  schedules than serial :func:`explore_dpor` would.

Each run's step footprints are read off its trace's op, object and
step columns (:meth:`~repro.sim.trace.Trace.columns`, no event objects
built) after :meth:`~repro.sim.snapshot.StatelessPool.run` returns: the
trace holds the touched objects, so their ``id`` keys stay valid, and
every footprint comparison the walk makes is between footprints of one
single run (pending transitions at a state are state-determined, and
the current run always passes through every live frame's state).

The race analysis (:func:`_races`) finds each step's last dependent
step of another thread through a per-object index instead of scanning
back over the run: per object it keeps the latest step and the latest
step by a different thread, once over all accesses and once over
writes and syncs, filled only with live frames' steps.  A run of L
steps whose footprints hold F entries in all costs O(L + F) for its
footprints and races, where the backward scan made O(L²) dependence
checks — the difference between seconds and minutes once a run makes
thousands of choices (the large family at full size).
"""

from __future__ import annotations

import bisect
import dataclasses
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.pool import FORKS, Pool

from .explore import (
    Bound,
    Exploration,
    Outcome,
    _cutter,
    _flush_explore_obs,
    _frontier,
    _outcome,
    merge_shards,
)
from .kernel import Kernel
from .snapshot import StatelessPool
from .trace import OP

__all__ = ["explore_dpor", "explore_dpor_sharded", "DporStats"]

#: Ops that conflict with any other op on the same object.
_SYNC_OPS = {
    OP.ACQUIRE,
    OP.ACQUIRE_REQ,
    OP.RELEASE,
    OP.WAIT_ENTER,
    OP.WAIT_EXIT,
    OP.NOTIFY,
    OP.SEM_P,
    OP.SEM_V,
    OP.BARRIER,
    OP.EVENT_WAIT,
    OP.EVENT_SET,
    OP.TRIGGER_POSTPONE,
    OP.TRIGGER_HIT,
}
_TIMED_OPS = {OP.SLEEP}
#: Footprint class of each op a footprint records: 'w' (write), 'r'
#: (read) or 's' (sync).
_OP_CLASS = {OP.WRITE: "w", OP.READ: "r", **dict.fromkeys(_SYNC_OPS, "s")}


@dataclasses.dataclass
class DporStats:
    """Counters describing one DPOR exploration walk."""
    schedules: int
    branches_added: int
    conservative_fallbacks: int
    #: Sleep-set-blocked runs: executed for their race analysis but
    #: proven redundant (their subtree is a commutation of an explored
    #: one), so their outcomes are dropped from the schedule count.
    sleep_set_prunes: int = 0
    #: Kernel steps actually executed across all runs — the
    #: denominator of the work saved.
    executed_steps: int = 0
    #: Backtrack branches cut by the preemption bound (0 unbounded).
    preemption_cuts: int = 0
    #: Backtrack branches cut by the variable bound (0 unbounded).
    variable_cuts: int = 0


def _step_footprints(trace, n_choices: int) -> List[Set[Tuple[int, str]]]:
    """Per choice index: the set of (object id, class) touched, where
    class is 'w' (write), 'r' (read) or 's' (sync)."""
    ops, objs, steps = trace.columns("op", "obj", "step")
    if not _TIMED_OPS.isdisjoint(ops):
        raise ValueError(
            "DPOR exploration does not support timed operations "
            "(Sleep/timeouts); use explore() instead"
        )
    foot: List[Set[Tuple[int, str]]] = [set() for _ in range(n_choices)]
    for op, obj, step in zip(ops, objs, steps):
        cls = _OP_CLASS.get(op)
        idx = step - 1  # pick k executes as kernel step k+1
        if cls is not None and obj is not None and 0 <= idx < n_choices:
            foot[idx].add((id(obj), cls))
    return foot


def _dependent(a: Set[Tuple[int, str]], b: Set[Tuple[int, str]]) -> bool:
    for obj_a, cls_a in a:
        for obj_b, cls_b in b:
            if obj_a != obj_b:
                continue
            if cls_a == "s" or cls_b == "s":
                return True
            if cls_a == "w" or cls_b == "w":
                return True
    return False


def _races(
    choices: Sequence[int],
    runnables: Sequence[Tuple[int, ...]],
    foot: Sequence[Set[Tuple[int, str]]],
    base: int,
    n_frames: int,
) -> List[Tuple[int, Tuple[int, ...], bool]]:
    """The backtrack points one run's race analysis adds, in step order.

    For each step ``j`` past ``base``, the race is with the *last*
    earlier step ``i`` of another thread that is dependent with it
    (Flanagan-Godefroid), searched only among live frames,
    ``base <= i < base + n_frames``.  Each race point is ``(i, alts,
    fallback)``: ``alts`` is ``(tid_j,)``, or every other tid runnable
    at ``i`` when ``tid_j`` was not (the conservative ``fallback``).

    The last dependent step comes from an index, not a backward scan.
    Per object, ``latest`` holds ``[latest step, its tid, latest step
    by a different tid]`` over every access and ``latest_ws`` the same
    over writes and syncs; a read races only with a write or sync, a
    write or sync with any access.  For tid ``t`` the last step of
    another thread on an object is the latest step if its tid is not
    ``t``, else the latest step by a different tid.  Step ``j - 1``
    enters the index just before step ``j`` is looked up, and only if
    it is a live frame, so a run costs O(footprint) instead of O(L²)
    dependence checks.
    """
    last = base + n_frames - 1
    latest: Dict[int, List[int]] = {}
    latest_ws: Dict[int, List[int]] = {}
    races: List[Tuple[int, Tuple[int, ...], bool]] = []
    for j in range(base + 1, len(choices)):
        i = j - 1
        if i <= last:
            t = choices[i]
            for obj, cls in foot[i]:
                for index in (latest, latest_ws) if cls != "r" else (latest,):
                    e = index.get(obj)
                    if e is None:
                        index[obj] = [i, t, -1]
                    elif e[1] == t:
                        e[0] = i
                    else:
                        e[2] = e[0]
                        e[0] = i
                        e[1] = t
        tid_j = choices[j]
        hit = -1
        for obj, cls in foot[j]:
            e = (latest if cls != "r" else latest_ws).get(obj)
            if e is not None:
                k = e[0] if e[1] != tid_j else e[2]
                if k > hit:
                    hit = k
        if hit < 0:
            continue
        if tid_j in runnables[hit]:
            races.append((hit, (tid_j,), False))
        else:
            chosen = choices[hit]
            races.append((hit, tuple(a for a in runnables[hit] if a != chosen), True))
    return races


@dataclasses.dataclass
class _Frame:
    """DFS state for one depth of the current path.

    ``sleep`` is the state's sleep set, fixed when the frame is created
    (entering the state); already-explored siblings reach descendants
    through the child-sleep computation, not by mutating this."""

    chosen: int
    executed: Set[int]
    backtrack: Set[int]
    sleep: FrozenSet[int]


def explore_dpor(
    build: Callable[[Kernel], None],
    max_schedules: int = 10_000,
    max_steps: int = 20_000,
    seed: int = 0,
    observe: Optional[Callable[[Kernel], object]] = None,
    *,
    sleep_sets: bool = False,
    prefix: Sequence[int] = (),
    obs: Any = None,
    bound: Optional[Bound] = None,
) -> Tuple[Exploration, DporStats]:
    """DPOR-reduced schedule exploration.

    Same contract as :func:`repro.sim.explore.explore` (deterministic
    ``build``, fresh kernel per run), plus the reduction statistics.
    Programs using ``Sleep`` or timeouts are rejected — wall-clock order
    does not commute.

    ``prefix`` restricts both execution *and backtracking* to the
    subtree under the forced prefix; it is only sound when every sibling
    alternative above ``len(prefix)`` is explored elsewhere, which is
    exactly what :func:`explore_dpor_sharded`'s exhaustive frontier
    guarantees.  ``sleep_sets`` is documented in the module docstring;
    ``obs`` collects the ``explore.*`` counters.

    ``bound`` (a :class:`~repro.sim.explore.Bound`) cuts over-budget
    backtrack branches before they are taken — counted per strategy in
    :class:`DporStats` — and caps preemptions in the free descent; a
    large-enough bound is bit-identical to ``bound=None``.
    """
    if bound is not None and not bound.active:
        bound = None
    base = len(prefix)
    pool = StatelessPool(
        build,
        seed=seed,
        max_steps=max_steps,
        record_trace=True,
        observe=observe,
        bound=bound,
    )
    branches_added = 0
    fallbacks = 0
    prunes = 0
    pcuts = vcuts = 0
    try:
        outcomes: List[Outcome] = []
        frames: List[_Frame] = []  # frames[k] is the state at depth base+k
        complete = True
        next_forced: List[int] = list(prefix)
        next_sleep: FrozenSet[int] = frozenset()
        divergence = base  # depth of the first frame the next run creates

        while True:
            if len(outcomes) >= max_schedules:
                complete = False
                break

            rec = pool.run(next_forced)
            choices = list(rec.choices)
            runnables = rec.runnable_sets
            n = len(choices)
            foot = _step_footprints(rec.result.trace, n)
            cut = _cutter(bound, rec) if bound is not None else None
            outcomes.append(_outcome(rec))

            occ: Dict[int, List[int]] = {}
            for d, t in enumerate(choices):
                occ.setdefault(t, []).append(d)

            def pending(t: int, d: int, occ=occ, foot=foot):
                """Footprint of tid t's pending transition at depth d: a
                thread's generator is parked at one syscall, so whatever
                it executes next (its first occurrence at or after d) is
                what it would execute if scheduled at d.  None when the
                run never schedules t again (conservative)."""
                lst = occ.get(t)
                if not lst:
                    return None
                k = bisect.bisect_left(lst, d)
                return foot[lst[k]] if k < len(lst) else None

            # Materialize frames for the fresh suffix.  The child sleep
            # chain is the classical propagation: a sleeper survives a
            # step only if its pending transition is provably
            # independent of it; the executed tid itself always wakes.
            #
            # The kernel's free descent picks min-tid blindly, so it can
            # schedule a *sleeping* thread — a sleep-set-blocked run:
            # everything below that step is a commutation of an
            # already-explored subtree.  Cut the path there, don't
            # record the outcome, and redirect the search to the
            # smallest awake enabled tid at that state (if none, the
            # state is a fully covered leaf and the frame pops empty).
            del frames[divergence - base:]
            cur_sleep = next_sleep
            ssb: Optional[int] = None
            for depth in range(divergence, n):
                c = choices[depth]
                if sleep_sets and c in cur_sleep:
                    ssb = depth
                    enabled = set(runnables[depth])
                    awake = enabled - cur_sleep
                    frames.append(
                        _Frame(
                            chosen=c,
                            executed=(enabled & cur_sleep) | {c},
                            backtrack={min(awake)} if awake else set(),
                            sleep=cur_sleep,
                        )
                    )
                    prunes += 1
                    outcomes.pop()
                    break
                frames.append(
                    _Frame(
                        chosen=c,
                        executed={c},
                        backtrack=set(),
                        sleep=cur_sleep,
                    )
                )
                if sleep_sets and cur_sleep:
                    fc = foot[depth]
                    nxt: Set[int] = set()
                    for x in cur_sleep:
                        if x == c:
                            continue
                        fx = pending(x, depth + 1)
                        if fx is not None and not _dependent(fx, fc):
                            nxt.add(x)
                    cur_sleep = frozenset(nxt)
                else:
                    cur_sleep = frozenset()

            # Race analysis: the race with the *last* dependent
            # transition of another thread (Flanagan-Godefroid) —
            # reordering step j before step i may expose a different
            # behaviour, so tid_j joins the backtrack set of frame i.
            # Backtracking stays at depths >= base: below it, sibling
            # shards own the alternatives.  The whole run is analyzed
            # even past a sleep-set cut — the run executed either way,
            # and races seen only beyond the cut can demand reversals
            # at frames above it that no other run will request.  Race
            # points below the cut have no frame; clamping the search
            # to live frames lands the backtrack on an earlier
            # dependent transition instead, which only widens the
            # exploration (conservative, never unsound).
            for i, alts, fallback in _races(
                choices, runnables, foot, base, len(frames)
            ):
                fallbacks += fallback
                fr = frames[i - base]
                for alt in alts:
                    if alt not in fr.executed and alt not in fr.backtrack:
                        fr.backtrack.add(alt)
                        branches_added += 1

            # Resume from the deepest frame with unexplored backtrack
            # tids; exhausted frames are discarded, so by the time a
            # sibling is taken the previous sibling's subtree is done.
            selected = False
            while frames:
                fr = frames[-1]
                cand = fr.backtrack - fr.executed
                if not cand:
                    frames.pop()
                    continue
                d = base + len(frames) - 1
                t = min(cand)
                fr.executed.add(t)
                # Bounded search: a backtrack branch whose schedule
                # would exceed the budget is cut here, before it runs.
                # The frame lies on the current run's path, so the
                # current run's prefix-count/charge arrays describe the
                # branch's shared prefix exactly.
                if cut is not None:
                    verdict = cut(d, t)
                    if verdict == "p":
                        pcuts += 1
                        continue
                    if verdict == "v":
                        vcuts += 1
                        continue
                # A backtrack tid that is asleep here is still taken:
                # its subtree is behaviour-covered by an explored
                # sibling, but only *running* it performs the race
                # analysis that can add fresh (awake) tids to this
                # frame's own backtrack set.  Its runs die fast — the
                # descent below it is deep in sleeping territory and
                # gets cut — and any duplicate outcomes are harmless
                # to the behaviour set.
                child: Set[int] = set()
                if sleep_sets:
                    ft = pending(t, d)
                    if ft is not None:
                        for x in (fr.sleep | fr.executed) - {t}:
                            fx = pending(x, d)
                            if fx is not None and not _dependent(fx, ft):
                                child.add(x)
                fr.chosen = t
                next_forced = list(prefix) + [f.chosen for f in frames]
                next_sleep = frozenset(child)
                divergence = d + 1
                selected = True
                break
            if not selected:
                break

        stats = DporStats(
            schedules=len(outcomes),
            branches_added=branches_added,
            conservative_fallbacks=fallbacks,
            sleep_set_prunes=prunes,
            executed_steps=pool.stats.executed_steps,
            preemption_cuts=pcuts,
            variable_cuts=vcuts,
        )
        return (
            Exploration(
                outcomes=outcomes,
                complete=complete,
                preemption_cuts=pcuts,
                variable_cuts=vcuts,
            ),
            stats,
        )
    finally:
        _flush_explore_obs(
            obs,
            pool.stats,
            {
                "explore.dpor.branches_added": branches_added,
                "explore.dpor.conservative_fallbacks": fallbacks,
                "explore.dpor.sleep_set_prunes": prunes,
                "explore.dpor.preemption_cuts": pcuts,
                "explore.dpor.variable_cuts": vcuts,
            },
        )


def _strip_outcome(outcome: Outcome) -> Outcome:
    """Make an outcome process-portable and worker-count independent.

    ``deadlock`` holds an exception whose custom constructor breaks
    pickle round-trips; sharded DPOR drops it on every path, worker and
    serial alike (:func:`~repro.sim.explore._outcome` already dropped the
    threads and the trace).  Everything analyses key on (choices, scalar
    result fields, breakpoint stats, observed snapshot) survives intact.
    """
    result = dataclasses.replace(outcome.result, deadlock=None)
    return dataclasses.replace(outcome, result=result)


def explore_dpor_sharded(
    build: Callable[[Kernel], None],
    max_schedules: int = 10_000,
    max_steps: int = 20_000,
    seed: int = 0,
    observe: Optional[Callable[[Kernel], object]] = None,
    workers: Optional[int] = None,
    shard_depth: int = 2,
    *,
    sleep_sets: bool = False,
    fault_hook: Optional[Callable[[int, int], None]] = None,
    bound: Optional[Bound] = None,
    obs: Any = None,
) -> Tuple[Exploration, DporStats]:
    """DPOR over disjoint prefix shards across forked workers.

    Splits the schedule tree at ``shard_depth`` with the exhaustive
    frontier (the plain walk of :func:`repro.sim.explore.explore`,
    branched only above that depth), runs :func:`explore_dpor`
    restricted to each shard's subtree, and merges with the
    duplicate-rejecting canonical
    :func:`repro.sim.explore.merge_shards`.  Soundness of restricting
    per-shard backtracking to depths >= ``shard_depth``: the frontier
    already branches at *every* runnable tid above that depth, so any
    backtrack point a shard would add there exists as a sibling shard by
    construction.

    Guarantees: the merged ``Exploration``, the summed
    :class:`DporStats` and the ``explore.*`` counters flushed into
    ``obs`` (the shard walks' sum; frontier runs are left out, as they
    are from ``DporStats.executed_steps``) are bit-identical for any
    ``workers`` value, including 0/None (serial) and including workers
    that crash mid-shard.  With ``workers > 1`` and fork (the shard
    task is a closure the workers inherit) shards run on a
    :class:`repro.pool.Pool` with no retries, and a failed shard is
    recomputed serially in the parent (``fault_hook(shard_idx,
    attempt)`` runs in the worker before each shard; it is the
    crash-injection point the tests use).  Relative to serial
    :func:`explore_dpor` the exhaustive frontier may execute *more*
    schedules (sharding overhead); per-behaviour coverage is the same.

    ``max_schedules`` bounds each shard's walk, so a capped sharded
    exploration can visit more schedules than a capped serial one.
    """
    shards, direct, (front_p, front_v) = _frontier(
        build, shard_depth, max_steps, seed, observe, bound
    )

    def task(shard_prefix: Tuple[int, ...]):
        shard_obs = None
        if obs is not None:
            from repro.obs.metrics import MetricsRegistry

            shard_obs = MetricsRegistry()
        ex, st = explore_dpor(
            build,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            observe=observe,
            sleep_sets=sleep_sets,
            prefix=shard_prefix,
            obs=shard_obs,
            bound=bound,
        )
        counters = {} if shard_obs is None else {
            name: row["value"] for name, row in shard_obs.snapshot().items()
        }
        return [_strip_outcome(o) for o in ex.outcomes], ex.complete, st, counters

    results: Dict[int, Any] = {}
    if workers is not None and workers > 1 and len(shards) > 1 and FORKS:

        def run(idx: int, attempt: int) -> Any:
            if fault_hook is not None:
                fault_hook(idx, attempt)
            return task(shards[idx])

        with Pool(run, min(workers, len(shards)), name="repro-shards") as pool:
            results = {r.task: r.value for r in pool.map(range(len(shards))) if r.ok}
    total = DporStats(0, 0, 0, preemption_cuts=front_p, variable_cuts=front_v)
    summed: Counter = Counter()
    shard_exs = [Exploration([_strip_outcome(o) for o in direct], complete=True)]
    for idx, shard in enumerate(shards):
        outs, shard_complete, st, counters = (
            results[idx] if idx in results else task(shard)
        )
        shard_exs.append(
            Exploration(outs, shard_complete, st.preemption_cuts, st.variable_cuts)
        )
        for field in dataclasses.fields(DporStats):
            setattr(total, field.name, getattr(total, field.name) + getattr(st, field.name))
        summed.update(counters)
    merged = merge_shards(shard_exs)
    merged.preemption_cuts += front_p
    merged.variable_cuts += front_v
    total.schedules = merged.count
    if obs is not None:
        obs.add_counters(summed)
    return merged, total
